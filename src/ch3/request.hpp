// The MPICH2 (ADI3) request object, with the field the paper adds: a pointer
// to the corresponding NewMadeleine request ("we added a new field to the
// Nemesis-specific portion of the MPICH2 request which points to the
// corresponding NewMadeleine request", §3.1.1).
#pragma once

#include <cstddef>
#include <list>

#include "mpi/transport.hpp"
#include "nmad/types.hpp"
#include "obs/recorder.hpp"

namespace nmx::ch3 {

struct MpidRequest : mpi::TxRequest {
  enum class Kind { Send, Recv };

  Kind kind = Kind::Send;
  int peer = -1;  ///< recv: requested source (may be mpi::ANY_SOURCE)
  int tag = 0;    ///< requested tag (may be mpi::ANY_TAG)
  int context = 0;
  std::byte* rbuf = nullptr;
  std::size_t len = 0;  ///< recv: buffer capacity; send: message size

  /// §3.1.1: the NewMadeleine request backing this ADI request (bypass path).
  nmad::Request* nmad_req = nullptr;

  // The message-lifecycle span lives on mpi::TxRequest (`span`), so the MPI
  // layer can attribute waits to the request that blocked them.

  /// Completion reached through the any-source lists — charge the extra
  /// 300 ns the paper measures (§4.1.1).
  bool via_any_source = false;

  std::list<MpidRequest>::iterator self{};
};

}  // namespace nmx::ch3
