// The device-level transport interface every MPI stack variant implements:
// the MPICH2-NewMadeleine stack (src/ch3), and the MVAPICH2-like / Open
// MPI-like baselines (src/baseline). The public MPI API (comm.hpp) and the
// collectives are built once on top of this, so all stacks run the exact
// same application code — like the paper's NAS evaluation.
//
// This header is intentionally dependency-light: implementors include it
// without linking the mpi library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"

namespace nmx::mpi {

inline constexpr int ANY_SOURCE = -1;
inline constexpr int ANY_TAG = -1;

struct Status {
  int source = -1;
  int tag = -1;
  std::size_t count = 0;  ///< received bytes
};

/// Device-level request (the ADI3 request object). Transports may subclass.
struct TxRequest {
  bool completed = false;
  Status status;
  /// The actor blocked on this request, if any. Only the owning rank's actor
  /// ever waits on its requests, so one slot is enough.
  sim::Actor* waiter = nullptr;
  /// Message-lifecycle span id (obs::SpanId), open from post to completion.
  /// Lives on the base so the MPI layer can name the request a wait blocked
  /// on without knowing the transport's request subtype. 0 = untraced.
  std::uint64_t span = 0;

  virtual ~TxRequest() = default;

  /// Register `self` as the waiter; a request has at most one.
  void set_waiter(sim::Actor& self) {
    NMX_ASSERT_MSG(waiter == nullptr || waiter == &self,
                   "two actors wait on one request; only its owner may");
    waiter = &self;
  }

  /// Mark complete and wake the blocked waiter. Engine-thread or actor context.
  void complete_and_wake() {
    NMX_ASSERT_MSG(!completed, "request completed twice");
    completed = true;
    if (waiter != nullptr) std::exchange(waiter, nullptr)->wake();
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int rank() const = 0;

  /// Post a send. `tag` is the user tag (>= 0); `context` distinguishes
  /// communicator/collective traffic.
  virtual TxRequest* isend(int dst, int tag, int context, const void* buf, std::size_t len) = 0;

  /// Post a receive. `src` may be ANY_SOURCE and `tag` ANY_TAG.
  virtual TxRequest* irecv(int src, int tag, int context, void* buf, std::size_t len) = 0;

  /// Free a completed request.
  virtual void release(TxRequest* r) = 0;

  /// Bracket for blocking waits: while entered, the stack's progress engine
  /// reacts to events as they arrive (the caller is "inside MPI").
  virtual void enter_progress() = 0;
  virtual void leave_progress() = 0;

  /// Multiplier applied to application compute time — models progression
  /// machinery stealing CPU cycles (1.0 for stacks that burn none).
  virtual double compute_dilation() const { return 1.0; }

  /// True when the stack gathers/scatters non-contiguous datatype segments
  /// natively (NewMadeleine's packet wrapper does); false = the MPI layer
  /// packs through a bounce buffer and pays the copy.
  virtual bool native_datatypes() const { return false; }

  /// Non-destructive check for a matching incoming message (MPI_Iprobe).
  /// Drives one progress pass; `src`/`tag` may be wildcards.
  virtual std::optional<Status> iprobe(int /*src*/, int /*tag*/, int /*context*/) {
    return std::nullopt;
  }

  /// MPI_Finalize, run once per rank by the actor whose program returned
  /// last: returns when nothing the rank queued still needs its progress.
  virtual void finalize(sim::Actor& /*self*/) {}

  /// Block until `r` completes, driving progress (MPI_Wait).
  void wait(sim::Actor& self, TxRequest* r) {
    enter_progress();
    while (!r->completed) {
      r->set_waiter(self);
      self.block();
    }
    leave_progress();
  }

  /// One progress poke + completion check (MPI_Test).
  bool test(TxRequest* r) {
    enter_progress();
    leave_progress();
    return r->completed;
  }
};

}  // namespace nmx::mpi
