// Basic NewMadeleine types: tags, requests, configuration.
//
// The request object mirrors the paper's description (§2.2.1): "requests are
// opaque objects allocated internally each time a send or receive operation
// is submitted. Once this object is created, the user can query NewMadeleine
// in order to get information about a request's completion." — and, crucially
// for the any-source machinery in CH3 (§3.2), "NewMadeleine does not yet
// support the cancellation of a posted request", which we preserve: there is
// deliberately no cancel() here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>

#include "common/units.hpp"
#include "net/calibration.hpp"

namespace nmx::sim {
class FaultPlan;
}

namespace nmx::nmad {

/// Message tag. CH3 packs (context id, MPI tag) into this.
using Tag = std::uint64_t;

/// Tag filter: matches when (tag & mask) == value. An all-ones mask is an
/// exact match; masking out low bits probes "any user tag in this context".
struct TagSelector {
  Tag value = 0;
  Tag mask = 0;
  bool matches(Tag t) const { return (t & mask) == value; }
  static TagSelector exact(Tag t) { return {t, ~Tag{0}}; }
  static TagSelector any() { return {0, 0}; }
};

enum class StrategyKind {
  Default,       ///< FIFO, one packet per wire message, single rail
  Aggreg,        ///< aggregates small packets per destination (§2.2)
  SplitBalance,  ///< multirail: fast rail for small, adaptive split for large (§2.2, [4])
  CostModel,     ///< load-aware: completion-time cost model picks rails using
                 ///< live NIC occupancy + queued backlog, and re-plans the
                 ///< rendezvous split chunk by chunk as rails drain
};

struct Request {
  enum class Kind { Send, Recv };

  Kind kind = Kind::Send;
  int peer = -1;
  Tag tag = 0;
  bool completed = false;
  void* user_ctx = nullptr;  ///< upper-layer request (the CH3 pointer of §3.1.1)
  std::size_t len = 0;       ///< posted length (recv: buffer capacity)

  // receive side
  std::byte* rbuf = nullptr;
  std::size_t received = 0;  ///< actual message size once completed

  // send side
  const std::byte* sbuf = nullptr;
  /// Rendezvous bytes still in flight: sender side counts bytes not yet
  /// through NIC egress, receiver side bytes not yet landed. Byte-based so
  /// strategies may carve the payload into any number of chunks.
  std::size_t bytes_outstanding = 0;
  std::uint64_t rdv_id = 0;  ///< nonzero while in rendezvous
  /// Sender side: set when the first CTS grant arrives. Later CTSes for the
  /// same rendezvous are duplicates (wire faults, receiver re-grants) unless
  /// they carry a *newer* epoch — then the receiver restarted and the data
  /// phase is replayed from scratch.
  bool cts_seen = false;
  /// Sender side: the receiver's completion ack (RdvFin) for the current
  /// epoch has arrived. Retirement is gated on it — egress alone is not
  /// proof of delivery, and retiring early would orphan a restart re-grant
  /// that was already in flight (nmad.rdv.orphan_cts).
  bool fin_seen = false;

  // control-plane recovery state (sender side unless noted)
  std::uint32_t epoch = 0;        ///< current grant epoch (both sides)
  std::uint32_t rts_seq = 0;      ///< matching seq of the original RTS
  std::uint32_t rts_retries = 0;  ///< RTS retransmissions sent so far
  std::uint64_t retry_timer = 0;  ///< pending CTS-timeout event (sim::EventId)
  /// Egress notes not yet fired for this request. A rendezvous may only
  /// complete when bytes_outstanding == 0 *and* no note is in flight —
  /// otherwise a stale-epoch chunk still on a NIC would fire its note after
  /// the request was released.
  int inflight_notes = 0;

  // observability (obs/recorder.hpp): spans threaded through the stack
  std::uint64_t span = 0;      ///< upper-layer message-lifecycle span id
  std::uint64_t peer_span = 0; ///< recv side: the matched sender's span id
  std::uint64_t rdv_span = 0;  ///< sender-side rendezvous-handshake span id
  Time rdv_rts_t = 0;          ///< when the RTS was posted (handshake latency)

  std::list<Request>::iterator self;  ///< owner-list position (for release)
};

struct Config {
  /// Fabric rail indices this core drives (local rail i = rails[i]).
  std::vector<int> rails{0};
  StrategyKind strategy = StrategyKind::Aggreg;
  std::size_t rdv_threshold = calib::kNmadRdvThreshold;
  std::size_t max_aggregate = calib::kNmadMaxAggregate;
  /// Minimum rendezvous chunk worth putting on an extra rail.
  std::size_t min_split_chunk = 16_KiB;
  /// Ablation switch for bench/abl_splitratio: false = naive even split.
  bool adaptive_split = true;
  /// CostModel: largest rendezvous chunk emitted per wire message, so the
  /// split is re-planned as rails drain (0 = emit each rail's full share).
  std::size_t rdv_quantum = 2_MiB;
  Time sw_send = calib::kNmadSwSend;
  Time sw_recv = calib::kNmadSwRecv;
  /// PIOMan integration: thread-safe request lists + driver locks cost ~2µs
  /// per message (§4.1.2), charged half on injection, half on completion.
  bool pioman_sync = false;
  /// Receiver-directed flow control: advertise this core's per-rail ingress
  /// load in every CTS grant (RailAd vector) so load-aware senders solve the
  /// rendezvous split for both ends of the transfer. Costs
  /// RailAd::kWireSize bytes per rail on each CTS. Off = 20-byte legacy CTS,
  /// senders fall back to the one-ended (egress-only) cost model.
  bool advertise_rdv_load = true;

  /// Control-plane recovery: when a rendezvous' CTS grant has not arrived
  /// within this time, retransmit the RTS (same seq and rdv id, bumped retry
  /// counter) with exponential backoff. 0 disables the timer — the default,
  /// so healthy runs schedule nothing extra; chaos/faulted configurations
  /// turn it on.
  Time rdv_retry_timeout = 0;
  /// Give up retransmitting (but keep waiting) after this many retries, so a
  /// receiver that simply has not posted its receive yet is not hammered
  /// forever. The request stays pending; a genuinely lost handshake then
  /// surfaces as a deadlock/test timeout, not an infinite retry loop.
  int rdv_retry_limit = 10;
  /// Feed measured egress occupancy of large transfers back into the sampled
  /// per-rail bandwidth (Sampling::observe_egress), so silent rail
  /// degradation is re-learned from prediction error instead of poisoning
  /// the split forever. Exact-model runs observe beta exactly, so this is a
  /// no-op on a healthy fabric.
  bool beta_relearn = true;
  /// Deterministic fault injection (not owned; null = healthy run). The core
  /// consults it per delivered wire entry and registers rail-down/restart
  /// listeners on it.
  sim::FaultPlan* fault_plan = nullptr;

  Time inject_overhead() const {
    return sw_send + (pioman_sync ? calib::kPiomanNetOverhead / 2 : 0.0);
  }
  Time deliver_overhead() const {
    return sw_recv + (pioman_sync ? calib::kPiomanNetOverhead / 2 : 0.0);
  }
};

}  // namespace nmx::nmad
