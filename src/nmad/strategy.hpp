// Scheduling strategies (§2.2): how accumulated protocol entries are packed
// into wire messages once a NIC becomes idle, and how rendezvous payloads are
// distributed over rails.
//
//  * Default      — FIFO, one entry per wire message, fastest rail only.
//  * Aggreg       — aggregates small entries sharing a destination into one
//                   wire message (the paper's "messages aggregation").
//  * SplitBalance — Aggreg behaviour for small traffic, plus the adaptive
//                   multirail split ratio from sampling for rendezvous data
//                   ("distribute the message chunks across the multiple
//                   networks in case of large messages", §4.1.1).
//  * CostModel    — SplitBalance extended with a per-rail completion-time
//                   estimator: the sampled alpha/beta model plus the rail's
//                   current backlog (queued entries here + live NIC occupancy
//                   fed by the core through a LoadProbe). Small traffic goes
//                   to the rail with the earliest predicted completion, and
//                   rendezvous payloads are carved into chunks on demand so
//                   the split is re-solved as rails drain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "nmad/sampling.hpp"
#include "nmad/wire.hpp"

namespace nmx::nmad {

/// Live per-rail load snapshot a load-aware strategy reads before deciding:
/// the engine's virtual "now" and, per local rail, the absolute time the NIC
/// egress channel is booked until (<= now when idle). The core installs a
/// probe backed by the engine and fabric; strategies never re-derive this
/// from observability data.
struct RailLoad {
  Time now = 0;
  std::vector<Time> busy_until;
  /// Absolute time each local rail's *ingress* channel is booked until — the
  /// receive-direction mirror of busy_until. Strategies never read this for
  /// egress decisions; the core samples it (through the same probe) when it
  /// builds a CTS load advertisement. May be empty for egress-only probes.
  std::vector<Time> ingress_busy_until;
};
using LoadProbe = std::function<RailLoad()>;

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Queue a protocol entry. The strategy assigns the rail for small
  /// entries; RdvChunk entries arrive with their rail already planned, or —
  /// for strategies with plans_rdv_chunks() — with rail < 0 and the whole
  /// payload, to be carved into chunks as rails become idle.
  virtual void enqueue(Entry e) = 0;

  /// Build the next wire message for idle local rail `rail`, or nullopt if
  /// nothing is queued for it.
  virtual std::optional<WireMsg> next(int rail, int src_proc) = 0;

  /// Any entries waiting on any rail?
  virtual bool pending() const = 0;

  /// Byte share per local rail for a rendezvous payload of `len` bytes.
  virtual std::vector<std::size_t> plan_rdv(std::size_t len) const = 0;

  /// Install the engine/fabric-backed load snapshot provider. Load-blind
  /// strategies simply never call it.
  void set_load_probe(LoadProbe probe) { probe_ = std::move(probe); }

  /// True when the strategy carves rendezvous payloads into chunks itself;
  /// the core then enqueues one unplanned RdvChunk instead of pre-splitting.
  virtual bool plans_rdv_chunks() const { return false; }

  /// Drop every queued chunk (and any held unplanned job) belonging to
  /// rendezvous `rdv_id` toward `dst`, fixing the per-rail and rendezvous
  /// backlog accounting. Returns the payload bytes dropped. This is the
  /// error/cancel drain: a rendezvous the core abandons must not leave
  /// phantom bytes inflating the cost model's view of a rail forever.
  virtual std::size_t cancel_rdv(int dst, std::uint64_t rdv_id) = 0;

  /// Fail-stop notification: local rail `rail` is dead. The strategy marks
  /// it (rail picks and rendezvous splits exclude it from now on) and
  /// returns every entry it had queued on that rail, with backlog debited —
  /// the core re-routes them onto surviving rails.
  virtual std::vector<Entry> on_rail_down(int /*rail*/) { return {}; }

  // --- introspection (cost-model metrics read these; 0 when untracked) ----

  /// Wire bytes queued for local rail `r` (excludes unassigned rendezvous
  /// backlog — see rdv_backlog_bytes()).
  virtual std::size_t backlog_bytes(int /*rail*/) const { return 0; }
  /// Rendezvous bytes accepted but not yet assigned to any rail.
  virtual std::size_t rdv_backlog_bytes() const { return 0; }
  /// Entries routed to `rail` although it is not the sampled-fastest one,
  /// because the cost model predicted an earlier completion there.
  virtual std::uint64_t steals(int /*rail*/) const { return 0; }

 protected:
  /// Snapshot from the installed probe, padded/clamped to `num_rails` so
  /// strategies can index it unconditionally (no probe => all rails idle).
  RailLoad load(std::size_t num_rails) const {
    RailLoad l;
    if (probe_) l = probe_();
    l.busy_until.resize(num_rails, l.now);
    return l;
  }

 private:
  LoadProbe probe_;
};

struct StrategyOptions {
  std::size_t max_aggregate = calib::kNmadMaxAggregate;
  std::size_t min_split_chunk = 16_KiB;
  /// CostModel: cap on the rendezvous chunk emitted per wire message so the
  /// split keeps re-planning while the transfer drains (0 = no cap).
  std::size_t rdv_quantum = 2_MiB;
  /// Ablation switch: use the naive even split instead of the adaptive one.
  bool adaptive_split = true;
};

std::unique_ptr<Strategy> make_strategy(StrategyKind kind, const Sampling& sampling,
                                        const StrategyOptions& opts);

}  // namespace nmx::nmad
