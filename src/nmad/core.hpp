// The NewMadeleine communication core: the nm_sr interface (§2.2.1), internal
// tag matching, the eager / internal-rendezvous protocols, the submission
// window drained by strategies, and the per-rail drivers.
//
// Progress rule (the key to Figure 7): NewMadeleine "works with the network's
// activity" — requests are queued, and the software steps that move them
// (packing by the strategy, NIC submission, incoming-packet handling,
// rendezvous replies) run only while some party is *in the progress engine*:
// either an application thread inside an MPI call (enter_progress /
// leave_progress bracket) or PIOMan reacting in the background (service()).
// Hardware-side events (NIC egress completion, wire delivery) always fire;
// it is the software reaction to them that is gated.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "nmad/sampling.hpp"
#include "nmad/strategy.hpp"
#include "nmad/types.hpp"
#include "nmad/wire.hpp"
#include "sim/engine.hpp"

namespace nmx::nmad {

/// Result of probing the unexpected queues (feeds the CH3 any-source lists).
struct ProbeInfo {
  int src = -1;
  Tag tag = 0;
  std::size_t len = 0;
};

class Core {
 public:
  /// Registers itself in `peers`, where every core's send path finds the
  /// destination process.
  Core(sim::Engine& eng, net::Fabric& fabric, net::Endpoints<Core>& peers, int my_proc,
       Config cfg);

  int proc() const { return my_proc_; }
  const Config& config() const { return cfg_; }
  const Sampling& sampling() const { return sampling_; }
  const Strategy& strategy() const { return *strategy_; }

  // --- nm_sr interface ----------------------------------------------------

  /// nm_sr_isend(destination, tag, buffer, size) — §2.2.1. `span` is the
  /// upper layer's message-lifecycle span id (0 = none), threaded onto the
  /// wire entries for end-to-end tracing.
  Request* isend(int dst, Tag tag, const void* buf, std::size_t len, void* user_ctx = nullptr,
                 std::uint64_t span = 0);
  /// nm_sr_irecv(source, tag, buffer, capacity) — §2.2.1. The source must be
  /// known; MPI_ANY_SOURCE is handled above us by the CH3 lists (§3.2).
  Request* irecv(int src, Tag tag, void* buf, std::size_t len, void* user_ctx = nullptr,
                 std::uint64_t span = 0);

  bool test(const Request* r) const { return r->completed; }
  /// Free a request the upper layer is done with. Requests cannot be
  /// cancelled (§2.2.1) — only completed requests may be released.
  void release(Request* r);

  /// Non-destructive look at the unexpected queues: the oldest message
  /// matching (src?, selector). This is the "new NewMadeleine function" the
  /// module polls for any-source handling (§3.2.2).
  std::optional<ProbeInfo> probe(std::optional<int> src, TagSelector sel) const;

  /// Fired on the engine thread whenever a request completes (§3.1.3: lets
  /// the module mark the corresponding CH3 request complete).
  void set_on_complete(std::function<void(Request&)> fn) { on_complete_ = std::move(fn); }

  /// Fired when a message lands with no posted request — the trigger for
  /// the CH3 any-source lists to probe and dynamically create a request.
  void set_on_unexpected(std::function<void(const ProbeInfo&)> fn) {
    on_unexpected_ = std::move(fn);
  }

  /// Arrival entry point: wire message `m` lands at this process from
  /// `fabric_rail`. Run by the sender's fabric arrival callback.
  void rx_wire(int fabric_rail, WireMsg&& m);

  // --- progress control ---------------------------------------------------

  /// Bracket for blocking MPI calls: while the depth is nonzero, incoming
  /// packets are handled and strategies flushed as events arrive.
  void enter_progress();
  void leave_progress();
  bool progress_allowed() const { return progress_depth_ > 0; }

  /// One explicit progress pass (MPI_Test / netmod poll).
  void progress();

  /// PIOMan's entry point: a progress pass made by the background engine.
  void service() {
    ++progress_depth_;
    progress();
    --progress_depth_;
  }

  /// Called when gated work appears while nobody is in the progress engine
  /// — PIOMan hooks this to schedule a background reaction (§2.2.2).
  void set_async_notifier(std::function<void()> fn) { async_notifier_ = std::move(fn); }
  bool has_gated_work() const { return !pending_rx_.empty() || pending_flush_; }

  // --- introspection ------------------------------------------------------

  std::size_t outstanding_requests() const { return live_.size(); }
  std::size_t unexpected_count() const { return unexpected_total_; }
  std::size_t rdv_started() const { return rdv_started_; }

  // --- NIC-offloaded collectives (Yu/Buntinas/Graham/Panda model) ---------

  /// Post this rank's contribution to NIC combine tree `coll_id`: the NIC
  /// unit folds children's values into ours (op per the coll layer's
  /// encoding), forwards the partial up the tree (`parent`, -1 = root), and
  /// the root's broadcast-down releases every rank by firing `done(result)`.
  /// Control packets are handled by the NIC itself — no host matching, no
  /// deliver overhead, and no progress gating — and each tree edge picks the
  /// rail with the earliest predicted egress among live rails, so a dead or
  /// congested rail bends the combine tree like any other cost-model edge.
  void nic_coll_post(std::uint64_t coll_id, int parent, std::vector<int> children, double value,
                     int op, std::function<void(double)> done);

 private:
  struct Unexpected {
    Tag tag = 0;
    std::uint64_t arrival = 0;  ///< per-core arrival stamp (for wildcard probe)
    bool rdv = false;
    std::size_t len = 0;
    std::uint64_t rdv_id = 0;
    std::uint64_t span = 0;  ///< sender's message span (deferred-match linking)
    std::vector<std::byte> payload;  ///< eager only
  };

  /// An Eager or Rts entry waiting for its sequence turn (multirail safety).
  struct PendingIngest {
    Entry entry;
    int src;
    int fabric_rail = -1;
  };

  /// Per-(peer, tag) matching sequence numbers: next to send, next expected.
  struct Seq {
    Tag tag = 0;
    std::uint32_t send = 0;
    std::uint32_t recv = 0;
  };

  /// All matching state toward one peer (the paper's gate). Matching takes
  /// the first list entry with the same tag, which keeps per-(peer, tag)
  /// FIFO order; the lists are short, and empty ones allocate nothing.
  /// `seq` is a flat table searched linearly (seq_of): a gate talks on a
  /// handful of tags (at most 21 on NAS CG at 512 ranks), so a scan beats a
  /// hash. It only grows, so callers that may re-enter the core hold an
  /// index into it, never a reference.
  struct GateState {
    std::vector<Seq> seq;
    std::map<std::pair<Tag, std::uint32_t>, PendingIngest> out_of_order;
    std::vector<Request*> posted;        ///< receives in post order
    std::vector<Unexpected> unexpected;  ///< unmatched arrivals in arrival order
    /// Rendezvous bytes from this peer that landed per local rail — the
    /// observed arrival mix used to attribute granted-but-unlanded bytes to
    /// rails in the CTS load advertisement (empty until first chunk lands).
    /// Exponentially time-decayed (kMixDecayTau) so the mix tracks the
    /// *current* landing rate: a rail that stopped landing bytes stops
    /// attracting backlog attribution instead of being pinned forever by
    /// stale history.
    std::vector<double> rdv_rx_by_rail;
    Time rdv_rx_t = 0;  ///< last time the decay was applied to the mix
  };

  struct RdvIn {
    Request* req = nullptr;
    /// Grant epoch: bumped on receiver restart so chunks answering a stale
    /// grant are recognised and dropped instead of double-landed.
    std::uint32_t epoch = 0;
  };

  struct Driver {
    int fabric_rail = 0;
    bool busy = false;
    bool dead = false;          ///< fail-stop: never submit here again
    std::uint64_t tx_span = 0;  ///< open NicTx span (one per rail: busy-gated)
    Time tx_begin = 0;          ///< submission time of the in-flight packet
    Time tx_pred = 0;           ///< cost-model predicted egress completion
  };

  struct Note {  // sender-side egress bookkeeping
    Request* sreq;
    Entry::Kind kind;
    std::size_t bytes;  ///< payload bytes (rendezvous byte accounting)
    /// Grant epoch the chunk was sent under; a note from a superseded epoch
    /// must not decrement the (replayed) outstanding-byte count.
    std::uint32_t epoch;
  };

  Request* new_request(Request r);
  GateState& gate(int peer);
  /// Index of `tag`'s entry in `g.seq`, appending a fresh one on first use.
  static std::size_t seq_of(GateState& g, Tag tag);
  /// Strategy hand-off, instrumented: StratEnqueue record + queue-depth gauge.
  void enqueue(Entry e);
  /// Scheduler observability: per-rail backlog/steal gauges plus counter-track
  /// samples (Perfetto "C" events) of the queue depths over time.
  void sample_sched();
  void kick();
  void try_flush();
  /// `nic_direct`: a NIC-offloaded collective packet — charged the firmware
  /// processing cost instead of host injection + copy overheads.
  void submit(int local_rail, WireMsg wm, bool nic_direct = false);
  void on_egress(int local_rail, std::vector<Note> notes);
  void drain_rx();
  void handle_wire(int fabric_rail, WireMsg m);
  /// Deliver one wire entry to its protocol handler (post fault filtering).
  void dispatch_entry(int src, int fabric_rail, Entry e);
  void ingest_ordered(int src, Entry e, int fabric_rail);
  /// Match an in-order Eager or Rts entry against the gate's posted
  /// receives, or queue it as unexpected. `g` is gate(src).
  void ingest(GateState& g, int src, Entry& e, int fabric_rail);
  /// Copy an eager payload into a matched receive and complete it.
  void land_eager(Request& req, const std::vector<std::byte>& bytes, std::uint64_t span);
  /// An Rts whose matching slot was already consumed (wire duplicate or
  /// sender retransmission): re-grant when our CTS was the casualty.
  void handle_dup_rts(int src, Entry& e);
  void handle_cts(int src, Entry& cts);
  /// (Re)start the rendezvous data phase after a grant: reset the
  /// outstanding-byte count and enqueue the payload under req->epoch.
  void start_rdv_data(Request* req, Entry& cts);
  void handle_rdv_data(int src, int fabric_rail, Entry& e);
  /// Receiver->sender completion ack: every byte of the rendezvous landed
  /// under this grant epoch. Sets fin_seen and attempts retirement.
  void handle_rdv_fin(Entry& e);
  /// Enqueue the completion ack once the last rendezvous byte lands.
  void send_rdv_fin(int dst, std::uint64_t rdv_id, std::size_t landed, std::uint32_t epoch,
                    std::uint64_t span);
  /// Retire a sender-side rendezvous iff the receiver acked completion
  /// (fin_seen), all bytes cleared egress, and no note is in flight. Gating
  /// on the ack closes the restart orphan window: egress alone does not
  /// prove delivery, and a restart re-grant may still be racing toward us.
  void try_retire(Request* req);
  void start_rdv_recv(int src, Request* req, std::uint64_t rdv_id, std::size_t total,
                      std::uint64_t sender_span = 0);
  /// Build and enqueue one CTS grant (initial grant, re-grant on duplicate
  /// RTS, restart re-grant).
  void send_cts(int dst, std::uint64_t rdv_id, std::uint32_t epoch, std::uint64_t span);
  /// CTS-timeout handler: retransmit the RTS with exponential backoff.
  void rts_retry(Request* req);
  /// Fail-stop rail death: mark the driver, displace + re-route queued
  /// entries, notify rendezvous peers. `from_wire` marks a peer notification
  /// (no re-notify; the local-NIC report path sends them).
  void handle_rail_down(int fabric_rail, bool from_wire);
  /// Fault-plan restart listener: wipe rendezvous landing progress and
  /// re-grant every pending inbound rendezvous under a bumped epoch.
  void on_restart();
  void complete(Request& r);
  void notify_async();
  bool any_rail_needs_registration() const;
  /// Local rail index driving `fabric_rail`, or -1 when this core does not
  /// drive it (heterogeneous per-process rail bindings).
  int local_rail_of(int fabric_rail) const;
  /// The receiver's per-rail load advertisement for a CTS grant: ingress
  /// occupancy past "now" plus granted-but-unlanded inbound bytes (excluding
  /// the rendezvous being granted, which the sender accounts for itself).
  std::vector<RailAd> sample_rail_ads(int granting_src, std::uint64_t granting_rdv) const;
  /// Apply the exponential landing-mix decay to a gate (idempotent per time).
  void decay_rx_mix(GateState& g) const;

  // NIC collective unit internals. State is keyed by collective id; arrivals
  // may precede the local post (the CollCtl carries the op), so entries are
  // created on first touch.
  struct NicColl {
    int parent = -1;
    std::vector<int> children;
    std::size_t arrived = 0;  ///< children contributions combined so far
    bool posted = false;      ///< local rank contributed (done/children valid)
    bool has_acc = false;
    double acc = 0;
    int op = 0;
    std::function<void(double)> done;
  };
  /// CollCtl arrival, after the NIC processing delay.
  void nic_coll_rx(std::uint64_t id, double value, std::uint32_t ctl);
  /// Forward the partial up (or release at the root) once everything local
  /// arrived and the local contribution was posted.
  void nic_coll_maybe_up(std::uint64_t id, NicColl& st);
  /// Root result reached this rank: forward down the tree and fire done().
  void nic_coll_release(std::uint64_t id, double result);
  void nic_coll_send(int dst, std::uint64_t id, double value, std::uint32_t ctl);
  /// Submit queued CollCtl packets: each picks the live rail with the
  /// earliest predicted egress completion. Runs unconditionally from egress
  /// events — the NIC unit does not wait for host progress.
  void drain_nic_txq();

  sim::Engine& eng_;
  net::Fabric& fabric_;
  net::Endpoints<Core>& peers_;
  int my_proc_;
  int my_node_;
  Config cfg_;
  Sampling sampling_;
  std::unique_ptr<Strategy> strategy_;
  std::vector<Driver> drivers_;

  std::list<Request> live_;
  /// Released request nodes, reused by new_request (bounded by the peak
  /// number of live requests): a request costs no heap allocation.
  std::list<Request> free_;
  std::unordered_map<int, GateState> gates_;
  std::unordered_map<std::uint64_t, Request*> rdv_out_;  ///< rdv_id -> send req
  std::map<std::pair<int, std::uint64_t>, RdvIn> rdv_in_;

  struct RxItem {
    int fabric_rail = -1;  ///< rail the packet arrived on (for the rx mix)
    WireMsg msg;
  };
  std::deque<RxItem> pending_rx_;
  bool pending_flush_ = false;
  int progress_depth_ = 0;

  std::map<std::uint64_t, NicColl> nic_colls_;
  std::deque<Entry> nic_txq_;  ///< CollCtl packets awaiting a free rail

  std::function<void(Request&)> on_complete_;
  std::function<void(const ProbeInfo&)> on_unexpected_;
  std::function<void()> async_notifier_;

  std::uint64_t next_rdv_ = 1;
  std::uint64_t arrival_counter_ = 0;
  std::size_t unexpected_total_ = 0;
  std::size_t rdv_started_ = 0;
  std::size_t strat_depth_ = 0;  ///< entries handed to the strategy, not yet on a NIC
};

}  // namespace nmx::nmad
