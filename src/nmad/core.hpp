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

#include <array>
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

/// One connection to a peer process (the paper's gate): all matching state
/// toward that peer. Matching takes the first list entry with the same tag,
/// which keeps per-(peer, tag) FIFO order; the lists are short, and empty ones
/// allocate nothing. A Core keeps its gates in creation order at stable
/// addresses, so the peer's gate toward us can hold a pointer to this one
/// (`far`), and every Eager or Rts entry carries that pointer to the
/// receiver: an arrival is known by the connection it lands on.
///
/// Hot fields first: the first 64 bytes hold what a send and an in-order
/// arrival read per message (far end, peer, the first per-tag sequence
/// slots), then come the matching queues. The out-of-order stash, the
/// rendezvous landing mix and any further sequence slots live in a Cold
/// block allocated on first use, which an eager-only gate never needs. Gates
/// are not over-aligned to cache lines: on NAS CG at 512 ranks the aligned
/// allocations cost 0.7 MiB of allocator fragmentation.
struct Gate {
  /// Per-tag matching sequence numbers: next to send, next expected.
  struct Seq {
    Tag tag = 0;
    std::uint32_t send = 0;
    std::uint32_t recv = 0;
  };

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
    int fabric_rail = -1;
  };

  struct Cold {
    std::vector<Seq> seq_tail;  ///< sequence slots past kSeqInline
    std::map<std::pair<Tag, std::uint32_t>, PendingIngest> out_of_order;
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

  /// Sequence slots held inline. A gate talks on a handful of tags (at most
  /// 6 on NAS CG at 512 ranks, and 2 on most of its gates), so a scan beats a
  /// hash, and the usual gate allocates nothing for it.
  static constexpr std::size_t kSeqInline = 3;

  /// Index of `tag`'s sequence slot, appending a fresh one on first use.
  /// Slots only grow, and those past kSeqInline live in a vector, so callers
  /// that may re-enter the core hold an index into them, never a reference.
  std::size_t seq_of(Tag tag) {
    for (std::size_t i = 0; i < nseq; ++i) {
      if (seq(i).tag == tag) return i;
    }
    if (nseq < kSeqInline) {
      seq_head[nseq] = Seq{tag};
    } else {
      cold_state().seq_tail.push_back(Seq{tag});
    }
    return nseq++;
  }
  Seq& seq(std::size_t i) { return i < kSeqInline ? seq_head[i] : cold->seq_tail[i - kSeqInline]; }
  Cold& cold_state() {
    if (cold == nullptr) cold = std::make_unique<Cold>();
    return *cold;
  }

  // First 64 bytes.
  Gate* far = nullptr;  ///< the peer's gate toward us; null until the first send
  int peer = -1;
  std::uint32_t nseq = 0;  ///< sequence slots in use: seq_head, then cold->seq_tail
  std::array<Seq, kSeqInline> seq_head{};

  // Then the matching queues and the cold block.
  std::vector<Request*> posted;        ///< receives in post order
  std::vector<Unexpected> unexpected;  ///< unmatched arrivals in arrival order
  std::unique_ptr<Cold> cold;
};

static_assert(sizeof(Gate*) + sizeof(int) + sizeof(std::uint32_t) +
                      Gate::kSeqInline * sizeof(Gate::Seq) ==
                  64,
              "Gate's first 64 bytes are far + peer + nseq + the inline sequence slots");
static_assert(sizeof(void*) != 8 || sizeof(Gate) == 120,
              "a Gate is 120 bytes: hot fields, the matching queues, the cold pointer");

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

  /// MPI_Finalize's flush: block `self` in progress until the strategy has
  /// handed every queued entry to a rail. Without it, an entry queued after
  /// the rank's last wait (an RdvFin that found the rail busy) waits for a
  /// progress pass that, without PIOMan, never comes. No-op when idle.
  void drain(sim::Actor& self);

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
  /// Eager and Rts arrivals whose gate was found by peer id, because the
  /// entry carried no far end (a retransmitted RTS, or a destination that
  /// was not registered when the connection's first message was sent).
  std::size_t arrival_lookups() const { return arrival_lookups_; }
  /// The decayed per-local-rail rendezvous landing mix from `peer` (empty
  /// before its first chunk lands, and again after a restart).
  std::vector<double> landing_mix(int peer) const;

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
  /// The gate toward `peer`, created on first use.
  Gate& gate(int peer);
  /// The gate toward `peer`, or null when none exists yet.
  Gate* find_gate(int peer) const;
  /// Home slot of `peer` in gate_index_ (Fibonacci hashing).
  std::size_t gate_slot(int peer) const {
    return (static_cast<std::uint32_t>(peer) * 0x9E3779B9u) >> gate_index_shift_;
  }
  void index_gate(Gate& g);
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
  void handle_wire(int fabric_rail, WireMsg& m);
  /// Deliver one wire entry to its protocol handler (post fault filtering).
  void dispatch_entry(int src, int fabric_rail, Entry& e);
  /// Put an Eager or Rts entry into its (peer, tag) sequence: ingest it when
  /// its turn has come (then its stashed successors), stash it when it is
  /// early, and drop or re-grant a duplicate.
  void ingest_ordered(int src, Entry& e, int fabric_rail);
  /// Match an in-order Eager or Rts entry against the gate's posted
  /// receives, or queue it as unexpected. `g` is gate(src).
  void ingest(Gate& g, int src, Entry& e, int fabric_rail);
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
  void decay_rx_mix(Gate::Cold& c) const;

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
  /// Every gate, in creation order, each at a fixed address: far-end
  /// pointers and references held across re-entry stay valid.
  std::vector<std::unique_ptr<Gate>> gates_;
  /// Peer id -> gate: open addressing with linear probing over a power-of-
  /// two table kept at most 3/4 full (empty until the first gate), so it is
  /// sized to the gate count and a probe walks adjacent 16-byte slots of one
  /// cache line.
  struct GateSlot {
    int peer = -1;
    Gate* gate = nullptr;
  };
  std::vector<GateSlot> gate_index_;
  int gate_index_shift_ = 0;  ///< 32 - log2(gate_index_.size())
  std::unordered_map<std::uint64_t, Request*> rdv_out_;  ///< rdv_id -> send req
  std::map<std::pair<int, std::uint64_t>, RdvIn> rdv_in_;

  struct RxItem {
    int fabric_rail = -1;  ///< rail the packet arrived on (for the rx mix)
    WireMsg msg;
  };
  std::deque<RxItem> pending_rx_;
  bool pending_flush_ = false;
  int progress_depth_ = 0;
  sim::Actor* drain_waiter_ = nullptr;  ///< blocked in drain() until the queue empties

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
  std::size_t arrival_lookups_ = 0;
};

}  // namespace nmx::nmad
