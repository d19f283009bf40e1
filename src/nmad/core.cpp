#include "nmad/core.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "obs/recorder.hpp"
#include "sim/fault.hpp"

namespace nmx::nmad {

namespace {
/// Pseudo-byte weight of the beta-proportional prior in the per-peer arrival
/// mix (sample_rail_ads): the prior only fills the gap until this much
/// *recent* (decayed) landing mass has been observed, then fades out.
constexpr std::size_t kMixPriorBytes = 256 * 1024;
/// Time constant of the exponential decay on the observed per-rail landing
/// mix: a couple of large-chunk landings wide, so the mix tracks the current
/// landing rate instead of the whole run's history. Sim-time based —
/// deterministic.
constexpr Time kMixDecayTau = 2e-3;
/// NIC firmware processing per collective control packet (Yu et al. report
/// the NIC-based barrier's per-hop cost is dominated by wire latency, with
/// firmware handling well under a microsecond).
constexpr Time kNicCollProc = 0.2e-6;
/// NIC-internal loopback between co-located processes sharing the node's
/// NICs: no wire, no egress occupancy, just a doorbell across the bus.
constexpr Time kNicCollLoopback = 0.3e-6;
/// Give up retransmitting an RTS (but keep waiting) after this many retries,
/// so a receiver that simply has not posted its receive yet is not hammered
/// forever. The request stays pending; a genuinely lost handshake then
/// surfaces as a deadlock/test timeout, not an infinite retry loop.
constexpr std::uint32_t kRdvRetryLimit = 10;
}  // namespace

Core::Core(sim::Engine& eng, net::Fabric& fabric, net::ProcRouter& router, int my_proc,
           Config cfg)
    : eng_(eng),
      fabric_(fabric),
      router_(router),
      my_proc_(my_proc),
      my_node_(fabric.topology().node_of(my_proc)),
      cfg_(cfg),
      sampling_(fabric, cfg.rails) {
  NMX_ASSERT(!cfg_.rails.empty());
  StrategyOptions opts;
  opts.rdv_quantum = cfg_.rdv_quantum;
  opts.adaptive_split = cfg_.adaptive_split;
  strategy_ = make_strategy(cfg_.strategy, sampling_, opts);
  for (int fr : cfg_.rails) drivers_.push_back(Driver{fr, false});
  // Live load feed for cost-model strategies: the engine clock plus each
  // local rail's NIC egress occupancy, straight from the fabric (includes
  // co-located processes sharing the node's NICs).
  strategy_->set_load_probe([this] {
    RailLoad l;
    l.now = eng_.now();
    l.busy_until.reserve(drivers_.size());
    l.ingress_busy_until.reserve(drivers_.size());
    for (const Driver& d : drivers_) {
      l.busy_until.push_back(fabric_.egress_busy_until(my_node_, d.fabric_rail));
      l.ingress_busy_until.push_back(fabric_.ingress_busy_until(my_node_, d.fabric_rail));
    }
    return l;
  });
  router.register_proc(my_proc_, [this](net::WirePacket&& pkt) { rx_wire(std::move(pkt)); });
  if (cfg_.fault_plan != nullptr) {
    // Rail death is reported synchronously by the local NIC at the death
    // instant (the listener fires for every core; cores not driving the rail
    // ignore it). Restart wipes this process's rendezvous landing progress.
    cfg_.fault_plan->on_rail_down([this](int fr) { handle_rail_down(fr, /*from_wire=*/false); });
    cfg_.fault_plan->on_restart(my_proc_, [this] { on_restart(); });
  }
}

Request* Core::new_request(Request r) {
  live_.push_back(std::move(r));
  auto it = std::prev(live_.end());
  it->self = it;
  return &*it;
}

Core::GateState& Core::gate(int peer) { return gates_[peer]; }

bool Core::any_rail_needs_registration() const {
  for (const Driver& d : drivers_) {
    if (fabric_.profile(d.fabric_rail).needs_registration) return true;
  }
  return false;
}

int Core::local_rail_of(int fabric_rail) const {
  for (std::size_t r = 0; r < drivers_.size(); ++r) {
    if (drivers_[r].fabric_rail == fabric_rail) return static_cast<int>(r);
  }
  return -1;
}

// --------------------------------------------------------------------------
// nm_sr interface
// --------------------------------------------------------------------------

Request* Core::isend(int dst, Tag tag, const void* buf, std::size_t len, void* user_ctx,
                     std::uint64_t span) {
  NMX_ASSERT_MSG(dst != my_proc_, "NewMadeleine handles inter-node traffic only");
  Request* req = new_request([&] {
    Request r;
    r.kind = Request::Kind::Send;
    r.peer = dst;
    r.tag = tag;
    r.len = len;
    r.sbuf = static_cast<const std::byte*>(buf);
    r.user_ctx = user_ctx;
    r.span = span;
    return r;
  }());

  GateState& g = gate(dst);
  const std::uint32_t seq = g.seq[tag].send++;
  obs::Recorder* rec = eng_.recorder();
  Entry e;
  e.dst_proc = dst;
  e.tag = tag;
  e.seq = seq;
  e.span = span;
  if (len <= calib::kNmadRdvThreshold) {
    e.kind = Entry::Kind::Eager;
    const auto* p = static_cast<const std::byte*>(buf);
    e.bytes.assign(p, p + len);
    e.sreq = req;
    if (rec != nullptr) {
      rec->metrics().counter("nmad.eager.count").add(1);
      rec->metrics().counter("nmad.eager.bytes").add(len);
    }
  } else {
    // Internal rendezvous (§2.1.3): RTS now, data after the CTS grant. The
    // NmadRdv span covers the handshake: RTS post -> CTS back at the sender.
    const std::uint64_t id = next_rdv_++;
    req->rdv_id = id;
    req->rdv_rts_t = eng_.now();
    rdv_out_.emplace(id, req);
    ++rdv_started_;
    e.kind = Entry::Kind::Rts;
    e.rdv_id = id;
    e.rdv_total = len;
    req->rts_seq = seq;
    // CTS-timeout recovery: if the grant has not arrived by then, retransmit
    // the RTS (same seq / rdv id). Off by default — healthy runs schedule
    // nothing extra; chaos configurations opt in.
    if (cfg_.rdv_retry_timeout > 0) {
      req->retry_timer = eng_.schedule_in_checked(cfg_.rdv_retry_timeout, [this, req] { rts_retry(req); });
    }
    if (rec != nullptr) {
      req->rdv_span = rec->begin(eng_.now(), my_proc_, obs::Cat::NmadRdv, len, dst);
      rec->instant(eng_.now(), my_proc_, obs::Cat::RdvRts, len, dst);
      rec->metrics().counter("nmad.rdv.count").add(1);
      rec->metrics().counter("nmad.rdv.bytes").add(len);
    }
  }
  enqueue(std::move(e));
  kick();
  return req;
}

Request* Core::irecv(int src, Tag tag, void* buf, std::size_t len, void* user_ctx,
                     std::uint64_t span) {
  NMX_ASSERT_MSG(src != my_proc_, "NewMadeleine handles inter-node traffic only");
  Request* req = new_request([&] {
    Request r;
    r.kind = Request::Kind::Recv;
    r.peer = src;
    r.tag = tag;
    r.len = len;
    r.rbuf = static_cast<std::byte*>(buf);
    r.user_ctx = user_ctx;
    r.span = span;
    return r;
  }());

  GateState& g = gate(src);
  auto it = std::find_if(g.unexpected.begin(), g.unexpected.end(),
                         [tag](const Unexpected& u) { return u.tag == tag; });
  if (it == g.unexpected.end()) {
    g.posted.push_back(req);
    return req;
  }
  Unexpected u = std::move(*it);
  g.unexpected.erase(it);
  --unexpected_total_;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->metrics().gauge("nmad.unexpected.depth").set(static_cast<double>(unexpected_total_));
  }
  if (u.rdv) {
    start_rdv_recv(src, req, u.rdv_id, u.len, u.span);
  } else {
    land_eager(*req, u.payload, u.span);
  }
  return req;
}

void Core::release(Request* r) {
  NMX_ASSERT_MSG(r->completed, "requests cannot be cancelled, only completed ones released");
  // A completed rendezvous cancelled its retry timer when the CTS landed;
  // cancel defensively anyway so a released request can never be called back.
  if (r->retry_timer != 0) {
    eng_.cancel(r->retry_timer);
    r->retry_timer = 0;
  }
  live_.erase(r->self);
}

std::optional<ProbeInfo> Core::probe(std::optional<int> src, TagSelector sel) const {
  const Unexpected* best = nullptr;
  int best_src = -1;
  // nmx-lint: allow(determinism) arrival stamps are unique per core, so the oldest match does not depend on visitation order
  for (const auto& [gsrc, g] : gates_) {
    if (src && *src != gsrc) continue;
    auto it = std::find_if(g.unexpected.begin(), g.unexpected.end(),
                           [&sel](const Unexpected& u) { return sel.matches(u.tag); });
    if (it != g.unexpected.end() && (best == nullptr || it->arrival < best->arrival)) {
      best = &*it;
      best_src = gsrc;
    }
  }
  if (best == nullptr) return std::nullopt;
  return ProbeInfo{best_src, best->tag, best->len};
}

// --------------------------------------------------------------------------
// progress engine
// --------------------------------------------------------------------------

void Core::enter_progress() {
  ++progress_depth_;
  progress();
}

void Core::leave_progress() {
  NMX_ASSERT(progress_depth_ > 0);
  --progress_depth_;
}

void Core::progress() {
  drain_rx();
  try_flush();
}

void Core::enqueue(Entry e) {
  ++strat_depth_;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->instant(eng_.now(), my_proc_, obs::Cat::StratEnqueue, e.wire_bytes(),
                 static_cast<std::int64_t>(e.kind));
    rec->metrics().gauge("nmad.strategy.queue_depth").set(static_cast<double>(strat_depth_));
  }
  strategy_->enqueue(std::move(e));
  sample_sched();
}

void Core::sample_sched() {
  obs::Recorder* rec = eng_.recorder();
  if (rec == nullptr) return;
  const Time now = eng_.now();
  rec->sample(now, my_proc_, "nmad.strategy.queue_depth", static_cast<double>(strat_depth_));
  for (std::size_t r = 0; r < drivers_.size(); ++r) {
    const std::string rail_label = "rail=" + std::to_string(r);
    const auto backlog = static_cast<double>(strategy_->backlog_bytes(static_cast<int>(r)));
    rec->metrics().gauge("nmad.sched.backlog_bytes", rail_label).set(backlog);
    rec->metrics()
        .gauge("nmad.sched.steals", rail_label)
        .set(static_cast<double>(strategy_->steals(static_cast<int>(r))));
    rec->sample(now, my_proc_, "nmad.sched.backlog_bytes." + rail_label, backlog);
  }
  rec->metrics()
      .gauge("nmad.sched.rdv_backlog_bytes")
      .set(static_cast<double>(strategy_->rdv_backlog_bytes()));
}

void Core::kick() {
  if (progress_allowed()) {
    try_flush();
  } else {
    pending_flush_ = true;
    notify_async();
  }
}

void Core::try_flush() {
  pending_flush_ = false;
  for (std::size_t r = 0; r < drivers_.size(); ++r) {
    Driver& d = drivers_[r];
    while (!d.busy && !d.dead) {
      auto wm = strategy_->next(static_cast<int>(r), my_proc_);
      if (!wm) break;
      submit(static_cast<int>(r), std::move(*wm));
    }
  }
}

void Core::submit(int local_rail, WireMsg wm, bool nic_direct) {
  Driver& d = drivers_[static_cast<std::size_t>(local_rail)];
  NMX_ASSERT(!d.busy);
  d.busy = true;

  // Software cost before the NIC sees the packet: generic-layer injection,
  // eager copy into the packet wrapper, and on-the-fly registration of
  // rendezvous payload (NewMadeleine has no registration cache — §4.1.1).
  // NIC-offloaded collective packets never touch the host: they are charged
  // the firmware processing cost only.
  Time pre;
  if (nic_direct) {
    pre = kNicCollProc;
  } else {
    pre = cfg_.inject_overhead();
    pre += calib::copy_cost(wm.copied_bytes());
    const net::NicProfile& prof = fabric_.profile(d.fabric_rail);
    if (prof.needs_registration && wm.rdv_bytes() > 0) {
      pre += calib::ib_reg_cost(wm.rdv_bytes());
    }
  }

  std::vector<Note> notes;
  for (const Entry& e : wm.entries) {
    if (e.sreq != nullptr) {
      notes.push_back(Note{e.sreq, e.kind, e.payload_size(), e.epoch});
      ++e.sreq->inflight_notes;
    }
  }

  const int dst = wm.dst_proc;
  const std::size_t bytes = wm.wire_bytes();
  // Cost-model prediction of this packet's egress completion: software
  // pre-cost, then queueing behind whatever the NIC is already booked for,
  // then the sampled *egress* transfer model (alpha_tx — the one-way predict()
  // includes wire latency the sender never waits for). Compared against
  // reality at on_egress.
  d.tx_pred = std::max(eng_.now() + pre, fabric_.egress_busy_until(my_node_, d.fabric_rail)) +
              sampling_.predict_egress(local_rail, bytes);
  // NIC-direct packets bypass the strategy queue entirely; only host-path
  // submissions shrink its depth.
  if (!nic_direct) strat_depth_ -= std::min(strat_depth_, wm.entries.size());
  if (obs::Recorder* rec = eng_.recorder()) {
    d.tx_span = rec->begin(eng_.now(), my_proc_, obs::Cat::NmadTx, bytes, local_rail);
    d.tx_begin = eng_.now();
    rec->metrics().gauge("nmad.strategy.queue_depth").set(static_cast<double>(strat_depth_));
    const std::string rail_label = "rail=" + std::to_string(local_rail);
    rec->metrics().counter("nmad.rail.tx_packets", rail_label).add(1);
    rec->metrics().counter("nmad.rail.tx_bytes", rail_label).add(bytes);
  }
  eng_.schedule_in_checked(pre, [this, local_rail, dst, bytes, wm = std::move(wm),
                         notes = std::move(notes)]() mutable {
    net::WirePacket pkt;
    pkt.src_node = my_node_;
    pkt.dst_node = fabric_.topology().node_of(dst);
    pkt.dst_proc = dst;
    pkt.rail = drivers_[static_cast<std::size_t>(local_rail)].fabric_rail;
    pkt.bytes = bytes;
    pkt.payload = std::move(wm);
    const Time queued_from = std::max(eng_.now(), fabric_.egress_busy_until(my_node_, pkt.rail));
    const Time egress = fabric_.transmit(std::move(pkt));
    // Measured NIC occupancy (egress grant minus queueing) fed back into the
    // bandwidth model: silent rail degradation surfaces as a lower implied
    // beta, and the sampling layer re-learns it from this prediction error
    // instead of letting the stale probe poison every future split.
    // Exact-model runs observe beta exactly, so this is a no-op on a healthy
    // fabric.
    if (sampling_.observe_egress(local_rail, bytes, egress - queued_from)) {
      if (obs::Recorder* rec = eng_.recorder()) {
        rec->metrics()
            .counter("nmad.sched.beta_relearned", "rail=" + std::to_string(local_rail))
            .add(1);
      }
    }
    eng_.schedule_checked(egress, [this, local_rail, notes = std::move(notes)]() mutable {
      on_egress(local_rail, std::move(notes));
    });
  });
}

void Core::on_egress(int local_rail, std::vector<Note> notes) {
  Driver& d = drivers_[static_cast<std::size_t>(local_rail)];
  d.busy = false;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->end(eng_.now(), my_proc_, obs::Cat::NmadTx, d.tx_span, 0, local_rail);
    rec->metrics()
        .counter("nmad.rail.busy_ns", "rail=" + std::to_string(local_rail))
        .add(static_cast<std::uint64_t>((eng_.now() - d.tx_begin) * 1e9));
    // Cost-model accuracy: |predicted - actual| egress completion. With the
    // egress-fitted alpha_tx the wire-latency offset is gone; residual error
    // comes from cross-process NIC contention the predictor cannot see.
    rec->metrics()
        .histogram("nmad.sched.pred_error_us", {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500})
        .observe(std::abs(eng_.now() - d.tx_pred) * 1e6);
    d.tx_span = 0;
  }
  for (const Note& n : notes) {
    NMX_ASSERT(n.sreq->inflight_notes > 0);
    --n.sreq->inflight_notes;
    if (n.kind == Entry::Kind::Eager) {
      complete(*n.sreq);
    } else if (n.kind == Entry::Kind::RdvChunk) {
      if (n.epoch == n.sreq->epoch) {
        NMX_ASSERT(n.sreq->bytes_outstanding >= n.bytes);
        n.sreq->bytes_outstanding -= n.bytes;
      } else if (obs::Recorder* rec2 = eng_.recorder()) {
        // Chunk of a superseded grant epoch drained after a receiver restart:
        // the replay re-sends these bytes, so they must not count here.
        rec2->metrics().counter("nmad.rdv.stale_tx_notes").add(1);
      }
      // Retirement needs *three* things: every byte of the current epoch
      // drained, no note still in flight (a pending stale-epoch note would
      // otherwise fire after the request was released), and — the part
      // egress alone cannot prove — the receiver's completion ack
      // (fin_seen). Retiring on egress used to orphan restart re-grants
      // that were still racing toward us (nmad.rdv.orphan_cts).
      try_retire(n.sreq);
    }
  }
  sample_sched();
  drain_nic_txq();
  if (strategy_->pending()) kick();
}

void Core::notify_async() {
  if (async_notifier_) async_notifier_();
}

void Core::rts_retry(Request* req) {
  req->retry_timer = 0;
  if (req->cts_seen || req->completed) return;  // grant arrived; timer raced it
  obs::Recorder* rec = eng_.recorder();
  if (req->rts_retries >= kRdvRetryLimit) {
    // Out of retries: stop retransmitting but keep waiting. A CTS is only
    // ever sent once the receive is posted, so a slow consumer looks exactly
    // like a lost handshake from here — giving up would turn every slow
    // receiver into a hard failure. A genuinely lost handshake surfaces as a
    // deadlock (and in tests, a timeout), not an infinite retry loop.
    if (rec != nullptr) rec->metrics().counter("nmad.rdv.retry_exhausted").add(1);
    return;
  }
  ++req->rts_retries;
  if (rec != nullptr) {
    rec->metrics().counter("nmad.rdv.retries").add(1);
    rec->instant(eng_.now(), my_proc_, obs::Cat::RdvRts, req->len, req->peer);
  }
  // Retransmit under the *original* matching slot and rendezvous id: the
  // receiver either never saw the RTS (slots in normally) or recognises the
  // duplicate and re-grants (handle_dup_rts).
  Entry e;
  e.kind = Entry::Kind::Rts;
  e.dst_proc = req->peer;
  e.tag = req->tag;
  e.seq = req->rts_seq;
  e.rdv_id = req->rdv_id;
  e.rdv_total = req->len;
  e.retry = req->rts_retries;
  e.span = req->span;
  enqueue(std::move(e));
  // Exponential backoff so a receiver that is slow rather than faulted is
  // probed at timeout, 2x, 4x, ... instead of being flooded.
  const Time backoff = cfg_.rdv_retry_timeout *
                       static_cast<double>(1ull << std::min<std::uint32_t>(req->rts_retries, 20));
  req->retry_timer = eng_.schedule_in_checked(backoff, [this, req] { rts_retry(req); });
  kick();
}

// --------------------------------------------------------------------------
// receive path
// --------------------------------------------------------------------------

void Core::rx_wire(net::WirePacket&& pkt) {
  WireMsg& m = std::any_cast<WireMsg&>(pkt.payload);
  // NIC-offloaded collective control is consumed by the NIC unit itself: no
  // host matching, no deliver overhead, no progress gating — that autonomy
  // is the point of the Yu et al. offload. CollCtl always travels alone
  // (nic_coll_send builds single-entry packets).
  if (!m.entries.empty() && m.entries[0].kind == Entry::Kind::CollCtl) {
    for (const Entry& e : m.entries) {
      eng_.schedule_in_checked(kNicCollProc,
                               [this, id = e.rdv_id, value = e.coll_value, ctl = e.coll_ctl] {
                                 nic_coll_rx(id, value, ctl);
                               });
    }
    return;
  }
  pending_rx_.push_back(RxItem{pkt.rail, std::move(m)});
  if (progress_allowed()) {
    drain_rx();
  } else {
    notify_async();
  }
}

void Core::drain_rx() {
  while (!pending_rx_.empty()) {
    RxItem it = std::move(pending_rx_.front());
    pending_rx_.pop_front();
    // Charge the generic-layer receive cost (matching, completion dispatch,
    // PIOMan locking when enabled) per wire message.
    eng_.schedule_in_checked(cfg_.deliver_overhead(), [this, it = std::move(it)]() mutable {
      handle_wire(it.fabric_rail, std::move(it.msg));
    });
  }
}

void Core::handle_wire(int fabric_rail, WireMsg m) {
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->instant(eng_.now(), my_proc_, obs::Cat::NmadRx, m.wire_bytes(), m.src_proc);
    rec->metrics().counter("nmad.rx.msgs").add(1);
    rec->metrics().counter("nmad.rx.bytes").add(m.wire_bytes());
  }
  const int src = m.src_proc;
  for (Entry& e : m.entries) {
    // Fault-injection point: one roll per delivered *control* entry. Data
    // entries (Eager, RdvChunk) are never faulted — this protocol has no
    // payload ack/retransmit layer, so dropping them is unrecoverable by
    // design; the recoverable fault surface is the rendezvous control plane.
    if (cfg_.fault_plan != nullptr &&
        (e.kind == Entry::Kind::Rts || e.kind == Entry::Kind::Cts)) {
      const sim::FaultPlan::EntryDecision dec =
          cfg_.fault_plan->entry_action(static_cast<int>(e.kind), src, my_proc_, eng_.now());
      obs::Recorder* rec = eng_.recorder();
      const std::string kind_label = std::string("kind=") + Entry::kind_name(e.kind);
      if (dec.action == sim::EntryAction::Drop) {
        if (rec != nullptr) rec->metrics().counter("nmad.fault.dropped", kind_label).add(1);
        continue;
      }
      if (dec.action == sim::EntryAction::Duplicate) {
        if (rec != nullptr) rec->metrics().counter("nmad.fault.duplicated", kind_label).add(1);
        Entry twin = e;
        dispatch_entry(src, fabric_rail, std::move(twin));
        // fall through: the original lands right behind its twin
      } else if (dec.action == sim::EntryAction::Delay) {
        if (rec != nullptr) rec->metrics().counter("nmad.fault.delayed", kind_label).add(1);
        // Box the entry: a raw Entry capture (~150 bytes) would spill the
        // event slot's inline closure storage. One explicit allocation on
        // this cold fault path keeps the SmallFn-inline invariant intact.
        eng_.schedule_in_checked(
            dec.delay, [this, src, fabric_rail, de = std::make_unique<Entry>(std::move(e))] {
              dispatch_entry(src, fabric_rail, std::move(*de));
            });
        continue;
      }
    }
    dispatch_entry(src, fabric_rail, std::move(e));
  }
}

void Core::dispatch_entry(int src, int fabric_rail, Entry e) {
  switch (e.kind) {
    case Entry::Kind::Eager:
    case Entry::Kind::Rts:
      ingest_ordered(src, std::move(e), fabric_rail);
      break;
    case Entry::Kind::Cts:
      handle_cts(src, e);
      break;
    case Entry::Kind::RdvChunk:
      handle_rdv_data(src, fabric_rail, e);
      break;
    case Entry::Kind::RailDown:
      if (obs::Recorder* rec = eng_.recorder()) {
        rec->metrics().counter("nmad.fault.raildown_rx").add(1);
      }
      // Redundant in the simulator (every core sees the death synchronously
      // through the FaultPlan listener) but kept honest: this is the only
      // signal a real remote peer would have. Idempotent on arrival.
      handle_rail_down(e.down_rail, /*from_wire=*/true);
      break;
    case Entry::Kind::RdvFin:
      handle_rdv_fin(e);
      break;
    case Entry::Kind::CollCtl:
      // Normally peeled in rx_wire (the NIC unit handles these without host
      // progress); reaching the host dispatch path is harmless — hand it to
      // the same unit.
      nic_coll_rx(e.rdv_id, e.coll_value, e.coll_ctl);
      break;
  }
}

void Core::ingest_ordered(int src, Entry e, int fabric_rail) {
  GateState& g = gate(src);
  // Element references of an unordered_map survive rehashing, so `expected`
  // stays valid while ingest() re-enters the core through the hooks.
  std::uint32_t& expected = g.seq[e.tag].recv;
  if (e.seq != expected) {
    if (e.seq < expected) {
      // This matching slot was already consumed: a wire duplicate or a
      // sender retransmission. Eager entries are never faulted, so only an
      // Rts can get here — and it must never re-enter the matching stream
      // (that would double-deliver). Re-grant or drop instead.
      if (e.kind == Entry::Kind::Rts) handle_dup_rts(src, e);
      return;
    }
    // Arrived ahead of an in-flight predecessor (possible across rails);
    // stash until its turn to preserve MPI matching order. A duplicate of an
    // already-stashed seq is discarded by the emplace.
    const Tag tag = e.tag;
    const std::uint32_t seq = e.seq;
    g.out_of_order.emplace(std::make_pair(tag, seq), PendingIngest{std::move(e), src, fabric_rail});
    return;
  }
  ++expected;
  ingest(src, e, fabric_rail);
  // Drain any stashed successors that are now in order.
  for (;;) {
    auto it = g.out_of_order.find({e.tag, expected});
    if (it == g.out_of_order.end()) break;
    Entry next = std::move(it->second.entry);
    const int next_rail = it->second.fabric_rail;
    g.out_of_order.erase(it);
    ++expected;
    ingest(src, next, next_rail);
  }
}

void Core::ingest(int src, Entry& e, int fabric_rail) {
  const bool rdv = e.kind == Entry::Kind::Rts;
  // Landing link for the critical-path analyzer: last byte of this eager
  // entry is on the receiver, on `fabric_rail`, named by the sender's span.
  if (obs::Recorder* rec = eng_.recorder()) {
    if (!rdv && e.span != 0) {
      rec->link(eng_.now(), my_proc_, obs::Cat::WireLand, e.span, e.bytes.size(), fabric_rail);
    }
  }
  GateState& g = gate(src);
  auto it = std::find_if(g.posted.begin(), g.posted.end(),
                         [&e](const Request* r) { return r->tag == e.tag; });
  if (it != g.posted.end()) {
    Request* req = *it;
    g.posted.erase(it);
    if (rdv) {
      start_rdv_recv(src, req, e.rdv_id, e.rdv_total, e.span);
    } else {
      land_eager(*req, e.bytes, e.span);
    }
    return;
  }
  Unexpected u;
  u.tag = e.tag;
  u.arrival = arrival_counter_++;
  u.rdv = rdv;
  u.len = rdv ? e.rdv_total : e.bytes.size();
  u.rdv_id = e.rdv_id;
  u.span = e.span;
  u.payload = std::move(e.bytes);
  const std::size_t len = u.len;
  g.unexpected.push_back(std::move(u));
  ++unexpected_total_;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->instant(eng_.now(), my_proc_, obs::Cat::Unexpected, len, src);
    rec->metrics().gauge("nmad.unexpected.depth").set(static_cast<double>(unexpected_total_));
  }
  if (on_unexpected_) on_unexpected_(ProbeInfo{src, e.tag, len});
}

void Core::land_eager(Request& req, const std::vector<std::byte>& bytes, std::uint64_t span) {
  NMX_ASSERT_MSG(bytes.size() <= req.len, "eager message overflows receive buffer");
  if (!bytes.empty()) std::memcpy(req.rbuf, bytes.data(), bytes.size());
  req.received = bytes.size();
  req.peer_span = span;
  complete(req);
}

void Core::handle_dup_rts(int src, Entry& e) {
  obs::Recorder* rec = eng_.recorder();
  if (rec != nullptr) rec->metrics().counter("nmad.rdv.dup_rts").add(1);
  // A plain wire duplicate (retry == 0): the original was processed normally,
  // its CTS is queued or in flight. Nothing to do.
  if (e.retry == 0) return;
  // A sender retransmission: our grant was lost (or is still in flight). If
  // the rendezvous is still pending here, re-issue the CTS under the current
  // epoch — if the original grant survives after all, the sender recognises
  // the duplicate and ignores one of them. If it is not pending, either the
  // receive was never posted (the original RTS still sits in the unexpected
  // queue; the grant goes out when the recv posts) or the transfer already
  // finished (the retransmission crossed our grant + the data). Drop it.
  auto it = rdv_in_.find({src, e.rdv_id});
  if (it == rdv_in_.end()) return;
  if (rec != nullptr) rec->metrics().counter("nmad.rdv.regrants").add(1);
  send_cts(src, e.rdv_id, it->second.epoch, it->second.req->span);
}

void Core::decay_rx_mix(GateState& g) const {
  const Time now = eng_.now();
  if (now > g.rdv_rx_t && !g.rdv_rx_by_rail.empty()) {
    const double f = std::exp(-(now - g.rdv_rx_t) / kMixDecayTau);
    for (double& w : g.rdv_rx_by_rail) w *= f;
  }
  g.rdv_rx_t = now;
}

std::vector<RailAd> Core::sample_rail_ads(int granting_src, std::uint64_t granting_rdv) const {
  const Time now = eng_.now();
  std::vector<RailAd> ads(drivers_.size());
  for (std::size_t r = 0; r < drivers_.size(); ++r) {
    ads[r].fabric_rail = drivers_[r].fabric_rail;
    const Time busy = fabric_.ingress_busy_until(my_node_, drivers_[r].fabric_rail);
    ads[r].busy_delta = busy > now ? busy - now : 0;
  }
  // Granted-but-unlanded inbound rendezvous bytes, attributed to rails by
  // each peer's observed *recent* arrival mix: the per-rail landing mass
  // decays exponentially (kMixDecayTau), so the attribution follows the
  // current landing rate — a rail that went quiet (died, got congested, or
  // lost the sender's favor) stops attracting backlog instead of being
  // pinned by cumulative history. The beta-proportional prior only fills
  // whatever share of kMixPriorBytes the decayed observation has not earned
  // yet. The rendezvous being granted is excluded — its bytes are exactly
  // what the sender is about to plan.
  for (const auto& [key, rin] : rdv_in_) {
    if (key.first == granting_src && key.second == granting_rdv) continue;
    const std::size_t outstanding = rin.req != nullptr ? rin.req->bytes_outstanding : 0;
    if (outstanding == 0) continue;
    double beta_sum = 0.0;
    for (const auto& rp : sampling_.rails()) beta_sum += rp.beta;
    auto git = gates_.find(key.first);
    double obs_f = 0.0;  // decay factor at read time (state stays const here)
    double obs_total = 0.0;
    if (git != gates_.end() && !git->second.rdv_rx_by_rail.empty()) {
      obs_f = std::exp(-(now - git->second.rdv_rx_t) / kMixDecayTau);
      for (double w : git->second.rdv_rx_by_rail) obs_total += w * obs_f;
    }
    const double prior_mass =
        std::max(0.0, static_cast<double>(kMixPriorBytes) - obs_total);
    std::vector<double> weight(drivers_.size(), 0.0);
    double total_w = 0.0;
    for (std::size_t r = 0; r < drivers_.size(); ++r) {
      double w = prior_mass * sampling_.rails()[r].beta / beta_sum;
      if (git != gates_.end() && r < git->second.rdv_rx_by_rail.size()) {
        w += git->second.rdv_rx_by_rail[r] * obs_f;
      }
      weight[r] = w;
      total_w += w;
    }
    if (total_w <= 0.0) continue;
    for (std::size_t r = 0; r < drivers_.size(); ++r) {
      ads[r].backlog_bytes +=
          static_cast<std::uint64_t>(static_cast<double>(outstanding) * weight[r] / total_w);
    }
  }
  return ads;
}

void Core::start_rdv_recv(int src, Request* req, std::uint64_t rdv_id, std::size_t total,
                          std::uint64_t sender_span) {
  NMX_ASSERT_MSG(total <= req->len, "rendezvous message overflows receive buffer");
  req->received = total;  // final size; arrival tracked via rdv_in bytes
  req->peer_span = sender_span;
  rdv_in_.emplace(std::make_pair(src, rdv_id), RdvIn{req});
  req->bytes_outstanding = total;  // bytes not yet landed

  // Grant: register the receive buffer (on-the-fly, uncached) and send CTS.
  Time reg = 0;
  if (any_rail_needs_registration()) reg = calib::ib_reg_cost(total);
  auto grant = [this, src, rdv_id, span = req->span] { send_cts(src, rdv_id, 0, span); };
  if (reg > 0) {
    eng_.schedule_in_checked(reg, grant);
  } else {
    grant();
  }
}

void Core::send_cts(int dst, std::uint64_t rdv_id, std::uint32_t epoch, std::uint64_t span) {
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->instant(eng_.now(), my_proc_, obs::Cat::RdvCts, 0, dst);
  }
  Entry cts;
  cts.kind = Entry::Kind::Cts;
  cts.dst_proc = dst;
  cts.rdv_id = rdv_id;
  cts.epoch = epoch;
  cts.span = span;
  // Receiver-directed flow control: advertise this end's per-rail ingress
  // occupancy and granted backlog so the sender's cost model sees both
  // ends of each rail. Sampled at grant time — by the time the CTS lands
  // the deltas have decayed, which the sender accounts for by anchoring
  // them at its own "now".
  if (cfg_.advertise_rdv_load) cts.rail_ads = sample_rail_ads(dst, rdv_id);
  enqueue(std::move(cts));
  kick();
}

void Core::handle_cts(int src, Entry& cts) {
  const std::uint64_t rdv_id = cts.rdv_id;
  auto it = rdv_out_.find(rdv_id);
  if (it == rdv_out_.end()) {
    // An id below the allocation watermark names a rendezvous that existed
    // and was retired — a late grant (wire duplicate, or a restart re-grant
    // that crossed the final data chunks). Ignore it. An id we never issued
    // is a protocol bug, faults or not.
    NMX_ASSERT_MSG(rdv_id < next_rdv_, "CTS for unknown rendezvous");
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->metrics().counter("nmad.rdv.orphan_cts").add(1);
    }
    return;
  }
  Request* req = it->second;
  // The grant must come from the process the RTS was addressed to: rdv_ids
  // are sender-scoped, so a CTS echoing our id from anyone else is a
  // cross-wired grant — start sending and the data lands in the wrong
  // process's buffer. Fail loudly instead of trusting the id alone.
  NMX_ASSERT_MSG(src == req->peer,
                 "cross-wired CTS: grant from proc " + std::to_string(src) +
                     " for a rendezvous addressed to proc " + std::to_string(req->peer));

  if (req->cts_seen) {
    if (cts.epoch <= req->epoch) {
      // Same-epoch duplicate (wire fault, or a re-grant answering an RTS
      // retransmission that crossed the original grant): the data phase is
      // already running — queueing the payload twice would break the
      // exactly-once guarantee. Drop it.
      if (obs::Recorder* rec = eng_.recorder()) {
        rec->metrics().counter("nmad.rdv.dup_cts").add(1);
      }
      return;
    }
    // Newer epoch: the receiver restarted and lost its landing progress.
    // Drop every chunk still queued under the stale grant and replay the
    // data phase from byte 0; chunks already on a NIC drain and are
    // discarded at both ends via the epoch stamp.
    const std::size_t drained = strategy_->cancel_rdv(req->peer, rdv_id);
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->metrics().counter("nmad.rdv.restart_replays").add(1);
      rec->metrics().counter("nmad.sched.cancel_drained_bytes").add(drained);
    }
    req->epoch = cts.epoch;
    start_rdv_data(req, cts);
    return;
  }
  req->cts_seen = true;
  req->epoch = cts.epoch;
  if (req->retry_timer != 0) {
    eng_.cancel(req->retry_timer);
    req->retry_timer = 0;
  }

  // The CTS closes the sender-side handshake span begun at the RTS post.
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->end(eng_.now(), my_proc_, obs::Cat::NmadRdv, req->rdv_span, req->len, req->peer);
    req->rdv_span = 0;
    rec->metrics()
        .histogram("nmad.rdv.handshake_us", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000})
        .observe((eng_.now() - req->rdv_rts_t) * 1e6);
    if (!cts.rail_ads.empty()) {
      rec->metrics().counter("nmad.sched.cts_ads").add(1);
      for (const RailAd& ad : cts.rail_ads) {
        const std::string rail_label = "rail=" + std::to_string(ad.fabric_rail);
        const double busy_us = ad.busy_delta * 1e6;
        rec->metrics().gauge("nmad.sched.remote_busy_us", rail_label).set(busy_us);
        rec->metrics()
            .gauge("nmad.sched.remote_backlog_bytes", rail_label)
            .set(static_cast<double>(ad.backlog_bytes));
        rec->sample(eng_.now(), my_proc_, "nmad.sched.remote_busy_us." + rail_label, busy_us);
        rec->sample(eng_.now(), my_proc_, "nmad.sched.remote_backlog_bytes." + rail_label,
                    static_cast<double>(ad.backlog_bytes));
      }
    }
  }

  start_rdv_data(req, cts);
}

void Core::start_rdv_data(Request* req, Entry& cts) {
  req->bytes_outstanding = req->len;
  // A restart replay supersedes any (impossible in practice, see
  // handle_rdv_fin) earlier ack: the new epoch must earn its own fin.
  req->fin_seen = false;

  // Cost-model strategies carve the payload into chunks themselves, re-solving
  // the split per chunk as rails drain; hand them the whole payload unplanned,
  // along with the receiver's load advertisement so each re-solve folds in the
  // far end of every rail.
  if (strategy_->plans_rdv_chunks()) {
    Entry e;
    e.kind = Entry::Kind::RdvChunk;
    e.dst_proc = req->peer;
    e.rdv_id = req->rdv_id;
    e.offset = 0;
    e.rail = -1;  // unplanned
    e.epoch = req->epoch;
    e.chunk = {req->sbuf, req->len};
    e.sreq = req;
    e.span = req->span;
    if (cfg_.advertise_rdv_load) e.rail_ads = std::move(cts.rail_ads);
    enqueue(std::move(e));
    kick();
    return;
  }

  // Plan the data chunks across rails (adaptive split for SplitBalance).
  const std::vector<std::size_t> shares = strategy_->plan_rdv(req->len);
  std::size_t offset = 0;
  for (std::size_t r = 0; r < shares.size(); ++r) {
    if (shares[r] == 0) continue;
    Entry e;
    e.kind = Entry::Kind::RdvChunk;
    e.dst_proc = req->peer;
    e.rdv_id = req->rdv_id;
    e.offset = offset;
    e.rail = static_cast<int>(r);
    e.epoch = req->epoch;
    e.chunk = {req->sbuf + offset, shares[r]};
    e.sreq = req;
    e.span = req->span;
    offset += shares[r];
    enqueue(std::move(e));
  }
  NMX_ASSERT(offset == req->len);
  kick();
}

void Core::handle_rdv_data(int src, int fabric_rail, Entry& e) {
  auto it = rdv_in_.find({src, e.rdv_id});
  if (it == rdv_in_.end() || e.epoch != it->second.epoch) {
    // A chunk answering a superseded grant (we restarted and re-granted
    // under a newer epoch), or one that landed after the replayed transfer
    // already finished. Only reachable under fault injection — on a healthy
    // run this is a protocol bug and stays a hard failure.
    NMX_ASSERT_MSG(cfg_.fault_plan != nullptr, "rendezvous data without matching grant");
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->metrics().counter("nmad.rdv.stale_chunks").add(1);
    }
    return;
  }
  Request* req = it->second.req;
  // Feed the per-peer arrival mix that attributes granted-but-unlanded bytes
  // to rails in future CTS load advertisements. Decay-then-add keeps the mix
  // a landing-*rate* observation, not a cumulative history.
  GateState& g = gate(src);
  if (g.rdv_rx_by_rail.size() < drivers_.size()) g.rdv_rx_by_rail.resize(drivers_.size(), 0.0);
  decay_rx_mix(g);
  const int lr = local_rail_of(fabric_rail);
  if (lr >= 0) {
    g.rdv_rx_by_rail[static_cast<std::size_t>(lr)] += static_cast<double>(e.chunk.size());
  }
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->instant(eng_.now(), my_proc_, obs::Cat::RdvData, e.chunk.size(),
                 static_cast<std::int64_t>(e.span));
    if (e.span != 0) {
      rec->link(eng_.now(), my_proc_, obs::Cat::WireLand, e.span, e.chunk.size(), fabric_rail);
    }
    // Close the two-ended prediction loop: the sender stamped its predicted
    // arrival on the chunk; the receiver measures the miss at landing.
    if (e.pred_arrival > 0) {
      rec->metrics()
          .histogram("nmad.sched.remote_pred_error_us",
                     {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500})
          .observe(std::abs(eng_.now() - e.pred_arrival) * 1e6);
    }
  }
  NMX_ASSERT(e.offset + e.chunk.size() <= req->len);
  // The one host copy of a rendezvous byte: straight out of the sender's
  // buffer (see Entry::chunk for why the view is still valid here).
  if (!e.chunk.empty()) std::memcpy(req->rbuf + e.offset, e.chunk.data(), e.chunk.size());
  NMX_ASSERT(req->bytes_outstanding >= e.chunk.size());
  req->bytes_outstanding -= e.chunk.size();
  if (req->bytes_outstanding == 0) {
    // Completion ack before the grant state goes away: the sender's
    // retirement is gated on this fin, so a restart re-grant can never race
    // an already-retired rendezvous (the orphan window).
    send_rdv_fin(src, e.rdv_id, req->received, it->second.epoch, req->span);
    rdv_in_.erase(it);
    complete(*req);
  }
}

void Core::send_rdv_fin(int dst, std::uint64_t rdv_id, std::size_t landed, std::uint32_t epoch,
                        std::uint64_t span) {
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->metrics().counter("nmad.rdv.fin_tx").add(1);
  }
  Entry fin;
  fin.kind = Entry::Kind::RdvFin;
  fin.dst_proc = dst;
  fin.rdv_id = rdv_id;
  fin.rdv_total = landed;  // the landed-byte ack (charged in kRdvFinHeader)
  fin.epoch = epoch;
  fin.span = span;
  enqueue(std::move(fin));
  kick();
}

void Core::handle_rdv_fin(Entry& e) {
  auto it = rdv_out_.find(e.rdv_id);
  if (it == rdv_out_.end()) {
    // Fins are never faulted, so a fin for a retired rendezvous should be
    // unreachable; tolerate it defensively (a duplicate would otherwise
    // crash the sender) but surface it.
    NMX_ASSERT_MSG(e.rdv_id < next_rdv_, "completion ack for unknown rendezvous");
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->metrics().counter("nmad.rdv.stale_fins").add(1);
    }
    return;
  }
  Request* req = it->second;
  if (e.epoch != req->epoch) {
    // Ack of a superseded grant epoch. Cannot normally happen — a completed
    // grant is erased before a restart could re-grant it — but a fin that
    // crossed a newer re-grant must not retire the replayed transfer.
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->metrics().counter("nmad.rdv.stale_fins").add(1);
    }
    return;
  }
  NMX_ASSERT_MSG(e.rdv_total == req->len, "completion ack does not cover the full payload");
  req->fin_seen = true;
  try_retire(req);
}

void Core::try_retire(Request* req) {
  if (!req->fin_seen || req->bytes_outstanding != 0 || req->inflight_notes != 0) return;
  // Every planned chunk must be gone from the strategy before the rendezvous
  // is retired — anything still queued here would leak into the per-rail
  // backlog accounting forever. Drain defensively and surface the leak
  // instead of silently corrupting the cost model.
  const std::size_t leaked = strategy_->cancel_rdv(req->peer, req->rdv_id);
  if (leaked > 0) {
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->metrics().counter("nmad.sched.cancel_drained_bytes").add(leaked);
    }
  }
  rdv_out_.erase(req->rdv_id);
  complete(*req);
}

void Core::handle_rail_down(int fabric_rail, bool from_wire) {
  const int lr = local_rail_of(fabric_rail);
  if (lr < 0) return;  // this core does not drive the dead rail
  Driver& d = drivers_[static_cast<std::size_t>(lr)];
  if (d.dead) return;  // idempotent: local NIC report, then peer notifications
  d.dead = true;
  obs::Recorder* rec = eng_.recorder();
  if (rec != nullptr) {
    rec->metrics().counter("nmad.fault.rail_down", "rail=" + std::to_string(lr)).add(1);
  }

  // Displace everything queued on the dead rail and re-route it onto the
  // survivors: small entries re-enter the strategy unassigned (pick_rail now
  // excludes the dead rail), pre-planned rendezvous chunks are re-split
  // across the live rails.
  std::vector<Entry> displaced = strategy_->on_rail_down(lr);
  std::size_t rerouted_bytes = 0;
  for (Entry& e : displaced) {
    rerouted_bytes += e.wire_bytes();
    if (e.kind == Entry::Kind::RdvChunk) {
      const std::vector<std::size_t> shares = strategy_->plan_rdv(e.chunk.size());
      std::size_t off = 0;
      for (std::size_t r = 0; r < shares.size(); ++r) {
        if (shares[r] == 0) continue;
        Entry part;
        part.kind = Entry::Kind::RdvChunk;
        part.dst_proc = e.dst_proc;
        part.rdv_id = e.rdv_id;
        part.offset = e.offset + off;
        part.rail = static_cast<int>(r);
        part.epoch = e.epoch;
        part.sreq = e.sreq;
        part.span = e.span;
        part.chunk = e.chunk.subspan(off, shares[r]);
        off += shares[r];
        enqueue(std::move(part));
      }
      NMX_ASSERT(off == e.chunk.size());
    } else {
      enqueue(std::move(e));
    }
  }
  if (rec != nullptr && !displaced.empty()) {
    rec->metrics().counter("nmad.fault.rerouted_entries").add(displaced.size());
    rec->metrics().counter("nmad.fault.rerouted_bytes").add(rerouted_bytes);
  }

  // Notify the senders of our pending inbound rendezvous — they may have
  // chunks planned toward this rail. Redundant in the simulator (every core
  // observes the death synchronously through the FaultPlan) but kept honest:
  // the wire notification is the only signal a real remote peer would get.
  if (!from_wire) {
    std::set<int> peers;  // ordered: deterministic notification order
    for (const auto& [key, rin] : rdv_in_) peers.insert(key.first);
    for (int p : peers) {
      Entry e;
      e.kind = Entry::Kind::RailDown;
      e.dst_proc = p;
      e.down_rail = fabric_rail;
      enqueue(std::move(e));
    }
  }
  kick();
}

void Core::on_restart() {
  // Crash/restart of this process's receive side: all landing progress for
  // pending inbound rendezvous is lost. Bump each grant's epoch — in-flight
  // chunks of the old grant are discarded on arrival — reset the byte
  // bookkeeping to "nothing landed", and re-grant so the sender replays.
  obs::Recorder* rec = eng_.recorder();
  if (rec != nullptr) rec->metrics().counter("nmad.fault.restarts").add(1);
  for (auto& [key, rin] : rdv_in_) {
    ++rin.epoch;
    rin.req->bytes_outstanding = rin.req->received;  // the full total again
    if (rec != nullptr) rec->metrics().counter("nmad.rdv.restart_grants").add(1);
    send_cts(key.first, key.second, rin.epoch, rin.req->span);
  }
  // The observed per-peer arrival mix is landing-progress state too.
  // nmx-lint: allow(determinism) per-peer reset to identical fresh values; order cannot leak
  for (auto& [peer, g] : gates_) {
    g.rdv_rx_by_rail.clear();
    g.rdv_rx_t = eng_.now();
  }
  kick();
}

// --------------------------------------------------------------------------
// NIC-offloaded collectives (Yu/Buntinas/Graham/Panda model)
// --------------------------------------------------------------------------

namespace {
/// Combine op encoding shared with mpi::Transport::nic_coll: 0 sum, 1 prod,
/// 2 min, 3 max, 4 broadcast (the root's value wins; contributions gate only).
double nic_combine(int op, double a, double b) {
  switch (op) {
    case 1: return a * b;
    case 2: return std::min(a, b);
    case 3: return std::max(a, b);
    case 4: return a;  // broadcast: the locally posted value is kept
    default: return a + b;
  }
}
}  // namespace

void Core::nic_coll_post(std::uint64_t coll_id, int parent, std::vector<int> children,
                         double value, int op, std::function<void(double)> done) {
  NicColl& st = nic_colls_[coll_id];
  NMX_ASSERT_MSG(!st.posted, "NIC collective posted twice under one id");
  st.parent = parent;
  st.children = std::move(children);
  st.posted = true;
  st.op = op;
  st.done = std::move(done);
  // The local contribution is folded first so op 4 (broadcast) keeps it.
  st.acc = st.has_acc ? nic_combine(op, value, st.acc) : value;
  st.has_acc = true;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->metrics().counter("nmad.coll.nic_posts").add(1);
  }
  nic_coll_maybe_up(coll_id, st);
}

void Core::nic_coll_rx(std::uint64_t id, double value, std::uint32_t ctl) {
  if ((ctl & Entry::kCollDown) != 0) {
    nic_coll_release(id, value);
    return;
  }
  NicColl& st = nic_colls_[id];
  const int op = static_cast<int>(ctl & Entry::kCollOpMask);
  st.op = op;  // arrivals may precede the local post; the ctl word carries op
  // Child contributions fold in as the second operand so op 4 keeps the
  // locally posted value regardless of arrival order.
  st.acc = st.has_acc ? nic_combine(op, st.acc, value) : value;
  st.has_acc = true;
  ++st.arrived;
  nic_coll_maybe_up(id, st);
}

void Core::nic_coll_maybe_up(std::uint64_t id, NicColl& st) {
  if (!st.posted || st.arrived < st.children.size()) return;
  if (st.parent >= 0) {
    nic_coll_send(st.parent, id, st.acc, static_cast<std::uint32_t>(st.op));
    return;  // state stays: the broadcast-down releases us
  }
  nic_coll_release(id, st.acc);
}

void Core::nic_coll_release(std::uint64_t id, double result) {
  auto it = nic_colls_.find(id);
  NMX_ASSERT_MSG(it != nic_colls_.end() && it->second.posted,
                 "NIC collective released without a local post");
  const std::uint32_t ctl = static_cast<std::uint32_t>(it->second.op) | Entry::kCollDown;
  for (int c : it->second.children) nic_coll_send(c, id, result, ctl);
  std::function<void(double)> done = std::move(it->second.done);
  nic_colls_.erase(it);
  if (done) done(result);
}

void Core::nic_coll_send(int dst, std::uint64_t id, double value, std::uint32_t ctl) {
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->metrics().counter("nmad.coll.nic_msgs").add(1);
  }
  if (fabric_.topology().node_of(dst) == my_node_) {
    // Co-located ranks share the node's NICs: the combine step between them
    // is NIC-internal — no wire, no egress occupancy. Delivered through the
    // router straight into the peer's NIC unit.
    WireMsg wm;
    wm.src_proc = my_proc_;
    wm.dst_proc = dst;
    Entry e;
    e.kind = Entry::Kind::CollCtl;
    e.dst_proc = dst;
    e.rdv_id = id;
    e.coll_value = value;
    e.coll_ctl = ctl;
    wm.entries.push_back(std::move(e));
    net::WirePacket pkt;
    pkt.src_node = my_node_;
    pkt.dst_node = my_node_;
    pkt.dst_proc = dst;
    pkt.rail = drivers_[0].fabric_rail;
    pkt.bytes = wm.wire_bytes();
    pkt.payload = std::move(wm);
    eng_.schedule_in_checked(kNicCollLoopback,
                             [this, bp = std::make_unique<net::WirePacket>(std::move(pkt))] {
                               router_.deliver_local(std::move(*bp));
                             });
    return;
  }
  Entry e;
  e.kind = Entry::Kind::CollCtl;
  e.dst_proc = dst;
  e.rdv_id = id;
  e.coll_value = value;
  e.coll_ctl = ctl;
  nic_txq_.push_back(std::move(e));
  drain_nic_txq();
}

void Core::drain_nic_txq() {
  while (!nic_txq_.empty()) {
    const std::size_t bytes = nic_txq_.front().wire_bytes();
    // Cost-model rail choice for the tree edge: earliest predicted egress
    // completion among live rails — queueing behind whatever the shared NIC
    // is already booked for, then the sampled egress transfer model. A dead
    // rail is skipped; a congested one loses the argmin.
    int best = -1;
    Time best_t = 0;
    for (std::size_t r = 0; r < drivers_.size(); ++r) {
      const Driver& d = drivers_[r];
      if (d.dead) continue;
      const Time t =
          std::max(eng_.now(), fabric_.egress_busy_until(my_node_, d.fabric_rail)) +
          sampling_.predict_egress(static_cast<int>(r), bytes);
      if (best < 0 || t < best_t) {
        best = static_cast<int>(r);
        best_t = t;
      }
    }
    NMX_ASSERT_MSG(best >= 0, "NIC collective with every rail dead");
    if (drivers_[static_cast<std::size_t>(best)].busy) return;  // its egress re-drains
    Entry e = std::move(nic_txq_.front());
    nic_txq_.pop_front();
    WireMsg wm;
    wm.src_proc = my_proc_;
    wm.dst_proc = e.dst_proc;
    wm.entries.push_back(std::move(e));
    submit(best, std::move(wm), /*nic_direct=*/true);
  }
}

void Core::complete(Request& r) {
  NMX_ASSERT_MSG(!r.completed, "request completed twice");
  r.completed = true;
  if (on_complete_) on_complete_(r);
}

}  // namespace nmx::nmad
