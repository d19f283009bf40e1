#include "nmad/strategy.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.hpp"

namespace nmx::nmad {

namespace {

/// Rendezvous data is a view of the sender's buffer (Entry::chunk). A chunk
/// that still carries its payload in `bytes` comes from a copy path and would
/// go out empty, so fail loudly instead.
void assert_rdv_view(const Entry& e) {
  NMX_ASSERT_MSG(e.kind != Entry::Kind::RdvChunk || e.bytes.empty(),
                 "RdvChunk payload must be a view (Entry::chunk), not a copy");
}

/// Common machinery: per-(rail, destination) FIFOs with round-robin
/// destination selection per rail, and per-rail queued-byte accounting. Only
/// non-empty FIFOs are kept, so a (rail, destination) entry lives exactly as
/// long as it has traffic queued.
class QueuedStrategy : public Strategy {
 public:
  QueuedStrategy(const Sampling& sampling, StrategyOptions opts, bool aggregate)
      : sampling_(sampling),
        opts_(opts),
        live_(sampling.num_rails(), true),
        aggregate_(aggregate),
        rr_cursor_(sampling.num_rails(), 0),
        backlog_(sampling.num_rails(), 0) {}

  void enqueue(Entry e) override {
    assert_rdv_view(e);
    if (e.kind != Entry::Kind::RdvChunk) e.rail = pick_rail(e);
    backlog_[static_cast<std::size_t>(e.rail)] += e.wire_bytes();
    auto& q = queues_[{e.rail, e.dst_proc}];
    q.push_back(std::move(e));
    ++pending_;
  }

  std::optional<WireMsg> next(int rail, int src_proc) override {
    if (!rail_live(rail)) return std::nullopt;
    // Round-robin across destinations that have traffic on this rail: the
    // first one at or after the cursor, wrapping to the rail's first.
    int& cursor = rr_cursor_[static_cast<std::size_t>(rail)];
    auto on_rail = [&](auto it) { return it != queues_.end() && it->first.first == rail; };
    auto pick = queues_.lower_bound({rail, cursor});
    if (!on_rail(pick)) pick = queues_.lower_bound({rail, std::numeric_limits<int>::min()});
    if (!on_rail(pick)) return std::nullopt;

    std::deque<Entry>& q = pick->second;
    auto& backlog = backlog_[static_cast<std::size_t>(rail)];
    WireMsg wm;
    wm.src_proc = src_proc;
    wm.dst_proc = pick->first.second;
    // Debit the backlog before moving the entry out — wire_bytes() counts the
    // payload, which the move empties.
    auto take_front = [&] {
      backlog -= std::min(backlog, q.front().wire_bytes());
      wm.entries.push_back(std::move(q.front()));
      q.pop_front();
      --pending_;
    };
    // Rendezvous data always travels alone (zero-copy DMA of user memory).
    if (q.front().kind == Entry::Kind::RdvChunk) {
      take_front();
    } else {
      std::size_t packed_bytes = 0;
      do {
        packed_bytes += q.front().bytes.size();
        take_front();
      } while (aggregate_ && !q.empty() && q.front().kind != Entry::Kind::RdvChunk &&
               packed_bytes + q.front().bytes.size() <= opts_.max_aggregate);
    }
    cursor = pick->first.second + 1;  // resume after this destination
    if (q.empty()) queues_.erase(pick);
    return wm;
  }

  bool pending() const override { return pending_ > 0; }

  std::size_t backlog_bytes(int rail) const override {
    return backlog_.at(static_cast<std::size_t>(rail));
  }

  std::size_t cancel_rdv(int dst, std::uint64_t rdv_id) override {
    std::size_t dropped = 0;
    for (auto qit = queues_.begin(); qit != queues_.end();) {
      auto& [key, q] = *qit;
      if (key.second != dst) {
        ++qit;
        continue;
      }
      auto& backlog = backlog_[static_cast<std::size_t>(key.first)];
      for (auto it = q.begin(); it != q.end();) {
        if (it->kind == Entry::Kind::RdvChunk && it->rdv_id == rdv_id) {
          backlog -= std::min(backlog, it->wire_bytes());
          dropped += it->chunk.size();
          it = q.erase(it);
          --pending_;
        } else {
          ++it;
        }
      }
      qit = q.empty() ? queues_.erase(qit) : std::next(qit);
    }
    return dropped;
  }

  std::vector<Entry> on_rail_down(int rail) override {
    NMX_ASSERT(rail >= 0 && static_cast<std::size_t>(rail) < live_.size());
    live_[static_cast<std::size_t>(rail)] = false;
    std::vector<Entry> displaced;
    auto& backlog = backlog_[static_cast<std::size_t>(rail)];
    auto it = queues_.lower_bound({rail, std::numeric_limits<int>::min()});
    while (it != queues_.end() && it->first.first == rail) {
      for (Entry& e : it->second) {
        backlog -= std::min(backlog, e.wire_bytes());
        --pending_;
        displaced.push_back(std::move(e));
      }
      it = queues_.erase(it);
    }
    return displaced;
  }

 protected:
  /// Rail a non-rendezvous entry is queued on. The paper's default: "choose
  /// the fastest network for small messages" (§4.1.1) — restricted to live
  /// rails once a rail has failed.
  virtual int pick_rail(const Entry& /*e*/) { return sampling_.fastest_live(live_); }

  bool rail_live(int rail) const {
    return rail >= 0 && static_cast<std::size_t>(rail) < live_.size() &&
           live_[static_cast<std::size_t>(rail)];
  }
  bool all_rails_live() const {
    return std::all_of(live_.begin(), live_.end(), [](bool b) { return b; });
  }

  const Sampling& sampling_;
  StrategyOptions opts_;
  std::vector<bool> live_;  ///< per local rail, cleared by on_rail_down

 private:
  bool aggregate_;
  // (rail, dst) -> non-empty FIFO. Ordered map so round-robin iteration is
  // stable.
  std::map<std::pair<int, int>, std::deque<Entry>> queues_;
  std::vector<int> rr_cursor_;  ///< per rail: next destination to serve
  std::size_t pending_ = 0;
  std::vector<std::size_t> backlog_;  ///< queued wire bytes per rail
};

/// Default and Aggreg: everything on the fastest live rail. They differ only
/// in whether small entries to one destination share a wire message.
class StratFastestRail final : public QueuedStrategy {
 public:
  StratFastestRail(const Sampling& s, StrategyOptions o, bool aggregate)
      : QueuedStrategy(s, o, aggregate) {}
  std::vector<std::size_t> plan_rdv(std::size_t len) const override {
    std::vector<std::size_t> shares(sampling_.num_rails(), 0);
    shares[static_cast<std::size_t>(sampling_.fastest_live(live_))] = len;
    return shares;
  }
};

class StratSplitBalance final : public QueuedStrategy {
 public:
  StratSplitBalance(const Sampling& s, StrategyOptions o)
      : QueuedStrategy(s, o, /*aggregate=*/true) {}
  std::vector<std::size_t> plan_rdv(std::size_t len) const override {
    if (!all_rails_live()) return sampling_.split_live(len, opts_.min_split_chunk, live_);
    if (!opts_.adaptive_split) return sampling_.split_even(len);
    return sampling_.split(len, opts_.min_split_chunk);
  }
};

/// Load-aware cost-model scheduler. Small entries are routed to the rail
/// with the earliest *predicted completion* (live NIC occupancy + queued
/// backlog + sampled alpha + len/beta), not blindly to the fastest rail.
/// Rendezvous payloads are held as jobs and carved into chunks on demand:
/// every time a rail asks for work the remaining bytes are re-split with the
/// current per-rail ready times, so rails that pick up contention mid-flight
/// shed their share to the others.
class StratCostModel final : public QueuedStrategy {
 public:
  StratCostModel(const Sampling& s, StrategyOptions o)
      : QueuedStrategy(s, o, /*aggregate=*/true), steals_(s.num_rails(), 0) {}

  bool plans_rdv_chunks() const override { return true; }

  void enqueue(Entry e) override {
    if (e.kind == Entry::Kind::RdvChunk && e.rail < 0) {
      assert_rdv_view(e);
      RdvJob job;
      job.dst = e.dst_proc;
      job.rdv_id = e.rdv_id;
      job.base = e.offset;
      job.span = e.span;
      job.sreq = e.sreq;
      job.epoch = e.epoch;
      job.bytes = e.chunk;
      // Receiver load advertised in the CTS grant: convert each rail's
      // (busy_delta, backlog) into an absolute "ingress free at" estimate.
      // The advertised backlog drains at the rail's bandwidth, so the whole
      // advert collapses into one time horizon that decays naturally as the
      // transfer proceeds — no per-chunk re-advertisement needed.
      if (!e.rail_ads.empty()) {
        const Time now = load(sampling_.num_rails()).now;
        job.remote_free_abs.assign(sampling_.num_rails(), now);
        for (std::size_t r = 0; r < sampling_.num_rails(); ++r) {
          for (const RailAd& ad : e.rail_ads) {
            if (ad.fabric_rail != sampling_.rails()[r].fabric_rail) continue;
            job.remote_free_abs[r] = now + ad.busy_delta +
                                     static_cast<double>(ad.backlog_bytes) /
                                         sampling_.rails()[r].beta;
            break;
          }
        }
      }
      rdv_backlog_ += job.bytes.size();
      jobs_.push_back(std::move(job));
      return;
    }
    QueuedStrategy::enqueue(std::move(e));
  }

  std::optional<WireMsg> next(int rail, int src_proc) override {
    if (!rail_live(rail)) return std::nullopt;
    // Latency-sensitive queued traffic first, then rendezvous bulk.
    if (auto wm = QueuedStrategy::next(rail, src_proc)) return wm;
    return next_rdv_chunk(rail, src_proc);
  }

  bool pending() const override { return QueuedStrategy::pending() || !jobs_.empty(); }

  std::vector<std::size_t> plan_rdv(std::size_t len) const override {
    return sampling_.split_with_ready(len, opts_.min_split_chunk, rail_ready().ready);
  }

  std::size_t rdv_backlog_bytes() const override { return rdv_backlog_; }
  std::uint64_t steals(int rail) const override {
    return steals_.at(static_cast<std::size_t>(rail));
  }

  std::size_t cancel_rdv(int dst, std::uint64_t rdv_id) override {
    std::size_t dropped = QueuedStrategy::cancel_rdv(dst, rdv_id);
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      if (it->dst == dst && it->rdv_id == rdv_id) {
        const std::size_t rest = it->bytes.size() - it->consumed;
        rdv_backlog_ -= std::min(rdv_backlog_, rest);
        dropped += rest;
        it = jobs_.erase(it);
      } else {
        ++it;
      }
    }
    return dropped;
  }

 protected:
  int pick_rail(const Entry& e) override {
    const std::vector<Time> ready = rail_ready().ready;
    int best = -1;
    Time best_t = 0;
    for (std::size_t r = 0; r < ready.size(); ++r) {
      if (!rail_live(static_cast<int>(r))) continue;
      const Time t = sampling_.completion(static_cast<int>(r), e.wire_bytes(), ready[r]);
      if (best < 0 || t < best_t) {
        best_t = t;
        best = static_cast<int>(r);
      }
    }
    NMX_ASSERT_MSG(best >= 0, "no live rail left");
    if (best != sampling_.fastest()) ++steals_[static_cast<std::size_t>(best)];
    return best;
  }

 private:
  struct RdvJob {
    int dst = -1;
    std::uint64_t rdv_id = 0;
    std::size_t base = 0;      ///< offset of bytes[0] in the full message
    std::size_t consumed = 0;  ///< bytes already carved into chunks
    std::uint64_t span = 0;
    std::uint32_t epoch = 0;   ///< grant epoch stamped on every carved chunk
    Request* sreq = nullptr;
    std::span<const std::byte> bytes;  ///< view of the sender's buffer (Entry::chunk)
    /// Per local rail: absolute time the *receiver's* ingress is estimated
    /// free, from the CTS load advert (empty = no advert, one-ended model).
    std::vector<Time> remote_free_abs;
  };

  struct ReadyState {
    Time now = 0;
    std::vector<Time> ready;  ///< earliest start per rail, relative to now
  };

  /// Earliest start time per rail, relative to now: live NIC occupancy from
  /// the probe plus the transfer time of wire bytes already queued here.
  ReadyState rail_ready() const {
    const RailLoad l = load(sampling_.num_rails());
    ReadyState rs;
    rs.now = l.now;
    rs.ready.assign(sampling_.num_rails(), 0.0);
    for (std::size_t r = 0; r < rs.ready.size(); ++r) {
      if (!rail_live(static_cast<int>(r))) {
        // Dead rail: infinitely backlogged, so every solve prunes it (same
        // convention as Sampling::split_live).
        rs.ready[r] = 1e30;
        continue;
      }
      rs.ready[r] = std::max(0.0, l.busy_until[r] - l.now) +
                    static_cast<double>(backlog_bytes(static_cast<int>(r))) /
                        sampling_.rails()[r].beta;
    }
    return rs;
  }

  /// Receiver-side ready times for `job`, relative to `now`. Decays to zero
  /// as the advertised horizon passes.
  std::vector<Time> remote_ready(const RdvJob& job, Time now) const {
    std::vector<Time> remote(sampling_.num_rails(), 0.0);
    for (std::size_t r = 0; r < job.remote_free_abs.size() && r < remote.size(); ++r) {
      remote[r] = std::max(0.0, job.remote_free_abs[r] - now);
    }
    return remote;
  }

  std::optional<WireMsg> next_rdv_chunk(int rail, int src_proc) {
    const ReadyState rs = rail_ready();
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      RdvJob& job = *it;
      const std::size_t remaining = job.bytes.size() - job.consumed;
      // Two-ended re-solve: the receiver's advertised ingress availability is
      // folded in element-wise with the local egress view, so a rail whose
      // far end is hammered sheds its share even when it looks idle here.
      const std::vector<Time> remote = remote_ready(job, rs.now);
      const std::vector<std::size_t> shares =
          sampling_.split_two_ended(remaining, opts_.min_split_chunk, rs.ready, remote);
      std::size_t take = shares[static_cast<std::size_t>(rail)];
      if (take == 0) continue;  // this rail is not worth using for this job now
      if (opts_.rdv_quantum > 0) take = std::min(take, opts_.rdv_quantum);

      Entry e;
      e.kind = Entry::Kind::RdvChunk;
      e.dst_proc = job.dst;
      e.rdv_id = job.rdv_id;
      e.offset = job.base + job.consumed;
      e.rail = rail;
      e.span = job.span;
      e.epoch = job.epoch;
      e.sreq = job.sreq;
      // Two-ended arrival estimate for this chunk, checked by the receiver
      // against the actual landing time (nmad.sched.remote_pred_error_us).
      e.pred_arrival =
          rs.now +
          std::max(rs.ready[static_cast<std::size_t>(rail)],
                   remote[static_cast<std::size_t>(rail)]) +
          sampling_.predict(rail, take + Entry::kRdvChunkHeader);
      e.chunk = job.bytes.subspan(job.consumed, take);
      job.consumed += take;
      rdv_backlog_ -= take;
      if (job.consumed == job.bytes.size()) jobs_.erase(it);

      WireMsg wm;
      wm.src_proc = src_proc;
      wm.dst_proc = e.dst_proc;
      wm.entries.push_back(std::move(e));
      return wm;
    }
    return std::nullopt;
  }

  std::deque<RdvJob> jobs_;
  std::size_t rdv_backlog_ = 0;
  std::vector<std::uint64_t> steals_;
};

}  // namespace

std::unique_ptr<Strategy> make_strategy(StrategyKind kind, const Sampling& sampling,
                                        const StrategyOptions& opts) {
  switch (kind) {
    case StrategyKind::Default:
      return std::make_unique<StratFastestRail>(sampling, opts, /*aggregate=*/false);
    case StrategyKind::Aggreg:
      return std::make_unique<StratFastestRail>(sampling, opts, /*aggregate=*/true);
    case StrategyKind::SplitBalance: return std::make_unique<StratSplitBalance>(sampling, opts);
    case StrategyKind::CostModel: return std::make_unique<StratCostModel>(sampling, opts);
  }
  NMX_FAIL("unknown strategy kind");
}

}  // namespace nmx::nmad
