// Randomized property tests over every scheduling strategy: for seeded random
// entry streams and rail profiles, a strategy must conserve bytes, emit every
// entry exactly once, keep per-(rail, dst, tag) sequence order, plan
// rendezvous shares that sum to the payload, and never stall while work is
// pending.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "mpi/cluster.hpp"
#include "nmad/strategy.hpp"
#include "sim/rng.hpp"

namespace nmx {
namespace {

class StrategyProperty
    : public ::testing::TestWithParam<std::tuple<nmad::StrategyKind, std::uint64_t>> {};

TEST_P(StrategyProperty, ConservesEntriesBytesAndOrderWithoutStarving) {
  const auto [kind, seed] = GetParam();
  sim::Xoshiro256 rng(seed);

  const std::size_t nrails = 1 + rng.below(3);
  std::vector<nmad::RailPerf> perfs;
  for (std::size_t r = 0; r < nrails; ++r) {
    nmad::RailPerf p;
    p.fabric_rail = static_cast<int>(r);
    p.alpha = (0.5 + static_cast<double>(rng.below(50)) / 10.0) * 1e-6;
    p.beta = 1e8 * static_cast<double>(1 + rng.below(20));
    perfs.push_back(p);
  }
  nmad::Sampling sampling(perfs);

  nmad::StrategyOptions opts;
  opts.max_aggregate = 1024 + rng.below(4096);
  opts.min_split_chunk = 1_KiB;
  opts.rdv_quantum = 4_KiB;
  auto strat = nmad::make_strategy(kind, sampling, opts);

  // Deterministic load probe, stable within one drain sweep (refreshed
  // between sweeps below) so load-aware strategies see changing but
  // consistent per-rail occupancy.
  double now = 0.0;
  std::vector<Time> busy(nrails, 0.0);
  strat->set_load_probe([&] {
    nmad::RailLoad l;
    l.now = now;
    l.busy_until = busy;
    return l;
  });
  auto shuffle_load = [&] {
    now += 1e-5;
    for (std::size_t r = 0; r < nrails; ++r) {
      busy[r] = now + static_cast<double>(rng.below(200)) * 1e-6;
    }
  };
  shuffle_load();

  // Rendezvous plans always cover the payload exactly.
  for (int i = 0; i < 20; ++i) {
    const std::size_t len = 1 + rng.below(1u << 22);
    const std::vector<std::size_t> shares = strat->plan_rdv(len);
    ASSERT_EQ(shares.size(), nrails);
    std::size_t sum = 0;
    for (std::size_t s : shares) sum += s;
    EXPECT_EQ(sum, len) << "plan_rdv shares must sum to len=" << len;
    shuffle_load();
  }

  // Inject a random eager stream...
  constexpr int kEager = 200;
  struct Key {
    int dst;
    nmad::Tag tag;
    bool operator<(const Key& o) const { return std::tie(dst, tag) < std::tie(o.dst, o.tag); }
  };
  std::map<Key, std::uint32_t> next_seq;
  std::size_t eager_bytes_in = 0;
  for (int i = 0; i < kEager; ++i) {
    nmad::Entry e;
    e.kind = nmad::Entry::Kind::Eager;
    e.dst_proc = static_cast<int>(rng.below(4));
    e.tag = rng.below(3);
    e.seq = next_seq[{e.dst_proc, e.tag}]++;
    e.bytes.resize(1 + rng.below(2000));
    eager_bytes_in += e.bytes.size();
    strat->enqueue(std::move(e));
  }

  // ...plus rendezvous payloads with recognizable contents. Chunk-planning
  // strategies get the whole payload unplanned (rail = -1, as the core
  // does); static planners get pre-split chunks from their own plan.
  struct Rdv {
    std::size_t len;
    std::vector<std::pair<std::size_t, std::size_t>> out;  ///< (offset, len) seen
  };
  std::map<std::uint64_t, Rdv> rdvs;
  // Sender buffers, alive for the whole drain: chunks are views into them.
  std::map<std::uint64_t, std::vector<std::byte>> payloads;
  auto pattern = [](std::uint64_t id, std::size_t off) {
    return static_cast<std::byte>((id * 131 + off) & 0xff);
  };
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const std::size_t len = 64_KiB + rng.below(1u << 20);
    rdvs[id].len = len;
    std::vector<std::byte>& payload = payloads[id];
    payload.resize(len);
    for (std::size_t i = 0; i < len; ++i) payload[i] = pattern(id, i);
    if (strat->plans_rdv_chunks()) {
      nmad::Entry e;
      e.kind = nmad::Entry::Kind::RdvChunk;
      e.dst_proc = static_cast<int>(rng.below(4));
      e.rdv_id = id;
      e.offset = 0;
      e.rail = -1;
      e.chunk = payload;
      strat->enqueue(std::move(e));
    } else {
      const std::vector<std::size_t> shares = strat->plan_rdv(len);
      const int dst = static_cast<int>(rng.below(4));
      std::size_t off = 0;
      for (std::size_t r = 0; r < shares.size(); ++r) {
        if (shares[r] == 0) continue;
        nmad::Entry e;
        e.kind = nmad::Entry::Kind::RdvChunk;
        e.dst_proc = dst;
        e.rdv_id = id;
        e.offset = off;
        e.rail = static_cast<int>(r);
        e.chunk = std::span<const std::byte>(payload).subspan(off, shares[r]);
        off += shares[r];
        strat->enqueue(std::move(e));
      }
      ASSERT_EQ(off, len);
    }
  }

  // Drain: a full sweep over every rail must make progress while anything is
  // pending (no rail starves, the stream never stalls).
  std::map<std::tuple<int, int, nmad::Tag>, std::uint32_t> rail_seq;  // (rail, dst, tag)
  std::size_t eager_out = 0;
  std::size_t eager_bytes_out = 0;
  while (strat->pending()) {
    bool progress = false;
    for (std::size_t r = 0; r < nrails; ++r) {
      while (auto wm = strat->next(static_cast<int>(r), /*src=*/0)) {
        progress = true;
        std::size_t packed = 0;
        for (const nmad::Entry& e : wm->entries) {
          EXPECT_EQ(e.dst_proc, wm->dst_proc);
          if (e.kind == nmad::Entry::Kind::Eager) {
            // Within one rail, a (dst, tag) stream keeps its order; the
            // receiver's sequence gate handles cross-rail interleaving.
            auto it = rail_seq.find({static_cast<int>(r), e.dst_proc, e.tag});
            if (it != rail_seq.end()) {
              EXPECT_GT(e.seq, it->second) << "reorder within (rail, dst, tag)";
            }
            rail_seq[{static_cast<int>(r), e.dst_proc, e.tag}] = e.seq;
            ++eager_out;
            eager_bytes_out += e.bytes.size();
            packed += e.bytes.size();
          } else {
            ASSERT_EQ(e.kind, nmad::Entry::Kind::RdvChunk);
            ASSERT_TRUE(rdvs.count(e.rdv_id));
            EXPECT_GT(e.chunk.size(), 0u);
            // Zero-copy: the chunk views the sender's buffer at its offset.
            // A copying strategy would still pass the pattern check below.
            EXPECT_EQ(e.chunk.data(), payloads[e.rdv_id].data() + e.offset) << "chunk was copied";
            for (std::size_t i = 0; i < e.chunk.size(); i += 97) {
              ASSERT_EQ(e.chunk[i], pattern(e.rdv_id, e.offset + i)) << "payload corrupted";
            }
            rdvs[e.rdv_id].out.emplace_back(e.offset, e.chunk.size());
          }
        }
        if (wm->entries.size() > 1) {
          EXPECT_LE(packed, opts.max_aggregate);
        }
      }
    }
    ASSERT_TRUE(progress) << "strategy stalled with pending entries";
    shuffle_load();
  }

  // Exactly-once, byte-conserving delivery.
  EXPECT_EQ(eager_out, static_cast<std::size_t>(kEager));
  EXPECT_EQ(eager_bytes_out, eager_bytes_in);
  for (auto& [id, rdv] : rdvs) {
    std::sort(rdv.out.begin(), rdv.out.end());
    std::size_t cursor = 0;
    for (const auto& [off, len] : rdv.out) {
      EXPECT_EQ(off, cursor) << "gap or overlap in rendezvous " << id;
      cursor = off + len;
    }
    EXPECT_EQ(cursor, rdv.len) << "rendezvous " << id << " bytes lost";
  }

  // Accounting drains to zero with the queues.
  for (std::size_t r = 0; r < nrails; ++r) {
    EXPECT_EQ(strat->backlog_bytes(static_cast<int>(r)), 0u);
    EXPECT_FALSE(strat->next(static_cast<int>(r), 0).has_value());
  }
  EXPECT_EQ(strat->rdv_backlog_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Props, StrategyProperty,
    ::testing::Combine(::testing::Values(nmad::StrategyKind::Default, nmad::StrategyKind::Aggreg,
                                         nmad::StrategyKind::SplitBalance,
                                         nmad::StrategyKind::CostModel),
                       ::testing::Values(1, 7, 42, 12345)),
    [](const auto& info) {
      const char* k = std::get<0>(info.param) == nmad::StrategyKind::Default  ? "default"
                      : std::get<0>(info.param) == nmad::StrategyKind::Aggreg ? "aggreg"
                      : std::get<0>(info.param) == nmad::StrategyKind::SplitBalance
                          ? "split"
                          : "costmodel";
      return std::string(k) + "_s" + std::to_string(std::get<1>(info.param));
    });

// The cost model predicts *egress* completion (when the sending NIC releases
// the buffer), so its alpha must be the egress-fitted alpha_tx, not the
// one-way alpha that includes wire latency. With the one-way alpha every
// prediction carried a systematic ~1.1us (IB wire latency) offset; with
// alpha_tx the mean |error| on an uncongested workload must sit well below
// that — residual error is only cross-process NIC contention.
TEST(CostModelPrediction, EgressFittedAlphaRemovesWireLatencyOffset) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;
  cfg.rails = {net::ib_profile()};
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.strategy = nmad::StrategyKind::CostModel;
  cfg.pioman = true;
  cfg.trace = true;

  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    const int peer = c.rank() < c.size() / 2 ? c.rank() + c.size() / 2 : c.rank() - c.size() / 2;
    sim::Xoshiro256 rng(99 + static_cast<std::uint64_t>(c.rank() < peer ? c.rank() : peer));
    for (int i = 0; i < 20; ++i) {
      const std::size_t size = 1 + rng.below(128_KiB);
      std::vector<std::byte> out(size), in(size);
      c.sendrecv(out.data(), size, peer, i, in.data(), size, peer, i);
    }
    c.barrier();
  });

  const obs::Recorder* rec = cluster.recorder();
  ASSERT_NE(rec, nullptr);
  const obs::Histogram* h = rec->metrics().find_histogram("nmad.sched.pred_error_us");
  ASSERT_NE(h, nullptr);
  ASSERT_GT(h->count(), 0u);
  const double mean_us = h->sum() / static_cast<double>(h->count());
  // Old estimator: mean |error| ~= kIbWireLatency = 1.1us. Demand < 0.5us.
  EXPECT_LT(mean_us, 0.5) << "pred_error mean " << mean_us
                          << "us — wire-latency offset is back in the estimator";
}

// Skewed-rail landing: rank 0 floods the receiver with rendezvous traffic
// pinned to rail 0 only, while rank 1 (the sender under measurement) drives
// both rails with the cost model. The receiver's CTS advertisements
// attribute the granted-but-unlanded backlog to rails by the *observed*
// decayed landing rate — so the interferer's bytes are charged to rail 0,
// where they actually land, and rank 1's per-chunk arrival predictions stay
// honest. The old beta-proportional pseudo-byte prior (a fixed 256 KiB that
// never faded against sustained one-rail traffic) spread that backlog 50/50
// across the equal rails, and the resulting phantom rail-1 queue put a
// systematic multi-chunk-drain offset into every prediction.
TEST(RemotePrediction, SkewedRailLandingKeepsBacklogAttributionHonest) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;  // ranks 0,1 on node 0; ranks 2,3 on node 1
  cfg.rails = {net::ib_profile(), net::ib_profile()};  // equal betas: the
  // prior's 50/50 split is maximally wrong against a 100/0 landing skew
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.strategy = nmad::StrategyKind::CostModel;
  cfg.trace = true;
  cfg.rank_rails[0] = {0};  // the interferer drives rail 0 only
  cfg.rdv_quantum = 256_KiB;  // small chunks: prediction errors are measured
  // at chunk grain, so a misattributed backlog shows up many times per round

  constexpr int kRounds = 10;
  constexpr std::size_t kMsg = 2_MiB;
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0 || c.rank() == 1) {
      std::vector<std::byte> buf(kMsg);
      for (int i = 0; i < kRounds; ++i) {
        c.send(buf.data(), kMsg, 2, c.rank() * 100 + i);
      }
    } else if (c.rank() == 2) {
      // Both streams in flight at once: the interferer's outstanding bytes
      // sit granted-but-unlanded exactly when rank 1's grants sample the
      // rail advertisements.
      std::vector<std::byte> a(kMsg), b(kMsg);
      for (int i = 0; i < kRounds; ++i) {
        auto ra = c.irecv(a.data(), kMsg, 0, i);
        auto rb = c.irecv(b.data(), kMsg, 1, 100 + i);
        c.wait(ra);
        c.wait(rb);
      }
    }
    c.barrier();
  });

  const obs::Recorder* rec = cluster.recorder();
  ASSERT_NE(rec, nullptr);
  const obs::Histogram* h = rec->metrics().find_histogram("nmad.sched.remote_pred_error_us");
  ASSERT_NE(h, nullptr);
  ASSERT_GT(h->count(), 0u);
  const double mean_us = h->sum() / static_cast<double>(h->count());
  // With honest landing-rate attribution the mean |error| on this workload
  // sits near 200us — the irreducible part is the interferer's chunks landing
  // *after* the grant sampled the ads. A systematic misattribution (the stuck
  // prior charging half the rail-0 backlog to rail 1) adds a phantom
  // queue-drain offset on every rail-1 chunk, which lifts the mean well past
  // this ceiling. Non-regression pin at ~2x the observed value.
  EXPECT_LT(mean_us, 400.0) << "remote_pred_error mean " << mean_us
                          << "us — backlog attribution no longer follows the landing rate";
}

// Two-ended scenario: two equal rails, but the receiver advertises (via the
// CTS rail_ads riding the unplanned-job hand-off) that rail 0's ingress is
// booked far beyond the whole transfer. A one-ended solve would split the
// payload roughly evenly; the two-ended solve must shed rail 0 entirely and
// push every byte through the receiver-quiet rail — while still conserving
// bytes exactly once with a contiguous cover.
TEST(TwoEndedSplit, ReceiverSaturatedRailShedsItsShare) {
  std::vector<nmad::RailPerf> perfs(2);
  for (int r = 0; r < 2; ++r) {
    perfs[static_cast<std::size_t>(r)].fabric_rail = r;
    perfs[static_cast<std::size_t>(r)].alpha = 2e-6;
    perfs[static_cast<std::size_t>(r)].beta = 1e9;
  }
  nmad::Sampling sampling(perfs);
  nmad::StrategyOptions opts;
  opts.min_split_chunk = 1_KiB;
  opts.rdv_quantum = 4_KiB;

  auto drain = [&](const std::vector<nmad::RailAd>& ads, std::size_t len,
                   std::vector<std::size_t>& per_rail) {
    auto strat = nmad::make_strategy(nmad::StrategyKind::CostModel, sampling, opts);
    const std::vector<std::byte> payload(len);
    nmad::Entry e;
    e.kind = nmad::Entry::Kind::RdvChunk;
    e.dst_proc = 1;
    e.rdv_id = 7;
    e.offset = 0;
    e.rail = -1;  // unplanned: the strategy carves chunks itself
    e.rail_ads = ads;
    e.chunk = payload;
    strat->enqueue(std::move(e));
    EXPECT_EQ(strat->rdv_backlog_bytes(), len);

    per_rail.assign(2, 0);
    std::vector<std::pair<std::size_t, std::size_t>> cover;
    while (strat->pending()) {
      bool progress = false;
      // One chunk per rail per sweep — the core asks for the next wire
      // message as each NIC frees, so rails alternate instead of one rail
      // monopolizing the carve loop.
      for (int r = 0; r < 2; ++r) {
        if (auto wm = strat->next(r, /*src=*/0)) {
          progress = true;
          for (const nmad::Entry& c : wm->entries) {
            ASSERT_EQ(c.kind, nmad::Entry::Kind::RdvChunk);
            EXPECT_EQ(c.chunk.data(), payload.data() + c.offset) << "chunk was copied";
            per_rail[static_cast<std::size_t>(r)] += c.chunk.size();
            cover.emplace_back(c.offset, c.chunk.size());
          }
        }
      }
      ASSERT_TRUE(progress) << "two-ended solve stalled with bytes pending";
    }
    // Exactly-once, contiguous, byte-conserving.
    std::sort(cover.begin(), cover.end());
    std::size_t cursor = 0;
    for (const auto& [off, n] : cover) {
      EXPECT_EQ(off, cursor) << "gap or overlap in the carved chunks";
      cursor = off + n;
    }
    EXPECT_EQ(cursor, len);
    EXPECT_EQ(strat->rdv_backlog_bytes(), 0u);
  };

  constexpr std::size_t kLen = 256_KiB;
  // Baseline: no advertisement — equal rails share the payload.
  std::vector<std::size_t> even;
  drain({}, kLen, even);
  EXPECT_GT(even[0], 0u) << "one-ended split should use both equal rails";
  EXPECT_GT(even[1], 0u);

  // Rail 0's far end booked for a full second (orders of magnitude beyond the
  // ~260us transfer): every byte must shift to the receiver-quiet rail 1.
  std::vector<std::size_t> shed;
  drain({nmad::RailAd{/*fabric_rail=*/0, /*busy_delta=*/1.0, /*backlog_bytes=*/0}}, kLen, shed);
  EXPECT_EQ(shed[0], 0u) << "receiver-saturated rail still carried payload";
  EXPECT_EQ(shed[1], kLen);

  // Same outcome when the saturation is expressed as backlog instead of a
  // busy horizon (1 GiB queued at 1e9 B/s ~= 1.07s of drain time).
  std::vector<std::size_t> shed2;
  drain({nmad::RailAd{0, 0.0, 1u << 30}}, kLen, shed2);
  EXPECT_EQ(shed2[0], 0u);
  EXPECT_EQ(shed2[1], kLen);
}

// cancel_rdv accounting (bugfix b): abandoning a rendezvous mid-drain must
// drop the held job *and* any already-planned chunks, returning the backlog
// to zero — phantom bytes here would permanently skew the cost model's view
// of the rail. Unrelated traffic must survive the cancel untouched.
TEST(CancelRdv, DrainsHeldJobAndPlannedChunksToZeroBacklog) {
  std::vector<nmad::RailPerf> perfs(2);
  for (int r = 0; r < 2; ++r) {
    perfs[static_cast<std::size_t>(r)].fabric_rail = r;
    perfs[static_cast<std::size_t>(r)].alpha = 2e-6;
    perfs[static_cast<std::size_t>(r)].beta = 1e9;
  }
  nmad::Sampling sampling(perfs);
  nmad::StrategyOptions opts;
  opts.min_split_chunk = 1_KiB;
  opts.rdv_quantum = 4_KiB;

  {  // CostModel: unplanned job, partially carved, then cancelled.
    auto strat = nmad::make_strategy(nmad::StrategyKind::CostModel, sampling, opts);
    constexpr std::size_t kLen = 64_KiB;
    const std::vector<std::byte> payload(kLen);
    nmad::Entry e;
    e.kind = nmad::Entry::Kind::RdvChunk;
    e.dst_proc = 1;
    e.rdv_id = 9;
    e.offset = 0;
    e.rail = -1;
    e.chunk = payload;
    strat->enqueue(std::move(e));

    const auto wm = strat->next(0, /*src=*/0);  // carve one chunk first
    ASSERT_TRUE(wm.has_value());
    const std::size_t carved = wm->entries.front().chunk.size();
    EXPECT_EQ(wm->entries.front().chunk.data(), payload.data());
    ASSERT_GT(carved, 0u);
    ASSERT_LT(carved, kLen);
    EXPECT_EQ(strat->rdv_backlog_bytes(), kLen - carved);

    EXPECT_EQ(strat->cancel_rdv(/*dst=*/1, /*rdv_id=*/9), kLen - carved);
    EXPECT_EQ(strat->rdv_backlog_bytes(), 0u);
    EXPECT_FALSE(strat->pending());
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(strat->backlog_bytes(r), 0u);
      EXPECT_FALSE(strat->next(r, 0).has_value());
    }
    // Cancelling an unknown rendezvous is a no-op, not an accounting error.
    EXPECT_EQ(strat->cancel_rdv(1, 9), 0u);
  }

  {  // SplitBalance: pre-planned chunks sitting in the rail queues.
    auto strat = nmad::make_strategy(nmad::StrategyKind::SplitBalance, sampling, opts);
    constexpr std::size_t kLen = 128_KiB;
    const std::vector<std::byte> payload(kLen);
    const std::vector<std::size_t> shares = strat->plan_rdv(kLen);
    std::size_t off = 0;
    for (std::size_t r = 0; r < shares.size(); ++r) {
      if (shares[r] == 0) continue;
      nmad::Entry c;
      c.kind = nmad::Entry::Kind::RdvChunk;
      c.dst_proc = 2;
      c.rdv_id = 11;
      c.offset = off;
      c.rail = static_cast<int>(r);
      c.chunk = std::span<const std::byte>(payload).subspan(off, shares[r]);
      off += shares[r];
      strat->enqueue(std::move(c));
    }
    ASSERT_EQ(off, kLen);
    // An unrelated eager message to the same destination must survive.
    nmad::Entry keep;
    keep.kind = nmad::Entry::Kind::Eager;
    keep.dst_proc = 2;
    keep.tag = 3;
    keep.bytes.resize(256);
    strat->enqueue(std::move(keep));

    EXPECT_EQ(strat->cancel_rdv(/*dst=*/2, /*rdv_id=*/11), kLen);
    std::size_t eager_seen = 0;
    for (int r = 0; r < 2; ++r) {
      while (auto wm = strat->next(r, 0)) {
        for (const nmad::Entry& x : wm->entries) {
          EXPECT_NE(x.kind, nmad::Entry::Kind::RdvChunk) << "cancelled chunk still emitted";
          if (x.kind == nmad::Entry::Kind::Eager) ++eager_seen;
        }
      }
      EXPECT_EQ(strat->backlog_bytes(r), 0u);
    }
    EXPECT_EQ(eager_seen, 1u) << "cancel_rdv must not drop unrelated traffic";
    EXPECT_FALSE(strat->pending());
  }
}

}  // namespace
}  // namespace nmx
