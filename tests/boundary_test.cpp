// Boundary and fuzz tests: protocol-threshold edges (eager/rendezvous
// switches, cell sizes) and randomized strategy/channel sweeps asserting
// no message is lost, duplicated or reordered.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mpi/cluster.hpp"
#include "nmad/strategy.hpp"
#include "sim/rng.hpp"

namespace nmx {
namespace {

// ---------------------------------------------------------------------------
// Threshold boundaries: one byte below / at / above every protocol switch.
// ---------------------------------------------------------------------------

class ThresholdEdge : public ::testing::TestWithParam<std::tuple<mpi::StackKind, std::size_t>> {};

TEST_P(ThresholdEdge, BytesSurviveTheProtocolSwitch) {
  const auto [stack, size] = GetParam();
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;  // exercises the shm path boundaries too
  cfg.stack = stack;
  if (stack == mpi::StackKind::OpenMpiBtlMx || stack == mpi::StackKind::OpenMpiCmMx) {
    cfg.rails = {net::mx_profile()};
  }
  mpi::Cluster cluster(cfg);
  std::vector<std::byte> msg(std::max<std::size_t>(size, 1));
  for (std::size_t i = 0; i < size; ++i) msg[i] = static_cast<std::byte>((i * 131) & 0xff);
  cluster.run([&](mpi::Comm& c) {
    // ring: rank r sends to r+1 (mix of shm and network hops)
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() - 1 + c.size()) % c.size();
    std::vector<std::byte> in(std::max<std::size_t>(size, 1));
    auto st = c.sendrecv(msg.data(), size, right, 5, in.data(), size, left, 5);
    EXPECT_EQ(st.count, size);
    for (std::size_t i = 0; i < size; ++i) ASSERT_EQ(in[i], msg[i]) << size << " @" << i;
  });
}

std::vector<std::tuple<mpi::StackKind, std::size_t>> edge_cases() {
  // Every protocol boundary in the system, plus-or-minus one byte:
  // nmad rdv 64K, CH3 shm rdv 64K, Nemesis cell 8K, MVAPICH eager 8K,
  // OMPI eager 12K / send-protocol max 256K / frag sizes 32K & 128K,
  // CM-MX eager 32K (the MX stacks run on an MX rail).
  std::vector<std::size_t> sizes;
  for (std::size_t base : {std::size_t{8} << 10, std::size_t{12} << 10, std::size_t{32} << 10,
                           std::size_t{64} << 10, std::size_t{128} << 10, std::size_t{256} << 10}) {
    sizes.push_back(base - 1);
    sizes.push_back(base);
    sizes.push_back(base + 1);
  }
  sizes.push_back(0);
  std::vector<std::tuple<mpi::StackKind, std::size_t>> cases;
  for (auto stack : {mpi::StackKind::Mpich2Nmad, mpi::StackKind::Mvapich2,
                     mpi::StackKind::OpenMpiBtlIb, mpi::StackKind::OpenMpiBtlMx,
                     mpi::StackKind::OpenMpiCmMx}) {
    for (std::size_t s : sizes) cases.emplace_back(stack, s);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Edges, ThresholdEdge, ::testing::ValuesIn(edge_cases()),
                         [](const auto& info) {
                           std::string s = mpi::to_string(std::get<0>(info.param));
                           std::erase(s, '-');
                           return s + "_" + std::to_string(std::get<1>(info.param));
                         });

// ---------------------------------------------------------------------------
// Sampling::split / split_with_ready boundaries: the solver must conserve
// bytes and stay finite at every degenerate corner.
// ---------------------------------------------------------------------------

TEST(SplitBoundary, LenBelowMinChunkGoesEntirelyToTheFastestRail) {
  nmad::Sampling s({nmad::RailPerf{0, 2e-6, 1e9}, nmad::RailPerf{1, 1e-6, 2e9}});
  const auto shares = s.split(100, 16384);
  EXPECT_EQ(shares[1], 100u);  // rail 1 has the lower alpha
  EXPECT_EQ(shares[0], 0u);
}

TEST(SplitBoundary, ZeroLenYieldsZeroShares) {
  nmad::Sampling s({nmad::RailPerf{0, 1e-6, 1e9}, nmad::RailPerf{1, 2e-6, 1e9}});
  for (std::size_t share : s.split(0, 16384)) EXPECT_EQ(share, 0u);
}

TEST(SplitBoundary, SingleRailTakesEverything) {
  nmad::Sampling s({nmad::RailPerf{0, 1e-6, 1e9}});
  EXPECT_EQ(s.split(1 << 20, 16384)[0], std::size_t{1} << 20);
  EXPECT_EQ(s.split(1, 16384)[0], 1u);
}

TEST(SplitBoundary, AllButOneShareDroppedRebalancesRemainder) {
  // len just above min_chunk over three rails: no multi-rail allocation can
  // give every rail min_chunk, so the solver must prune down to one rail and
  // still hand out exactly len bytes.
  nmad::Sampling s({nmad::RailPerf{0, 1e-6, 1e9}, nmad::RailPerf{1, 1e-6, 1e9},
                    nmad::RailPerf{2, 1e-6, 1e9}});
  const std::size_t len = 16384 + 1;
  const auto shares = s.split(len, 16384);
  std::size_t sum = 0;
  int used = 0;
  for (std::size_t share : shares) {
    sum += share;
    if (share > 0) ++used;
  }
  EXPECT_EQ(sum, len);
  EXPECT_EQ(used, 1);
}

TEST(SplitBoundary, ExtremeAlphaAsymmetryDropsTheSlowStarter) {
  // Rail 1's alpha alone exceeds the whole transfer time on rail 0: its
  // equal-finish share is negative, which must prune it (not underflow).
  nmad::Sampling s({nmad::RailPerf{0, 1e-6, 1e9}, nmad::RailPerf{1, 1.0, 1e9}});
  const auto shares = s.split(1 << 20, 1024);
  EXPECT_EQ(shares[0], std::size_t{1} << 20);
  EXPECT_EQ(shares[1], 0u);
}

TEST(SplitBoundary, ExtremeBetaAsymmetryConservesBytes) {
  nmad::Sampling s({nmad::RailPerf{0, 1e-6, 1e12}, nmad::RailPerf{1, 1e-6, 1.0}});
  const auto shares = s.split((1 << 20) + 7, 1024);
  EXPECT_EQ(shares[0] + shares[1], (std::size_t{1} << 20) + 7);
  EXPECT_EQ(shares[1], 0u);  // 1 B/s rail is never worth a chunk
}

TEST(SplitBoundary, ReadyTimesExcludeABusyRail) {
  nmad::Sampling s({nmad::RailPerf{0, 1e-6, 1e9}, nmad::RailPerf{1, 1e-6, 1e9}});
  // Rail 0 cannot start for a full second — everything goes to rail 1.
  const auto shares = s.split_with_ready(1 << 20, 16384, {1.0, 0.0});
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[1], std::size_t{1} << 20);
}

TEST(SplitBoundary, ZeroReadyMatchesTheIdleSplit) {
  nmad::Sampling s({nmad::RailPerf{0, 1e-6, 2e9}, nmad::RailPerf{1, 2e-6, 1e9}});
  for (std::size_t len : {std::size_t{1} << 18, std::size_t{3} << 20}) {
    EXPECT_EQ(s.split_with_ready(len, 16384, {0.0, 0.0}), s.split(len, 16384)) << len;
  }
}

TEST(SplitBoundary, UnsplittablePayloadChasesEarliestCompletionNotLowestAlpha) {
  nmad::Sampling s({nmad::RailPerf{0, 1e-6, 1e9}, nmad::RailPerf{1, 2e-6, 1e9}});
  // Too small to split; the fastest rail is busy, so the load-aware variant
  // must pick rail 1 while the idle split keeps rail 0.
  EXPECT_EQ(s.split(1000, 16384)[0], 1000u);
  const auto shares = s.split_with_ready(1000, 16384, {5e-4, 0.0});
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[1], 1000u);
}

TEST(SplitBoundary, RandomReadyTimesAlwaysConserveBytes) {
  sim::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nrails = 1 + rng.below(4);
    std::vector<nmad::RailPerf> perfs;
    for (std::size_t r = 0; r < nrails; ++r) {
      perfs.push_back(nmad::RailPerf{static_cast<int>(r), rng.uniform(0.5e-6, 300e-6),
                                     rng.uniform(1e6, 2e9)});
    }
    nmad::Sampling s(perfs);
    std::vector<Time> ready;
    for (std::size_t r = 0; r < nrails; ++r) ready.push_back(rng.uniform(0.0, 1e-2));
    const std::size_t len = 1 + rng.below(1u << 24);
    const auto shares = s.split_with_ready(len, 1 + rng.below(65536), ready);
    std::size_t sum = 0;
    for (std::size_t share : shares) sum += share;
    ASSERT_EQ(sum, len) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Strategy fuzz: random entries in, drained over random rails — every entry
// must come out exactly once, with per-(dst, tag) sequence order preserved
// and the aggregation byte cap respected.
// ---------------------------------------------------------------------------

class StrategyFuzz
    : public ::testing::TestWithParam<std::tuple<nmad::StrategyKind, std::uint64_t>> {};

TEST_P(StrategyFuzz, NoLossNoDuplicationNoReorder) {
  const auto [kind, seed] = GetParam();
  nmad::Sampling sampling({nmad::RailPerf{0, 1e-6, 1e9}, nmad::RailPerf{1, 2e-6, 5e8}});
  nmad::StrategyOptions opts;
  opts.max_aggregate = 2048;
  auto strat = nmad::make_strategy(kind, sampling, opts);

  sim::Xoshiro256 rng(seed);
  struct Key {
    int dst;
    nmad::Tag tag;
    bool operator<(const Key& o) const { return std::tie(dst, tag) < std::tie(o.dst, o.tag); }
  };
  std::map<Key, std::uint32_t> next_seq;
  std::set<std::pair<int, std::uint32_t>> injected;  // (dst, global id)
  int id = 0;

  for (int i = 0; i < 200; ++i) {
    nmad::Entry e;
    e.kind = nmad::Entry::Kind::Eager;
    e.dst_proc = static_cast<int>(rng.below(4));
    e.tag = rng.below(3);
    e.seq = next_seq[{e.dst_proc, e.tag}]++;
    e.bytes.resize(16 + rng.below(1000));
    injected.insert({e.dst_proc, (static_cast<std::uint32_t>(e.dst_proc) << 16) |
                                     static_cast<std::uint32_t>(id++)});
    strat->enqueue(std::move(e));
  }

  std::map<Key, std::uint32_t> seen_seq;
  std::size_t drained = 0;
  while (strat->pending()) {
    const int rail = static_cast<int>(rng.below(2));
    auto wm = strat->next(rail, /*src=*/0);
    if (!wm) continue;
    std::size_t packed = 0;
    for (const nmad::Entry& e : wm->entries) {
      EXPECT_EQ(e.dst_proc, wm->dst_proc);  // one destination per packet
      // per-(dst, tag) sequence order never regresses
      auto& next = seen_seq[{e.dst_proc, e.tag}];
      EXPECT_EQ(e.seq, next) << "reorder within (dst, tag)";
      ++next;
      packed += e.bytes.size();
      ++drained;
    }
    if (wm->entries.size() > 1) {
      EXPECT_LE(packed, opts.max_aggregate);  // cap respected when aggregating
    }
  }
  EXPECT_EQ(drained, 200u);  // everything out exactly once
  EXPECT_FALSE(strat->next(0, 0).has_value());
  EXPECT_FALSE(strat->next(1, 0).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, StrategyFuzz,
    ::testing::Combine(::testing::Values(nmad::StrategyKind::Default, nmad::StrategyKind::Aggreg,
                                         nmad::StrategyKind::SplitBalance),
                       ::testing::Values(1, 7, 42)),
    [](const auto& info) {
      const char* k = std::get<0>(info.param) == nmad::StrategyKind::Default  ? "default"
                      : std::get<0>(info.param) == nmad::StrategyKind::Aggreg ? "aggreg"
                                                                              : "split";
      return std::string(k) + "_s" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Random-size message storm through one pair, mixed tags, both directions.
// ---------------------------------------------------------------------------

TEST(SizeFuzz, MixedSizesBothDirections) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  mpi::Cluster cluster(cfg);
  sim::Xoshiro256 rng(99);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 30; ++i) sizes.push_back(rng.below(300000));
  cluster.run([&](mpi::Comm& c) {
    const int peer = 1 - c.rank();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::vector<std::byte> out(std::max<std::size_t>(sizes[i], 1));
      std::vector<std::byte> in(std::max<std::size_t>(sizes[i], 1));
      for (std::size_t k = 0; k < sizes[i]; ++k) {
        out[k] = static_cast<std::byte>((k + i) & 0xff);
      }
      auto st = c.sendrecv(out.data(), sizes[i], peer, static_cast<int>(i % 5), in.data(),
                           sizes[i], peer, static_cast<int>(i % 5));
      ASSERT_EQ(st.count, sizes[i]);
      for (std::size_t k = 0; k < sizes[i]; k += 257) {
        ASSERT_EQ(in[k], static_cast<std::byte>((k + i) & 0xff));
      }
    }
  });
}

}  // namespace
}  // namespace nmx
