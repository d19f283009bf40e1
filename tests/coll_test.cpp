// Collective-engine conformance: every collective (allreduce and alltoall
// under each algorithm; barrier, bcast, reduce, gather, scatter, allgather,
// alltoallv, scan and reduce_scatter_block, which have one algorithm each,
// alongside them) x a rank sweep (including non-powers-of-two) against
// closed-form oracles, on MPICH2-NMad and on the MVAPICH2 and Open MPI CM/MX
// baselines, and with one rank per node so that every message crosses a NIC;
// byte-identical same-seed determinism per algorithm; and a chaos leg driving
// an allreduce through a timed rail death.
//
// An algorithm that cannot serve a shape (recursive-doubling alltoall on a
// non-power-of-two group) demotes per the documented rule — conformance must
// hold regardless of which algorithm ends up running, so the sweep exercises
// the demotion too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "coll/coll.hpp"
#include "mpi/cluster.hpp"
#include "obs/export_chrome.hpp"
#include "obs/recorder.hpp"

namespace nmx {
namespace {

coll::Config every_op(coll::Algo a) {
  coll::Config c;
  c.allreduce = c.alltoall = a;
  return c;
}

mpi::ClusterConfig coll_cfg(int procs, coll::Algo a) {
  mpi::ClusterConfig cfg;
  cfg.nodes = std::max(2, procs / 4);
  cfg.procs = procs;
  cfg.rails = {net::ib_profile(), net::mx_profile()};
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.coll = every_op(a);
  return cfg;
}

// The cases of the conformance sweep and the determinism check: each
// algorithm selection on coll_cfg's placement (four ranks a node, so a
// collective mixes Nemesis shared memory with the NICs), and `nic`, the
// default selection with one rank per node, so every collective message
// crosses a NIC and nmad's multirail strategy.
enum class Case : std::uint8_t { Auto, Binomial, Kary, Ring, RecDoubling, Nic };

constexpr Case kCases[] = {Case::Auto, Case::Binomial,    Case::Kary,
                           Case::Ring, Case::RecDoubling, Case::Nic};

coll::Algo algo_of(Case k) {
  switch (k) {
    case Case::Binomial: return coll::Algo::Binomial;
    case Case::Kary: return coll::Algo::Kary;
    case Case::Ring: return coll::Algo::Ring;
    case Case::RecDoubling: return coll::Algo::RecDoubling;
    case Case::Auto:
    case Case::Nic: break;
  }
  return coll::Algo::Auto;
}

std::string case_name(Case k) {
  return k == Case::Nic ? "nic" : coll::to_string(algo_of(k));
}

mpi::ClusterConfig case_cfg(int procs, Case k) {
  mpi::ClusterConfig cfg = coll_cfg(procs, algo_of(k));
  if (k == Case::Nic) cfg.nodes = procs;
  return cfg;
}

// ---------------------------------------------------------------------------
// Conformance sweep: algorithm x rank count (x stack), every op with its oracle
// ---------------------------------------------------------------------------

/// Runs every collective once on `cfg` and checks each against its
/// closed-form oracle.
void check_every_op(const mpi::ClusterConfig& cfg) {
  mpi::Cluster cluster(cfg);
  const int P = cfg.procs;
  auto value = [](int rank, std::size_t i) {
    return static_cast<double>(rank + 1) * 0.25 + static_cast<double>(i);
  };

  cluster.run([&](mpi::Comm& c) {
    const int r = c.rank();

    // Barrier: no rank may leave before the last rank arrives. Rank r spends
    // r*5us computing first, so exit time must be >= the slowest entry.
    const double entry_of_last = c.wtime() + (P - 1) * 5e-6;
    c.compute(r * 5e-6);
    c.barrier();
    EXPECT_GE(c.wtime(), entry_of_last) << "rank " << r << " escaped the barrier";

    // Bcast from a middle root: vector payload (crosses eager) ...
    constexpr std::size_t kCount = 1500;
    const int root = P / 2;
    std::vector<double> bc(kCount);
    if (r == root) {
      for (std::size_t i = 0; i < kCount; ++i) bc[i] = value(root, i);
    }
    c.bcast(bc.data(), kCount * sizeof(double), root);
    for (std::size_t i = 0; i < kCount; ++i) ASSERT_DOUBLE_EQ(bc[i], value(root, i));
    // ... and a scalar.
    double one = r == root ? 41.5 : -1.0;
    c.bcast(&one, sizeof(one), root);
    EXPECT_DOUBLE_EQ(one, 41.5);

    // Allreduce: vector sum ...
    std::vector<double> mine(kCount), sum(kCount);
    for (std::size_t i = 0; i < kCount; ++i) mine[i] = value(r, i);
    c.allreduce(mine.data(), sum.data(), kCount, mpi::ReduceOp::Sum);
    for (std::size_t i = 0; i < kCount; ++i) {
      double expect = 0;
      for (int p = 0; p < P; ++p) expect += value(p, i);
      ASSERT_DOUBLE_EQ(sum[i], expect);
    }
    // ... scalar max and scalar sum.
    EXPECT_DOUBLE_EQ(c.allreduce_one(static_cast<double>(r), mpi::ReduceOp::Max),
                     static_cast<double>(P - 1));
    EXPECT_DOUBLE_EQ(c.allreduce_one(1.0 + r, mpi::ReduceOp::Sum),
                     static_cast<double>(P) * (P + 1) / 2);

    // Alltoall: every (src, dst) block carries a closed-form pattern.
    constexpr std::size_t kBlock = 40 * sizeof(double);
    std::vector<double> to(40 * static_cast<std::size_t>(P));
    std::vector<double> from(40 * static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      for (std::size_t i = 0; i < 40; ++i) {
        to[static_cast<std::size_t>(p) * 40 + i] = r * 1e6 + p * 1e3 + static_cast<double>(i);
      }
    }
    c.alltoall(to.data(), kBlock, from.data());
    for (int p = 0; p < P; ++p) {
      for (std::size_t i = 0; i < 40; ++i) {
        ASSERT_DOUBLE_EQ(from[static_cast<std::size_t>(p) * 40 + i],
                         p * 1e6 + r * 1e3 + static_cast<double>(i))
            << "block from " << p << " at rank " << r;
      }
    }

    // Reduce to a middle root: Max and Min of a per-rank vector.
    std::vector<double> mx(kCount, -1.0), mn(kCount, -1.0);
    c.reduce(mine.data(), mx.data(), kCount, mpi::ReduceOp::Max, root);
    c.reduce(mine.data(), mn.data(), kCount, mpi::ReduceOp::Min, root);
    if (r == root) {
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_DOUBLE_EQ(mx[i], value(P - 1, i));
        ASSERT_DOUBLE_EQ(mn[i], value(0, i));
      }
    }

    // Gather to and scatter from the last rank.
    const int last = P - 1;
    std::vector<double> gathered(40 * static_cast<std::size_t>(P), -1.0);
    c.gather(to.data(), kBlock, gathered.data(), last);
    if (r == last) {
      for (int p = 0; p < P; ++p) {
        for (std::size_t i = 0; i < 40; ++i) {
          ASSERT_DOUBLE_EQ(gathered[static_cast<std::size_t>(p) * 40 + i],
                           p * 1e6 + static_cast<double>(i))
              << "gathered block of " << p;
        }
      }
    }
    std::vector<double> piece(40, -1.0);
    c.scatter(to.data(), kBlock, piece.data(), last);
    for (std::size_t i = 0; i < 40; ++i) {
      ASSERT_DOUBLE_EQ(piece[i], last * 1e6 + r * 1e3 + static_cast<double>(i));
    }

    // Allgather: rank p's block is its slice of `value`.
    std::vector<double> all(40 * static_cast<std::size_t>(P), -1.0);
    std::vector<double> own(40);
    for (std::size_t i = 0; i < 40; ++i) own[i] = value(r, i);
    c.allgather(own.data(), kBlock, all.data());
    for (int p = 0; p < P; ++p) {
      for (std::size_t i = 0; i < 40; ++i) {
        ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(p) * 40 + i], value(p, i));
      }
    }

    // Alltoallv: src sends (src + dst) % 3 doubles to dst, so one block in
    // three is empty and the rest are uneven.
    auto n = [](int src, int dst) { return static_cast<std::size_t>((src + dst) % 3); };
    std::vector<std::size_t> scounts(P), sdispls(P), rcounts(P), rdispls(P);
    std::size_t stotal = 0, rtotal = 0;
    for (int p = 0; p < P; ++p) {
      const auto q = static_cast<std::size_t>(p);
      sdispls[q] = stotal * sizeof(double);
      scounts[q] = n(r, p) * sizeof(double);
      stotal += n(r, p);
      rdispls[q] = rtotal * sizeof(double);
      rcounts[q] = n(p, r) * sizeof(double);
      rtotal += n(p, r);
    }
    std::vector<double> vsend(stotal), vrecv(rtotal, -1.0);
    for (int p = 0; p < P; ++p) {
      for (std::size_t i = 0; i < n(r, p); ++i) {
        vsend[sdispls[static_cast<std::size_t>(p)] / sizeof(double) + i] =
            r * 1e6 + p * 1e3 + static_cast<double>(i);
      }
    }
    c.alltoallv(vsend.data(), scounts.data(), sdispls.data(), vrecv.data(), rcounts.data(),
                rdispls.data());
    for (int p = 0; p < P; ++p) {
      for (std::size_t i = 0; i < n(p, r); ++i) {
        ASSERT_DOUBLE_EQ(vrecv[rdispls[static_cast<std::size_t>(p)] / sizeof(double) + i],
                         p * 1e6 + r * 1e3 + static_cast<double>(i))
            << "alltoallv block from " << p << " at rank " << r;
      }
    }

    // Scan: inclusive prefix sum of 1..P and prefix max of the ranks.
    double prefix = 0;
    c.scan(&own[0], &prefix, 1, mpi::ReduceOp::Sum);
    double expect_prefix = 0;
    for (int p = 0; p <= r; ++p) expect_prefix += value(p, 0);
    EXPECT_DOUBLE_EQ(prefix, expect_prefix);
    std::vector<int> ranks(3, r), prefix_max(3, -1);
    c.scan(ranks.data(), prefix_max.data(), 3, mpi::ReduceOp::Max);
    EXPECT_EQ(prefix_max, std::vector<int>(3, r));

    // Reduce_scatter_block: block b of rank p's vector is p*P + b + i, so the
    // sum over ranks of rank r's block has a closed form.
    constexpr std::size_t kRsb = 7;
    std::vector<double> rs_in(kRsb * static_cast<std::size_t>(P)), rs_out(kRsb, -1.0);
    for (int b = 0; b < P; ++b) {
      for (std::size_t i = 0; i < kRsb; ++i) {
        rs_in[static_cast<std::size_t>(b) * kRsb + i] =
            r * P + b + static_cast<double>(i);
      }
    }
    c.reduce_scatter_block(rs_in.data(), rs_out.data(), kRsb, mpi::ReduceOp::Sum);
    for (std::size_t i = 0; i < kRsb; ++i) {
      const double sum_p = static_cast<double>(P) * (P - 1) / 2;
      ASSERT_DOUBLE_EQ(rs_out[i], sum_p * P + P * (r + static_cast<double>(i)));
    }

    c.barrier();
  });
}

class CollConformance
    : public ::testing::TestWithParam<std::tuple<Case, int>> {};

TEST_P(CollConformance, EveryOpMatchesItsOracle) {
  const auto [k, procs] = GetParam();
  check_every_op(case_cfg(procs, k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollConformance,
    ::testing::Combine(::testing::ValuesIn(kCases), ::testing::Values(3, 4, 8, 32, 64)),
    [](const auto& info) {
      std::string name = case_name(std::get<0>(info.param));
      name += "_p";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// The baselines reach coll::Engine through their own transports (their own
// matching, eager limits and rendezvous), so each fixed algorithm runs there
// too; P = 5 takes the non-power-of-two demotion and fold paths.
class CollBaselineConformance
    : public ::testing::TestWithParam<std::tuple<mpi::StackKind, coll::Algo, int>> {};

TEST_P(CollBaselineConformance, EveryOpMatchesItsOracle) {
  const auto [stack, algo, procs] = GetParam();
  mpi::ClusterConfig cfg = coll_cfg(procs, algo);
  cfg.stack = stack;
  cfg.rails = {stack == mpi::StackKind::Mvapich2 ? net::ib_profile() : net::mx_profile()};
  check_every_op(cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, CollBaselineConformance,
    ::testing::Combine(::testing::Values(mpi::StackKind::Mvapich2, mpi::StackKind::OpenMpiCmMx),
                       ::testing::Values(coll::Algo::Binomial, coll::Algo::Kary,
                                         coll::Algo::Ring, coll::Algo::RecDoubling),
                       ::testing::Values(5, 8)),
    [](const auto& info) {
      std::string name = mpi::to_string(std::get<0>(info.param));
      std::erase(name, '-');
      name += '_';
      name += coll::to_string(std::get<1>(info.param));
      name += "_p";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Allgather: Bruck's rounds at every size, short records (split's 8 B) and
// blocks whose total passes MPICH2's 80 KiB short-message limit. The payload
// oracle checks that the final rotation puts every block at its rank, and
// each rank's MsgSend spans count the rounds: ⌈log₂P⌉, not the ring's P−1.
// ---------------------------------------------------------------------------

class AllgatherBruck : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(AllgatherBruck, BlocksLandAtTheirRankInLog2Rounds) {
  const auto [P, block] = GetParam();
  const auto n = static_cast<std::size_t>(P);
  auto byte_of = [](int rank, std::size_t i) {
    return static_cast<std::byte>((static_cast<std::size_t>(rank) * 131 + i * 7) & 0xff);
  };

  mpi::ClusterConfig cfg = coll_cfg(P, coll::Algo::Auto);
  cfg.trace = true;
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    std::vector<std::byte> own(block), all(block * n, std::byte{0xee});
    for (std::size_t i = 0; i < block; ++i) own[i] = byte_of(c.rank(), i);
    c.allgather(own.data(), block, all.data());
    for (int p = 0; p < P; ++p) {
      for (std::size_t i = 0; i < block; ++i) {
        ASSERT_EQ(all[static_cast<std::size_t>(p) * block + i], byte_of(p, i))
            << "rank " << c.rank() << ": byte " << i << " of block " << p;
      }
    }
  });

  int rounds = 0;
  while ((1 << rounds) < P) ++rounds;
  std::vector<int> sends(n, 0);
  for (const obs::Record& rec : cluster.recorder()->records()) {
    if (rec.cat == obs::Cat::MsgSend && rec.ph == obs::Ph::Begin) {
      ++sends[static_cast<std::size_t>(rec.rank)];
    }
  }
  for (int p = 0; p < P; ++p) EXPECT_EQ(sends[static_cast<std::size_t>(p)], rounds) << "rank " << p;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AllgatherBruck,
    ::testing::Combine(::testing::Values(3, 5, 12, 64),
                       ::testing::Values(std::size_t{8}, std::size_t{2048})),
    [](const auto& info) {
      // Appended piece by piece: the chained operator+ form trips a g++ 12
      // -Wrestrict false positive in Release builds.
      std::string name = "p";
      name += std::to_string(std::get<0>(info.param));
      name += "_block";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Determinism: two same-seed runs of one algorithm must produce byte-identical
// metrics and trace artifacts (the simulator's promise extends to the engine).
// ---------------------------------------------------------------------------

struct Artifacts {
  std::string metrics;
  std::string trace;
};

Artifacts run_traced(Case k) {
  mpi::ClusterConfig cfg = case_cfg(8, k);
  cfg.trace = true;
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    std::vector<double> v(2000, 1.0 + c.rank());
    c.bcast(v.data(), v.size() * sizeof(double), 0);
    c.allreduce(v.data(), v.data(), v.size(), mpi::ReduceOp::Sum);
    std::vector<double> from(static_cast<std::size_t>(c.size()) * 32);
    std::vector<double> to(from.size(), c.rank() * 1.5);
    c.alltoall(to.data(), 32 * sizeof(double), from.data());
    c.allgather(to.data(), 32 * sizeof(double), from.data());
    // Uneven alltoallv: rank r sends (r + p) % 3 blocks of 32 doubles to p.
    const auto P = static_cast<std::size_t>(c.size());
    const auto r = static_cast<std::size_t>(c.rank());
    std::vector<std::size_t> sc(P), sd(P), rc(P), rd(P);
    for (std::size_t p = 0; p < P; ++p) {
      sc[p] = (r + p) % 3 * 32 * sizeof(double);
      rc[p] = sc[p];
      sd[p] = rd[p] = p * 2 * 32 * sizeof(double);
    }
    std::vector<double> vfrom(P * 2 * 32), vto(vfrom.size(), 0.5 + c.rank());
    c.alltoallv(vto.data(), sc.data(), sd.data(), vfrom.data(), rc.data(), rd.data());
    double prefix = 0;
    c.scan(&v[0], &prefix, 1, mpi::ReduceOp::Sum);
    c.barrier();
  });
  obs::Recorder* rec = cluster.recorder();
  EXPECT_NE(rec, nullptr);
  std::ostringstream metrics, trace;
  rec->metrics().write_csv(metrics);
  obs::write_chrome_trace(*rec, trace);
  return {metrics.str(), trace.str()};
}

class CollDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(CollDeterminism, SameSeedRunsAreByteIdentical) {
  const Artifacts a = run_traced(GetParam());
  const Artifacts b = run_traced(GetParam());
  EXPECT_EQ(a.metrics, b.metrics) << "same-seed collective runs diverged (metrics)";
  EXPECT_EQ(a.trace, b.trace) << "same-seed collective runs diverged (trace)";
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, CollDeterminism, ::testing::ValuesIn(kCases),
                         [](const auto& info) { return case_name(info.param); });

// ---------------------------------------------------------------------------
// Chaos leg: an allreduce large enough to hold rendezvous chunks in flight
// runs through a timed rail death. The payload oracle must hold exactly, and
// the RdvFin retirement gate must leave zero orphaned grants.
// ---------------------------------------------------------------------------

class CollChaos : public ::testing::TestWithParam<coll::Algo> {};

TEST_P(CollChaos, AllreduceSurvivesTimedRailDeath) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;
  cfg.rails = {net::ib_profile(), net::mx_profile()};
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.strategy = nmad::StrategyKind::SplitBalance;  // plans chunks onto both
  // rails at grant time, so the dying rail's queue is non-empty at the kill
  cfg.coll = every_op(GetParam());
  cfg.trace = true;
  cfg.faults.seed = 7;
  cfg.faults.rail_down.push_back({0.5e-3, /*rail=*/1});

  constexpr std::size_t kCount = 1u << 18;  // 2 MiB of doubles: rendezvous
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    std::vector<double> v(kCount), out(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      v[i] = static_cast<double>(c.rank() + 1) + static_cast<double>(i % 97);
    }
    c.allreduce(v.data(), out.data(), kCount, mpi::ReduceOp::Sum);
    const int P = c.size();
    for (std::size_t i = 0; i < kCount; ++i) {
      const double expect =
          static_cast<double>(P) * (P + 1) / 2 + static_cast<double>(P) * (i % 97);
      ASSERT_DOUBLE_EQ(out[i], expect) << "allreduce payload corrupted at " << i;
    }
    c.barrier();
  });

  obs::Recorder* rec = cluster.recorder();
  ASSERT_NE(rec, nullptr);
  std::uint64_t down = 0, orphans = 0, dead_tx = 0;
  for (const auto& [key, ctr] : rec->metrics().counters()) {
    if (key.first == "nmad.fault.rail_down") down += ctr.value();
    if (key.first == "nmad.rdv.orphan_cts") orphans += ctr.value();
    if (key.first == "net.fault.tx_on_dead_rail") dead_tx += ctr.value();
  }
  EXPECT_GE(down, 1u) << "the rail death was never injected";
  EXPECT_EQ(orphans, 0u) << "rail death orphaned a rendezvous grant";
  EXPECT_EQ(dead_tx, 0u) << "traffic was handed to the dead rail";
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, CollChaos,
                         ::testing::Values(coll::Algo::Binomial, coll::Algo::Ring,
                                           coll::Algo::RecDoubling),
                         [](const auto& info) { return std::string(coll::to_string(info.param)); });

}  // namespace
}  // namespace nmx
