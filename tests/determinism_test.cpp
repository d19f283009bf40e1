// Determinism regression: the simulator promises bit-identical replays — two
// clusters built from the same ClusterConfig and driven by the same workload
// must produce byte-identical observability artifacts (metrics CSV, Chrome
// trace) and identical span counts. A diff here means some scheduling
// decision leaked nondeterminism (iteration over an unordered container,
// wall-clock time, address-dependent ordering).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"
#include "obs/export_chrome.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"

namespace nmx {
namespace {

struct Artifacts {
  std::string metrics_csv;
  std::string trace_json;
  std::uint64_t spans_begun = 0;
  std::uint64_t spans_ended = 0;
};

Artifacts run_once(const mpi::ClusterConfig& cfg) {
  mpi::Cluster cluster(cfg);
  // Mixed workload: eager + rendezvous traffic, a seeded random storm, and a
  // collective — enough to exercise strategies, rails and the progress engine.
  cluster.run([&](mpi::Comm& c) {
    const int peer = c.rank() < c.size() / 2 ? c.rank() + c.size() / 2 : c.rank() - c.size() / 2;
    sim::Xoshiro256 rng(1234 + static_cast<std::uint64_t>(c.rank() < peer ? c.rank() : peer));
    for (int i = 0; i < 10; ++i) {
      const std::size_t size = 1 + rng.below(256_KiB);
      std::vector<std::byte> out(size), in(size);
      c.sendrecv(out.data(), size, peer, i, in.data(), size, peer, i);
    }
    double v = c.rank();
    double sum = 0;
    c.allreduce(&v, &sum, 1, mpi::ReduceOp::Sum);
    c.barrier();
  });

  Artifacts a;
  obs::Recorder* rec = cluster.recorder();
  EXPECT_NE(rec, nullptr);
  std::ostringstream metrics, trace;
  rec->metrics().write_csv(metrics);
  obs::write_chrome_trace(*rec, trace);
  a.metrics_csv = metrics.str();
  a.trace_json = trace.str();
  a.spans_begun = rec->spans_begun();
  a.spans_ended = rec->spans_ended();
  return a;
}

class Determinism : public ::testing::TestWithParam<nmad::StrategyKind> {};

TEST_P(Determinism, IdenticalConfigAndSeedGiveIdenticalArtifacts) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;
  cfg.rails = {net::ib_profile(), net::mx_profile()};
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.strategy = GetParam();
  cfg.pioman = true;
  cfg.trace = true;

  const Artifacts a = run_once(cfg);
  const Artifacts b = run_once(cfg);

  EXPECT_FALSE(a.metrics_csv.empty());
  EXPECT_GT(a.spans_begun, 0u);
  EXPECT_EQ(a.spans_begun, b.spans_begun);
  EXPECT_EQ(a.spans_ended, b.spans_ended);
  EXPECT_EQ(a.metrics_csv, b.metrics_csv) << "metrics CSV diverged between identical runs";
  EXPECT_EQ(a.trace_json, b.trace_json) << "trace diverged between identical runs";
}

INSTANTIATE_TEST_SUITE_P(Strategies, Determinism,
                         ::testing::Values(nmad::StrategyKind::SplitBalance,
                                           nmad::StrategyKind::CostModel),
                         [](const auto& info) {
                           return info.param == nmad::StrategyKind::CostModel ? "costmodel"
                                                                              : "split";
                         });

TEST(DeterminismFaulted, SameFaultPlanAndSeedGiveIdenticalArtifacts) {
  // The determinism promise extends to faulted runs: the fault schedule is
  // part of the config (timed faults fire at fixed virtual times, wire-entry
  // rolls come from a seeded generator consumed in event order), so two runs
  // of the same chaos config must replay byte-for-byte. This is what makes a
  // chaos failure reproducible instead of a flake.
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;
  cfg.rails = {net::ib_profile(), net::mx_profile()};
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.strategy = nmad::StrategyKind::CostModel;
  cfg.pioman = true;
  cfg.trace = true;
  cfg.rdv_retry_timeout = 200e-6;
  cfg.faults.seed = 7;
  cfg.faults.rail_down.push_back({2e-3, /*rail=*/1});
  sim::FaultSpec::EntryFault drop;
  drop.kind = 2;  // nmad::Entry::Kind::Cts
  drop.drop_p = 0.3;
  drop.dup_p = 0.2;
  drop.delay_p = 0.2;
  cfg.faults.entry_faults.push_back(drop);

  const Artifacts a = run_once(cfg);
  const Artifacts b = run_once(cfg);

  EXPECT_FALSE(a.metrics_csv.empty());
  EXPECT_GT(a.spans_begun, 0u);
  EXPECT_EQ(a.spans_begun, b.spans_begun);
  EXPECT_EQ(a.spans_ended, b.spans_ended);
  EXPECT_EQ(a.metrics_csv, b.metrics_csv) << "faulted metrics CSV diverged between replays";
  EXPECT_EQ(a.trace_json, b.trace_json) << "faulted trace diverged between replays";
}

}  // namespace
}  // namespace nmx
