// Harness and end-to-end determinism tests: identical configurations must
// produce bit-identical virtual timings (the reproducibility claim of
// EXPERIMENTS.md rests on this), the netpipe/overlap harnesses must
// behave sanely across their sweep ranges, and a sidecar write failure
// must be reported.
#include <gtest/gtest.h>

#include "harness/netpipe.hpp"
#include "harness/overlap.hpp"
#include "harness/sidecar.hpp"
#include "harness/table.hpp"
#include "mpi/cluster.hpp"
#include "nas/nas.hpp"
#include "nmad/core.hpp"

namespace nmx {
namespace {

mpi::ClusterConfig ib2(mpi::StackKind stack = mpi::StackKind::Mpich2Nmad) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;
  cfg.stack = stack;
  return cfg;
}

TEST(Determinism, NetpipeRunsAreBitIdentical) {
  const auto sizes = harness::bandwidth_sizes();
  const auto a = harness::netpipe(ib2(), sizes);
  const auto b = harness::netpipe(ib2(), sizes);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].latency_us, b[i].latency_us) << "size " << a[i].size;
    EXPECT_EQ(a[i].bandwidth_MBps, b[i].bandwidth_MBps);
  }
}

TEST(Determinism, NasRunsAreBitIdentical) {
  auto run_once = [] {
    mpi::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.procs = 8;
    cfg.stack = mpi::StackKind::Mpich2Nmad;
    cfg.pioman = true;
    mpi::Cluster cluster(cfg);
    nas::NasConfig nc;
    nc.cls = nas::NasClass::S;
    return nas::run_nas(cluster, "CG", nc).seconds;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Netpipe, BandwidthGrowsThenSaturates) {
  const auto pts = harness::netpipe(ib2(mpi::StackKind::Mvapich2), harness::bandwidth_sizes());
  // Monotone non-decreasing bandwidth for a cache-friendly stack.
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].bandwidth_MBps, pts[i - 1].bandwidth_MBps * 0.95) << pts[i].size;
  }
  // Saturation below the NIC line rate.
  EXPECT_LT(pts.back().bandwidth_MBps, 1460.0);
  EXPECT_GT(pts.back().bandwidth_MBps, 1350.0);
}

TEST(Netpipe, LatencyIsFlatForTinyMessages) {
  const auto pts = harness::netpipe(ib2(), {1, 2, 4, 8});
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_NEAR(pts[i].latency_us, pts[0].latency_us, 0.02);
  }
}

TEST(Overlap, ReferenceTracksMessageSize) {
  const auto pts = harness::overlap(ib2(), {4096, 65536, 1 << 20}, 0.0);
  EXPECT_LT(pts[0].send_time_us, pts[1].send_time_us);
  EXPECT_LT(pts[1].send_time_us, pts[2].send_time_us);
}

TEST(Overlap, ComputeDominatesSmallMessages) {
  const auto pts = harness::overlap(ib2(), {64}, 100e-6);
  EXPECT_GT(pts[0].send_time_us, 100.0);
  EXPECT_LT(pts[0].send_time_us, 115.0);
}

TEST(Table, FormatsBytesAndNumbers) {
  EXPECT_EQ(harness::Table::bytes(512), "512");
  EXPECT_EQ(harness::Table::bytes(4096), "4K");
  EXPECT_EQ(harness::Table::bytes(16 << 20), "16M");
  EXPECT_EQ(harness::Table::fmt(3.14159, 2), "3.14");
  std::ostringstream os;
  harness::Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.print(os);
  EXPECT_NE(os.str().find("bbbb"), std::string::npos);
}

TEST(Sidecar, WriteFailureIsReported) {
  mpi::ClusterConfig cfg = ib2();
  cfg.trace = true;
  mpi::Cluster cluster(cfg);
  cluster.run([](mpi::Comm& c) { c.barrier(); });
  EXPECT_FALSE(harness::write_sidecars(cluster, "no_such_dir/sidecar"));
  // The traced-sidecar run reports the failed write as zero records.
  EXPECT_EQ(harness::run_traced_sidecar(ib2(), "no_such_dir/sidecar"), 0u);
}

TEST(NmadRaw, StandaloneLatencyIs1p8us) {
  // §4.1.1: NewMadeleine alone (no CH3 on top) measures 1.8µs — "not shown
  // on the graph". Measure a core-level ping-pong.
  sim::Engine eng;
  net::Topology topo = net::Topology::blocked(2, 2, {net::ib_profile()});
  net::Fabric fabric(eng, topo);
  net::Endpoints<nmad::Core> peers(topo.num_procs());
  nmad::Config cfg;
  nmad::Core a(eng, fabric, peers, 0, cfg);
  nmad::Core b(eng, fabric, peers, 1, cfg);
  a.enter_progress();
  b.enter_progress();

  char byte = 0;
  Time t_done = 0;
  // One-way chain of 4 hops; measure average hop time.
  constexpr int kHops = 4;
  std::function<void(int)> hop = [&](int i) {
    if (i == kHops) {
      t_done = eng.now();
      return;
    }
    nmad::Core& src = (i % 2 == 0) ? a : b;
    nmad::Core& dst = (i % 2 == 0) ? b : a;
    dst.irecv(src.proc(), 1, &byte, 1);
    dst.set_on_complete([&, i](nmad::Request& r) {
      if (r.kind == nmad::Request::Kind::Recv) hop(i + 1);
    });
    src.isend(dst.proc(), 1, &byte, 1);
  };
  hop(0);
  eng.run();
  EXPECT_NEAR(t_done / kHops * 1e6, 1.8, 0.15);
}

}  // namespace
}  // namespace nmx
