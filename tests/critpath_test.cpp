// Tests for critical-path extraction (obs/critpath) and the re-timing
// latency-tolerance model (obs/lat_tolerance) on hand-built synthetic
// traces where the true critical path is known: category breakdown,
// landing tie-breaking, multi-rail overlap, unresolved-wait fallback, the
// whole-trace window, the model's baseline exactness + perturbation
// response, and the collective-phase tiling by op name. End-to-end
// acceptance assertions on real NAS traces live in report_test.cpp (ctest
// label "report").
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/lat_tolerance.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"

namespace nmx {
namespace {

using obs::Cat;

/// Segments must tile [t_begin, t_end] back to back.
void expect_tiling(const obs::IterPath& p) {
  ASSERT_FALSE(p.segments.empty());
  EXPECT_NEAR(p.segments.front().t0, p.t_begin, 1e-9);
  EXPECT_NEAR(p.segments.back().t1, p.t_end, 1e-9);
  for (std::size_t i = 1; i < p.segments.size(); ++i) {
    EXPECT_NEAR(p.segments[i - 1].t1, p.segments[i].t0, 1e-9);
  }
  EXPECT_NEAR(p.path_sum(), p.wall(), 1e-9);
}

struct Synthetic {
  obs::Recorder rec;
  obs::SpanId send = 0;
  obs::SpanId recv = 0;
};

/// Two ranks, one iteration on window [0, 10]:
///   rank 0: compute [0,3], MsgSend posted t=3 (eager, completes at 3.2),
///           compute [3.2,9], Iter ends at 9
///   rank 1: compute [0,2], MsgRecv posted t=2, MpiWait [2,6] resolved by
///           the message (wire landings given by `landings`, matched at 6),
///           compute [6,10], Iter ends at 10  -> rank 1 is the walk start
/// Known critical path: compute [6,10] + message jump + compute [0,3].
Synthetic make_trace(const std::vector<std::pair<double, int>>& landings) {
  Synthetic s;
  obs::Recorder& rec = s.rec;

  const obs::SpanId it0 = rec.begin(0.0, 0, Cat::Iter, 0, 0);
  const obs::SpanId c00 = rec.begin(0.0, 0, Cat::Compute);
  rec.end(3.0, 0, Cat::Compute, c00);
  s.send = rec.begin(3.0, 0, Cat::MsgSend, 1000, 1);
  rec.end(3.2, 0, Cat::MsgSend, s.send, 1000, 1);
  const obs::SpanId c01 = rec.begin(3.2, 0, Cat::Compute);
  rec.end(9.0, 0, Cat::Compute, c01);
  rec.end(9.0, 0, Cat::Iter, it0, 0, 0);

  const obs::SpanId it1 = rec.begin(0.0, 1, Cat::Iter, 0, 0);
  const obs::SpanId c10 = rec.begin(0.0, 1, Cat::Compute);
  rec.end(2.0, 1, Cat::Compute, c10);
  s.recv = rec.begin(2.0, 1, Cat::MsgRecv, 1000, 0);
  const obs::SpanId w = rec.begin(2.0, 1, Cat::MpiWait);
  for (const auto& [t, rail] : landings) {
    rec.link(t, 1, Cat::WireLand, s.send, 1000, rail);
  }
  rec.link(6.0, 1, Cat::MsgMatch, s.recv, 1000,
           static_cast<std::int64_t>(s.send));
  rec.end(6.0, 1, Cat::MsgRecv, s.recv, 1000, 0);
  rec.end(6.0, 1, Cat::MpiWait, w, 0, static_cast<std::int64_t>(s.recv));
  const obs::SpanId c11 = rec.begin(6.0, 1, Cat::Compute);
  rec.end(10.0, 1, Cat::Compute, c11);
  rec.end(10.0, 1, Cat::Iter, it1, 0, 0);
  return s;
}

TEST(CritPath, BackwardWalkSplitsWireAndDeliveryTail) {
  Synthetic s = make_trace({{5.5, 0}});
  const obs::CritPathResult cp = obs::extract_critical_path(s.rec);

  ASSERT_EQ(cp.iterations.size(), 1u);
  const obs::IterPath& p = cp.iterations[0];
  EXPECT_EQ(p.iter, 0);
  EXPECT_NEAR(p.wall(), 10.0, 1e-12);
  expect_tiling(p);

  // compute [6,10] + [0,3]; wire [3,5.5] on rail 0; sw tail [5.5,6].
  EXPECT_NEAR(p.compute, 7.0, 1e-9);
  EXPECT_NEAR(p.wire, 2.5, 1e-9);
  EXPECT_NEAR(p.sw, 0.5, 1e-9);
  EXPECT_NEAR(p.blocked, 0.0, 1e-9);
  ASSERT_EQ(p.wire_by_rail.count(0), 1u);
  EXPECT_NEAR(p.wire_by_rail.at(0), 2.5, 1e-9);

  // The wire segment names the sender's span; the walk crossed to rank 0.
  bool saw_wire = false;
  for (const obs::PathSegment& seg : p.segments) {
    if (seg.kind == obs::SegKind::Wire) {
      saw_wire = true;
      EXPECT_EQ(seg.cause, s.send);
      EXPECT_EQ(seg.rail, 0);
    }
  }
  EXPECT_TRUE(saw_wire);
}

TEST(CritPath, SimultaneousLandingsBreakTiesToLowestRail) {
  Synthetic s = make_trace({{5.5, 2}, {5.5, 1}});
  const obs::CritPathResult cp = obs::extract_critical_path(s.rec);
  ASSERT_EQ(cp.iterations.size(), 1u);
  const obs::IterPath& p = cp.iterations[0];
  expect_tiling(p);
  ASSERT_EQ(p.wire_by_rail.size(), 1u);
  EXPECT_EQ(p.wire_by_rail.begin()->first, 1);  // lowest rail among the tie
  EXPECT_NEAR(p.wire_by_rail.at(1), 2.5, 1e-9);
}

TEST(CritPath, MultiRailOverlapAttributesLatestLanding) {
  // Stripes land on rail 0 at 5.0 and rail 1 at 5.5: the message is only
  // complete when the last stripe lands, so rail 1 carries the path.
  Synthetic s = make_trace({{5.0, 0}, {5.5, 1}});
  const obs::CritPathResult cp = obs::extract_critical_path(s.rec);
  ASSERT_EQ(cp.iterations.size(), 1u);
  const obs::IterPath& p = cp.iterations[0];
  expect_tiling(p);
  ASSERT_EQ(p.wire_by_rail.size(), 1u);
  EXPECT_EQ(p.wire_by_rail.begin()->first, 1);
  EXPECT_NEAR(p.wire_by_rail.at(1), 2.5, 1e-9);
  EXPECT_NEAR(p.sw, 0.5, 1e-9);
}

TEST(CritPath, NoLandingsMeansLocalTransport) {
  // shm/self messages never cross a NIC: the whole stretch from send post
  // to wait end is wire on pseudo-rail -1.
  Synthetic s = make_trace({});
  const obs::CritPathResult cp = obs::extract_critical_path(s.rec);
  ASSERT_EQ(cp.iterations.size(), 1u);
  const obs::IterPath& p = cp.iterations[0];
  expect_tiling(p);
  EXPECT_NEAR(p.wire, 3.0, 1e-9);  // [3,6]
  EXPECT_NEAR(p.sw, 0.0, 1e-9);
  ASSERT_EQ(p.wire_by_rail.count(-1), 1u);
}

TEST(CritPath, UnresolvedWaitFallsBackToBlocked) {
  obs::Recorder rec;
  const obs::SpanId it = rec.begin(0.0, 0, Cat::Iter, 0, 0);
  const obs::SpanId c0 = rec.begin(0.0, 0, Cat::Compute);
  rec.end(2.0, 0, Cat::Compute, c0);
  const obs::SpanId w = rec.begin(2.0, 0, Cat::MpiWait);
  rec.end(6.0, 0, Cat::MpiWait, w, 0, 0);  // arg 0: cause unknown
  const obs::SpanId c1 = rec.begin(6.0, 0, Cat::Compute);
  rec.end(10.0, 0, Cat::Compute, c1);
  rec.end(10.0, 0, Cat::Iter, it, 0, 0);

  const obs::CritPathResult cp = obs::extract_critical_path(rec);
  ASSERT_EQ(cp.iterations.size(), 1u);
  const obs::IterPath& p = cp.iterations[0];
  expect_tiling(p);
  EXPECT_NEAR(p.compute, 6.0, 1e-9);
  EXPECT_NEAR(p.blocked, 4.0, 1e-9);
}

TEST(CritPath, TraceWithoutIterSpansGetsWholeTraceWindow) {
  obs::Recorder rec;
  const obs::SpanId c0 = rec.begin(1.0, 0, Cat::Compute);
  rec.end(4.0, 0, Cat::Compute, c0);
  const obs::SpanId c1 = rec.begin(1.0, 1, Cat::Compute);
  rec.end(5.0, 1, Cat::Compute, c1);

  const obs::SpanIndex idx = obs::build_span_index(rec);
  EXPECT_TRUE(idx.synthetic_window);
  ASSERT_EQ(idx.iters.size(), 1u);
  EXPECT_EQ(idx.iters[0].iter, -1);
  EXPECT_EQ(idx.iters[0].end_rank, 1);  // rank 1's activity ends last

  const obs::CritPathResult cp = obs::extract_critical_path(idx);
  ASSERT_EQ(cp.iterations.size(), 1u);
  const obs::IterPath& p = cp.iterations[0];
  EXPECT_NEAR(p.wall(), 4.0, 1e-12);  // [1,5]
  expect_tiling(p);
}

TEST(CritPath, CollTilingNamesEveryOp) {
  // One rank: compute [0,2], an alltoallv phase [2,8] blocked in a wait,
  // compute [8,10]. The phase's 6 s of critical path are reported under the
  // op's name from the shared obs::CollOp table.
  obs::Recorder rec;
  const obs::SpanId it = rec.begin(0.0, 0, Cat::Iter, 0, 0);
  const obs::SpanId c0 = rec.begin(0.0, 0, Cat::Compute);
  rec.end(2.0, 0, Cat::Compute, c0);
  const obs::SpanId coll =
      rec.begin(2.0, 0, Cat::Coll, 64, static_cast<std::int64_t>(obs::CollOp::Alltoallv) << 8);
  const obs::SpanId w = rec.begin(2.0, 0, Cat::MpiWait);
  rec.end(8.0, 0, Cat::MpiWait, w, 0, 0);
  rec.end(8.0, 0, Cat::Coll, coll, 64);
  const obs::SpanId c1 = rec.begin(8.0, 0, Cat::Compute);
  rec.end(10.0, 0, Cat::Compute, c1);
  rec.end(10.0, 0, Cat::Iter, it, 0, 0);

  const obs::RunReport run = obs::analyze_run(rec, "synthetic", 1, {});
  ASSERT_EQ(run.coll.size(), 1u);
  EXPECT_EQ(run.coll[0].name, "alltoallv");
  EXPECT_EQ(run.coll[0].op, static_cast<int>(obs::CollOp::Alltoallv));
  EXPECT_NEAR(run.coll[0].crit_time, 6.0, 1e-9);
  EXPECT_EQ(run.coll[0].spans, 1u);
}

// ---------------------------------------------------------------------------
// Re-timing model
// ---------------------------------------------------------------------------

std::vector<obs::RailParam> two_rails() {
  // beta chosen so 1000 bytes at half bandwidth cost exactly +1s extra.
  return {{"r0", 1e-6, 1000.0}, {"r1", 1e-6, 1000.0}};
}

TEST(LatTolerance, BaselineReproducesMeasuredWallExactly) {
  Synthetic s = make_trace({{5.5, 0}});
  const obs::SpanIndex idx = obs::build_span_index(s.rec);
  obs::RetimeModel model(idx, two_rails());
  EXPECT_NEAR(model.measured_wall(), 10.0, 1e-12);
  EXPECT_NEAR(model.baseline_wall(), 10.0, 1e-9);
}

TEST(LatTolerance, LatencyOnCriticalRailShiftsWallOneForOne) {
  Synthetic s = make_trace({{5.5, 0}});
  const obs::SpanIndex idx = obs::build_span_index(s.rec);
  obs::RetimeModel model(idx, two_rails());

  obs::Perturbation p;
  p.add_lambda[0] = 1.0;
  // The message is on the critical path and the blocked time after the
  // landing is not slack-rich enough to absorb it: +1s latency -> +1s wall.
  EXPECT_NEAR(model.predict(p), 11.0, 1e-9);

  obs::Perturbation q;
  q.add_lambda[1] = 1.0;  // rail 1 carries nothing
  EXPECT_NEAR(model.predict(q), 10.0, 1e-9);
}

TEST(LatTolerance, BandwidthScalingUsesCarriedBytes) {
  Synthetic s = make_trace({{5.5, 0}});
  const obs::SpanIndex idx = obs::build_span_index(s.rec);
  obs::RetimeModel model(idx, two_rails());
  obs::Perturbation p;
  p.beta_scale[0] = 0.5;  // 1000 B at 1000 B/s: 1s -> 2s, delta = +1s
  EXPECT_NEAR(model.predict(p), 11.0, 1e-9);
}

TEST(LatTolerance, ToleranceBisectionFindsLinearResponse) {
  Synthetic s = make_trace({{5.5, 0}});
  const obs::SpanIndex idx = obs::build_span_index(s.rec);
  const obs::CritPathResult cp = obs::extract_critical_path(idx);
  const obs::ToleranceReport rep =
      obs::analyze_latency_tolerance(idx, cp, two_rails());

  EXPECT_NEAR(rep.measured_wall, 10.0, 1e-12);
  EXPECT_LT(rep.model_error, 1e-9);
  EXPECT_EQ(rep.critical_rail, 0);
  ASSERT_EQ(rep.rails.size(), 2u);
  // Wall is 10 + add on rail 0, so the thresholds sit at exactly the growth
  // fractions; the search bound declares rail 1 latency-insensitive.
  EXPECT_NEAR(rep.rails[0].tol_1pct, 0.1, 1e-3);
  EXPECT_NEAR(rep.rails[0].tol_5pct, 0.5, 1e-3);
  EXPECT_NEAR(rep.rails[0].tol_10pct, 1.0, 1e-3);
  EXPECT_LT(rep.rails[1].tol_10pct, 0.0);
  EXPECT_EQ(rep.sweep.size(), 8u);  // 2 rails x 4 lambda scales
}

}  // namespace
}  // namespace nmx
