// Tests for the nmx::obs observability layer: metrics registry semantics,
// span begin/end pairing in the Recorder, end-to-end span balance on a traced
// cluster, and the Chrome trace-event / metrics CSV exporters.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"
#include "obs/export_chrome.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace nmx {
namespace {

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// The traced workload every end-to-end test below runs: one network
/// rendezvous, one shared-memory eager message, compute overlap, a barrier.
mpi::Cluster& traced_cluster() {
  // Held in a unique_ptr (not leaked) so the Engine destructor runs at exit
  // and joins the finished actor threads — TSan flags them as leaked
  // otherwise.
  static std::unique_ptr<mpi::Cluster> cluster = [] {
    mpi::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.procs = 4;
    cfg.stack = mpi::StackKind::Mpich2Nmad;
    cfg.pioman = true;
    cfg.trace = true;
    auto c = std::make_unique<mpi::Cluster>(cfg);
    c->run([](mpi::Comm& comm) {
      std::vector<std::byte> big(256 * 1024), small(512);
      if (comm.rank() == 0) {
        mpi::Request r = comm.isend(big.data(), big.size(), 3, 1);  // rendezvous
        comm.compute(20e-6);
        comm.wait(r);
        comm.send(small.data(), small.size(), 1, 2);  // shm eager
      } else if (comm.rank() == 3) {
        comm.recv(big.data(), big.size(), 0, 1);
      } else if (comm.rank() == 1) {
        comm.recv(small.data(), small.size(), 0, 2);
      }
      comm.barrier();
    });
    return c;
  }();
  return *cluster;
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, HistogramBucketEdgesUseLeSemantics) {
  obs::Histogram h({1.0, 2.0, 5.0});
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 edges + overflow

  h.observe(0.5);  // below first edge -> bucket 0
  h.observe(1.0);  // exactly on an edge counts in that bucket ("le")
  h.observe(1.5);  // -> bucket 1
  h.observe(2.0);  // -> bucket 1
  h.observe(5.0);  // -> bucket 2
  h.observe(7.0);  // above the last edge -> overflow

  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 7.0);
}

TEST(Metrics, RegistryKeysByNameAndLabel) {
  obs::Registry reg;
  reg.counter("rail.bytes", "rail=0").add(100);
  reg.counter("rail.bytes", "rail=1").add(7);
  reg.counter("rail.bytes", "rail=0").add(1);  // same counter as the first
  EXPECT_EQ(reg.find_counter("rail.bytes", "rail=0")->value(), 101u);
  EXPECT_EQ(reg.find_counter("rail.bytes", "rail=1")->value(), 7u);
  EXPECT_EQ(reg.find_counter("rail.bytes", "rail=2"), nullptr);

  obs::Gauge& g = reg.gauge("depth");
  g.set(3);
  g.set(1);
  EXPECT_DOUBLE_EQ(reg.find_gauge("depth")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("depth")->max(), 3.0);  // high-water mark kept
}

TEST(Metrics, WriteCsvEmitsEveryKind) {
  obs::Registry reg;
  reg.counter("c.total").add(42);
  reg.gauge("g.depth").set(2);
  reg.histogram("h.lat", {1.0, 10.0}).observe(3.0);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,label,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,c.total,,value,42"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g.depth,,last,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g.depth,,max,2"), std::string::npos);
  EXPECT_NE(csv.find("hist,h.lat,,count,1"), std::string::npos);
  EXPECT_NE(csv.find("hist,h.lat,,le_10,1"), std::string::npos);  // cumulative
  EXPECT_NE(csv.find("hist,h.lat,,le_inf,1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Recorder span pairing
// ---------------------------------------------------------------------------

TEST(Recorder, SpanBeginEndPairing) {
  obs::Recorder rec;
  const obs::SpanId a = rec.begin(1e-6, 0, obs::Cat::MpiWait);
  const obs::SpanId b = rec.begin(2e-6, 1, obs::Cat::Compute);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);

  rec.end(3e-6, 1, obs::Cat::Compute, b);
  EXPECT_EQ(rec.spans_begun(), 2u);
  EXPECT_EQ(rec.spans_ended(), 1u);
  const auto unbalanced = rec.unbalanced_spans();
  ASSERT_EQ(unbalanced.size(), 1u);
  EXPECT_EQ(unbalanced[0], a);

  rec.end(4e-6, 0, obs::Cat::MpiWait, a);
  EXPECT_TRUE(rec.unbalanced_spans().empty());
  EXPECT_EQ(rec.spans_begun(), rec.spans_ended());
}

TEST(Recorder, EndOfSpanZeroIsANoop) {
  obs::Recorder rec;
  rec.end(1e-6, 0, obs::Cat::MpiWait, 0);  // span opened with no recorder attached
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.spans_ended(), 0u);
}

// ---------------------------------------------------------------------------
// Ring-buffer mode
// ---------------------------------------------------------------------------

TEST(RecorderRing, DropsOldestAndCountsDrops) {
  obs::Recorder rec;
  rec.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    rec.instant(static_cast<Time>(i) * 1e-6, 0, obs::Cat::PiomanPass, 0, i);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped_records(), 6u);
  // The survivors are the *newest* four, still in time order.
  const auto& recs = rec.records();
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].arg, static_cast<std::int64_t>(6 + i));
    if (i > 0) {
      EXPECT_GE(recs[i].t, recs[i - 1].t);
    }
  }
}

TEST(RecorderRing, SamplesRingIndependently) {
  obs::Recorder rec;
  rec.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    rec.sample(static_cast<Time>(i) * 1e-6, 0, "q", static_cast<double>(i));
  }
  rec.instant(1e-6, 0, obs::Cat::PiomanPass);  // records ring untouched by samples
  EXPECT_EQ(rec.dropped_samples(), 2u);
  EXPECT_EQ(rec.dropped_records(), 0u);
  const auto& s = rec.samples();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].value, 2.0);
  EXPECT_EQ(s[2].value, 4.0);
}

TEST(RecorderRing, ReadingMidWrapKeepsTimeOrder) {
  obs::Recorder rec;
  rec.set_capacity(4);
  for (int i = 0; i < 6; ++i) {
    rec.instant(static_cast<Time>(i) * 1e-6, 0, obs::Cat::PiomanPass, 0, i);
    // Interleaved reads must always see a time-ordered window (the rotate-on-
    // read normalization), and must not disturb subsequent writes.
    const auto& recs = rec.records();
    for (std::size_t j = 1; j < recs.size(); ++j) EXPECT_GE(recs[j].t, recs[j - 1].t);
  }
  EXPECT_EQ(rec.records().back().arg, 5);
  EXPECT_EQ(rec.dropped_records(), 2u);
}

TEST(RecorderRing, SpanAndMetricAggregatesSurviveDrops) {
  obs::Recorder rec;
  rec.set_capacity(2);
  std::vector<obs::SpanId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(rec.begin(1e-6, 0, obs::Cat::Compute));
  for (obs::SpanId id : ids) rec.end(2e-6, 0, obs::Cat::Compute, id);
  rec.metrics().counter("c").add(8);
  // The record window truncated, but the aggregate views kept counting.
  EXPECT_EQ(rec.spans_begun(), 8u);
  EXPECT_EQ(rec.spans_ended(), 8u);
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped_records(), 14u);
  EXPECT_EQ(rec.metrics().counter("c").value(), 8u);
}

TEST(RecorderRing, ShrinkingCapacityShedsOldestNow) {
  obs::Recorder rec;
  for (int i = 0; i < 6; ++i) {
    rec.instant(static_cast<Time>(i) * 1e-6, 0, obs::Cat::PiomanPass, 0, i);
  }
  rec.set_capacity(2);
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped_records(), 4u);
  EXPECT_EQ(rec.records()[0].arg, 4);
  EXPECT_EQ(rec.records()[1].arg, 5);
  // Back to unbounded: nothing sheds, new pushes append.
  rec.set_capacity(0);
  rec.instant(9e-6, 0, obs::Cat::PiomanPass, 0, 9);
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped_records(), 4u);
}

// ---------------------------------------------------------------------------
// End-to-end: traced cluster
// ---------------------------------------------------------------------------

TEST(ObsCluster, EverySpanOfACompletedRunIsBalanced) {
  mpi::Cluster& cluster = traced_cluster();
  ASSERT_NE(cluster.recorder(), nullptr);
  obs::Recorder& rec = *cluster.recorder();
  EXPECT_GT(rec.spans_begun(), 0u);
  EXPECT_EQ(rec.spans_begun(), rec.spans_ended());
  EXPECT_TRUE(rec.unbalanced_spans().empty());
}

TEST(ObsCluster, MetricsCoverEveryLayer) {
  mpi::Cluster& cluster = traced_cluster();
  const obs::Registry& m = cluster.recorder()->metrics();

  // MPI layer.
  ASSERT_NE(m.find_counter("mpi.send.count"), nullptr);
  EXPECT_GT(m.find_counter("mpi.send.count")->value(), 0u);
  EXPECT_GT(m.find_counter("mpi.send.bytes")->value(), 0u);
  ASSERT_NE(m.find_counter("mpi.coll.count"), nullptr);  // the barrier

  // NewMadeleine: eager + rendezvous split, per-rail NIC counters.
  ASSERT_NE(m.find_counter("nmad.rdv.count"), nullptr);
  EXPECT_EQ(m.find_counter("nmad.rdv.count")->value(), 1u);  // one big send
  EXPECT_EQ(m.find_counter("nmad.rdv.bytes")->value(), 256u * 1024u);
  ASSERT_NE(m.find_counter("nmad.rail.tx_bytes", "rail=0"), nullptr);
  EXPECT_GT(m.find_counter("nmad.rail.tx_bytes", "rail=0")->value(), 0u);
  EXPECT_GT(m.find_counter("nmad.rail.tx_packets", "rail=0")->value(), 0u);
  EXPECT_GT(m.find_counter("nmad.rail.busy_ns", "rail=0")->value(), 0u);

  // Rendezvous handshake latency histogram saw the one handshake.
  const obs::Histogram* h = m.find_histogram("nmad.rdv.handshake_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GT(h->sum(), 0.0);

  // PIOMan.
  ASSERT_NE(m.find_counter("pioman.passes"), nullptr);
  EXPECT_GT(m.find_counter("pioman.passes")->value(), 0u);
  ASSERT_NE(m.find_histogram("pioman.pass.serviced"), nullptr);
  EXPECT_EQ(m.find_histogram("pioman.pass.serviced")->count(),
            m.find_counter("pioman.passes")->value());

  // Nemesis shared memory (the small message stayed on-node).
  ASSERT_NE(m.find_counter("shm.cells"), nullptr);
  EXPECT_GT(m.find_counter("shm.cells")->value(), 0u);
}

TEST(ObsCluster, RailByteCountersMatchTheTraceStream) {
  mpi::Cluster& cluster = traced_cluster();
  obs::Recorder& rec = *cluster.recorder();

  // Sum of the per-rail tx byte counters == bytes carried by NmadTx spans.
  std::uint64_t from_counters = 0;
  for (const auto& [key, c] : rec.metrics().counters()) {
    if (key.first == "nmad.rail.tx_bytes") from_counters += c.value();
  }
  std::uint64_t from_records = 0;
  for (const obs::Record& r : rec.records()) {
    if (r.cat == obs::Cat::NmadTx && r.ph == obs::Ph::Begin) from_records += r.bytes;
  }
  EXPECT_GT(from_counters, 0u);
  EXPECT_EQ(from_counters, from_records);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Exporters, ChromeTraceIsStructurallyValidJson) {
  mpi::Cluster& cluster = traced_cluster();
  std::ostringstream os;
  obs::write_chrome_trace(*cluster.recorder(), os);
  const std::string json = os.str();

  // Structural sanity: balanced braces/brackets (no emitted string contains
  // either character), one trailing newline, the trace-event envelope.
  std::int64_t braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);

  // Per-rank process tracks for Perfetto.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_NE(json.find("{\"name\":\"rank " + std::to_string(rank) + "\"}"), std::string::npos);
  }

  // Both slices (spans) and instants are present.
  EXPECT_GT(count_occurrences(json, "\"ph\":\"X\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"ph\":\"i\""), 0u);
}

TEST(Exporters, ChromeEventCountMatchesTheEmittedEvents) {
  mpi::Cluster& cluster = traced_cluster();
  obs::Recorder& rec = *cluster.recorder();
  std::ostringstream os;
  obs::write_chrome_trace(rec, os);
  const std::string json = os.str();
  // Every Instant emits "i" and every Begin emits either a complete slice
  // ("X", when its End arrived) or an instant; "M" rows are metadata only.
  const std::size_t emitted =
      count_occurrences(json, "\"ph\":\"X\"") + count_occurrences(json, "\"ph\":\"i\"");
  EXPECT_EQ(emitted, obs::chrome_event_count(rec));
}

TEST(Exporters, CounterSamplesBecomeChromeCounterTracks) {
  obs::Recorder rec;
  rec.sample(1e-6, 0, "nmad.sched.backlog_bytes.rail=0", 4096.0);
  rec.sample(2e-6, 0, "nmad.sched.backlog_bytes.rail=0", 0.0);
  rec.sample(3e-6, -1, "engine.depth", 2.5);

  std::ostringstream os;
  obs::write_chrome_trace(rec, os);
  const std::string json = os.str();

  EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 3u);
  EXPECT_NE(json.find("{\"ph\":\"C\",\"name\":\"nmad.sched.backlog_bytes.rail=0\",\"ts\":1.000,"
                      "\"pid\":0,\"tid\":0,\"args\":{\"value\":4096}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":2.5}"), std::string::npos);  // %.10g, not %d

  // Rank-less samples land on the engine pid, which gets its metadata row
  // even when no span/instant record ever touched it.
  EXPECT_NE(json.find("\"name\":\"engine.depth\",\"ts\":3.000,\"pid\":1048576"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"sim engine\"}"), std::string::npos);

  // Counter events are extra: chrome_event_count still covers spans and
  // instants only (the ChromeEventCount test above depends on that).
  EXPECT_EQ(obs::chrome_event_count(rec), 0u);
}

TEST(Exporters, SchedulerCounterTracksAppearInTheClusterTrace) {
  mpi::Cluster& cluster = traced_cluster();
  obs::Recorder& rec = *cluster.recorder();
  ASSERT_GT(rec.samples().size(), 0u);  // nmad core sampled its scheduler state

  std::ostringstream os;
  obs::write_chrome_trace(rec, os);
  const std::string json = os.str();
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), rec.samples().size());
  EXPECT_NE(json.find("\"ph\":\"C\",\"name\":\"nmad.strategy.queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"nmad.sched.backlog_bytes.rail=0\""), std::string::npos);
}

TEST(Exporters, MetricsCsvCarriesTheHeadlineSeries) {
  mpi::Cluster& cluster = traced_cluster();
  std::ostringstream os;
  cluster.recorder()->metrics().write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("counter,nmad.rail.tx_bytes,rail=0,"), std::string::npos);
  EXPECT_NE(csv.find("counter,pioman.passes,,"), std::string::npos);
  EXPECT_NE(csv.find("hist,nmad.rdv.handshake_us,,count,"), std::string::npos);
  EXPECT_NE(csv.find("counter,mpi.send.bytes,,"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporter: dangling-Begin truncation
// ---------------------------------------------------------------------------

TEST(ChromeExport, SynthesizesCloseForDanglingBegins) {
  obs::Recorder rec;
  const obs::SpanId a = rec.begin(1.0, 0, obs::Cat::Compute);
  rec.end(2.0, 0, obs::Cat::Compute, a);
  rec.begin(1.5, 0, obs::Cat::MpiWait);  // End never recorded

  std::ostringstream os;
  obs::write_chrome_trace(rec, os);
  const std::string json = os.str();

  // The dangling span still renders as a complete slice, closed at trace
  // end and flagged, and the truncation counter ticks.
  EXPECT_EQ(count_occurrences(json, "\"truncated\":1"), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(obs::chrome_event_count(rec), 2u);
  const obs::Counter* c = rec.metrics().find_counter("nmad.obs.truncated_spans");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 1u);
}

}  // namespace
}  // namespace nmx
