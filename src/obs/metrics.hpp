// Metrics registry: named counters, gauges and fixed-bucket histograms the
// protocol layers update while a Recorder is attached to the Engine. Metrics
// answer the aggregate questions the event stream is too fine-grained for —
// per-rail byte totals, strategy queue depth, PIOMan pass counts, rendezvous
// handshake latency — and export as a machine-readable CSV sidecar
// (Registry::write_csv) next to every figure bench's table.
//
// Identity is (name, label): `nmad.rail.tx_bytes` with label `rail=0` and
// `rail=1` are two counters. Lookup is by map, so callers on hot paths should
// only touch the registry when tracing is enabled (recorder attached).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nmx::obs {

/// Monotonically increasing event count or byte total.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time level (queue depth, pinned bytes). Remembers its high-water
/// mark so a summary row captures transients the final value would hide.
class Gauge {
 public:
  void set(double v) {
    v_ = v;
    if (v > max_) max_ = v;
  }
  void add(double d) { set(v_ + d); }
  double value() const { return v_; }
  double max() const { return max_; }

 private:
  double v_ = 0;
  double max_ = 0;
};

/// Fixed-bucket histogram. A sample lands in the first bucket whose upper
/// edge is >= the value ("le" semantics); samples above the last edge land in
/// the overflow bucket, so bucket_counts().size() == edges().size() + 1.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& edges() const { return edges_; }
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> edges_;           // ascending upper edges
  std::vector<std::uint64_t> counts_;   // edges_.size() + 1 (last = overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

class Registry {
 public:
  using Key = std::pair<std::string, std::string>;  // (name, label)

  Counter& counter(const std::string& name, const std::string& label = "");
  Gauge& gauge(const std::string& name, const std::string& label = "");
  /// `edges` only takes effect on the call that creates the histogram.
  Histogram& histogram(const std::string& name, std::vector<double> edges,
                       const std::string& label = "");

  /// Lookup without creating; null when absent.
  const Counter* find_counter(const std::string& name, const std::string& label = "") const;
  const Gauge* find_gauge(const std::string& name, const std::string& label = "") const;
  const Histogram* find_histogram(const std::string& name, const std::string& label = "") const;

  const std::map<Key, Counter>& counters() const { return counters_; }
  const std::map<Key, Gauge>& gauges() const { return gauges_; }
  const std::map<Key, Histogram>& histograms() const { return histograms_; }

  /// CSV dump, one row per scalar: `kind,name,label,field,value`. Counters
  /// emit `value`; gauges `last` and `max`; histograms `count`, `sum` and a
  /// cumulative `le_<edge>` row per bucket plus `le_inf`.
  void write_csv(std::ostream& os) const;

 private:
  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace nmx::obs
