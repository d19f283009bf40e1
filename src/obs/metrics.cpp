#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "common/assert.hpp"

namespace nmx::obs {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  NMX_ASSERT_MSG(!edges_.empty(), "histogram needs at least one bucket edge");
  NMX_ASSERT_MSG(std::is_sorted(edges_.begin(), edges_.end()),
                 "histogram bucket edges must be ascending");
  counts_.assign(edges_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  ++counts_[static_cast<std::size_t>(it - edges_.begin())];
  ++count_;
  sum_ += v;
}

Counter& Registry::counter(const std::string& name, const std::string& label) {
  return counters_[Key{name, label}];
}

Gauge& Registry::gauge(const std::string& name, const std::string& label) {
  return gauges_[Key{name, label}];
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> edges,
                               const std::string& label) {
  auto it = histograms_.find(Key{name, label});
  if (it == histograms_.end()) {
    it = histograms_.emplace(Key{name, label}, Histogram(std::move(edges))).first;
  }
  return it->second;
}

const Counter* Registry::find_counter(const std::string& name, const std::string& label) const {
  const auto it = counters_.find(Key{name, label});
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name, const std::string& label) const {
  const auto it = gauges_.find(Key{name, label});
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(const std::string& name,
                                          const std::string& label) const {
  const auto it = histograms_.find(Key{name, label});
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::write_csv(std::ostream& os) const {
  os << "kind,name,label,field,value\n";
  for (const auto& [key, c] : counters_) {
    os << "counter," << key.first << ',' << key.second << ",value," << c.value() << '\n';
  }
  for (const auto& [key, g] : gauges_) {
    os << "gauge," << key.first << ',' << key.second << ",last," << g.value() << '\n';
    os << "gauge," << key.first << ',' << key.second << ",max," << g.max() << '\n';
  }
  for (const auto& [key, h] : histograms_) {
    os << "hist," << key.first << ',' << key.second << ",count," << h.count() << '\n';
    os << "hist," << key.first << ',' << key.second << ",sum," << h.sum() << '\n';
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.edges().size(); ++b) {
      cum += h.bucket_counts()[b];
      os << "hist," << key.first << ',' << key.second << ",le_" << h.edges()[b] << ',' << cum
         << '\n';
    }
    os << "hist," << key.first << ',' << key.second << ",le_inf," << h.count() << '\n';
  }
}

}  // namespace nmx::obs
