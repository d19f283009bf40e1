// Machine-readable analysis reports: critical-path breakdown plus latency
// tolerance for one or more traced runs, serialized as a `<stem>.report.json`
// sidecar. CI's perf-smoke job archives these and
// tools/check_bench_regression.py gates on the critical-path *composition*
// (wire share) staying inside a band of the checked-in baseline — a
// composition shift flags a protocol change even when wall time stays put.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/lat_tolerance.hpp"

namespace nmx::obs {

/// Critical-path time spent inside one collective op's Cat::Coll spans:
/// the tiling of the extracted path by collective phase.
struct CollPhase {
  int op = 0;            ///< obs::CollOp id
  std::string name;      ///< op name ("alltoall", ...)
  double crit_time = 0;  ///< critical-path seconds covered by this op
  std::uint64_t spans = 0;  ///< closed Coll spans of this op in the trace
};

/// Analysis of one traced run (one cluster execution).
struct RunReport {
  std::string name;  ///< e.g. "CG/32procs/MPICH2-NMad"
  int ranks = 0;
  CritPathResult critpath;
  ToleranceReport tolerance;
  /// Collective-phase tiling of the critical path (empty when the trace has
  /// no Cat::Coll spans — e.g. pre-engine traces).
  std::vector<CollPhase> coll;
  /// Fraction of the critical path inside *some* collective phase.
  double coll_covered() const {
    double t = 0;
    for (const CollPhase& p : coll) t += p.crit_time;
    return critpath.wall > 0 ? t / critpath.wall : 0;
  }
};

struct Report {
  std::string bench;  ///< bench binary stem, e.g. "fig8_nas"
  std::vector<RunReport> runs;
};

/// Run the full pipeline on one trace: span index -> critical path ->
/// latency-tolerance model.
RunReport analyze_run(const Recorder& rec, std::string name, int ranks,
                      const std::vector<RailParam>& rails);

/// Serialize as JSON (schema "nmx-report-v1").
void write_report(const Report& rep, std::ostream& os);
bool write_report_file(const Report& rep, const std::string& path);

/// Human-readable digest: one row per run with the critical-path composition
/// and the critical rail's tolerance numbers — what perf-smoke CI prints.
void print_report_summary(const Report& rep, std::ostream& os);

}  // namespace nmx::obs
