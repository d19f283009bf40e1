#include "obs/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>

#include "common/assert.hpp"

namespace nmx::obs {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Escape the few characters run names could smuggle into a JSON string.
std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void write_critpath(const CritPathResult& cp, std::ostream& os) {
  os << "{\"wall\":" << num(cp.wall) << ",\"compute\":" << num(cp.compute)
     << ",\"wire\":" << num(cp.wire) << ",\"sw\":" << num(cp.sw)
     << ",\"blocked\":" << num(cp.blocked)
     << ",\"wire_share\":" << num(cp.wire_share()) << ",\"wire_by_rail\":{";
  bool first = true;
  for (const auto& [rail, d] : cp.wire_by_rail) {
    if (!first) os << ",";
    first = false;
    os << "\"" << rail << "\":" << num(d);
  }
  os << "},\"iterations\":[";
  first = true;
  for (const IterPath& it : cp.iterations) {
    if (!first) os << ",";
    first = false;
    os << "{\"iter\":" << it.iter << ",\"wall\":" << num(it.wall())
       << ",\"path_sum\":" << num(it.path_sum())
       << ",\"compute\":" << num(it.compute) << ",\"wire\":" << num(it.wire)
       << ",\"sw\":" << num(it.sw) << ",\"blocked\":" << num(it.blocked)
       << "}";
  }
  os << "]}";
}

void write_tolerance(const ToleranceReport& tr, std::ostream& os) {
  os << "{\"measured_wall\":" << num(tr.measured_wall)
     << ",\"model_wall\":" << num(tr.model_wall)
     << ",\"model_error\":" << num(tr.model_error)
     << ",\"critical_rail\":" << tr.critical_rail << ",\"rails\":[";
  bool first = true;
  for (const RailTolerance& r : tr.rails) {
    if (!first) os << ",";
    first = false;
    os << "{\"rail\":" << r.rail << ",\"name\":" << jstr(r.name)
       << ",\"wire_time\":" << num(r.wire_time)
       << ",\"wire_share\":" << num(r.wire_share)
       << ",\"tol_1pct\":" << num(r.tol_1pct)
       << ",\"tol_5pct\":" << num(r.tol_5pct)
       << ",\"tol_10pct\":" << num(r.tol_10pct) << "}";
  }
  os << "],\"sweep\":[";
  first = true;
  for (const SweepPoint& s : tr.sweep) {
    if (!first) os << ",";
    first = false;
    os << "{\"rail\":" << s.rail << ",\"lambda_scale\":" << num(s.lambda_scale)
       << ",\"wall_growth\":" << num(s.wall_growth) << "}";
  }
  os << "]}";
}

/// Tile the extracted critical path by collective phase: for every path
/// segment, the time overlapping a Cat::Coll span on the segment's rank is
/// attributed to that span's op (the Coll arg packs the CollOp in bits 8+).
std::vector<CollPhase> tile_coll_phases(const SpanIndex& idx, const CritPathResult& cp) {
  struct Iv {
    Time t0, t1;
    int op;
  };
  std::map<int, std::vector<Iv>> by_rank;
  std::array<std::uint64_t, kNumCollOps> span_count{};
  // nmx-lint: allow(determinism) intervals are sorted and counts summed; visitation order cannot leak
  for (const auto& [id, s] : idx.spans) {
    if (s.cat != Cat::Coll || !s.closed) continue;
    const int op = static_cast<int>(s.arg_begin >> 8);
    NMX_ASSERT_MSG(op >= 0 && op < static_cast<int>(kNumCollOps), "Coll span with unknown op");
    by_rank[s.rank].push_back(Iv{s.t0, s.t1, op});
    ++span_count[static_cast<std::size_t>(op)];
  }
  if (by_rank.empty()) return {};
  for (auto& [rank, ivs] : by_rank) {
    std::sort(ivs.begin(), ivs.end(),
              [](const Iv& a, const Iv& b) { return a.t0 < b.t0; });
  }

  std::array<double, kNumCollOps> crit{};
  for (const IterPath& it : cp.iterations) {
    for (const PathSegment& seg : it.segments) {
      const auto r = by_rank.find(seg.rank);
      if (r == by_rank.end()) continue;
      for (const Iv& iv : r->second) {
        if (iv.t0 >= seg.t1) break;
        const double ov = std::min(seg.t1, iv.t1) - std::max(seg.t0, iv.t0);
        if (ov > 0) crit[static_cast<std::size_t>(iv.op)] += ov;
      }
    }
  }

  std::vector<CollPhase> out;
  for (std::size_t op = 0; op < kNumCollOps; ++op) {
    if (span_count[op] == 0) continue;
    out.push_back(CollPhase{static_cast<int>(op), kCollOpNames[op], crit[op], span_count[op]});
  }
  return out;
}

}  // namespace

RunReport analyze_run(const Recorder& rec, std::string name, int ranks,
                      const std::vector<RailParam>& rails) {
  RunReport run;
  run.name = std::move(name);
  run.ranks = ranks;
  const SpanIndex idx = build_span_index(rec);
  run.critpath = extract_critical_path(idx);
  run.tolerance = analyze_latency_tolerance(idx, run.critpath, rails);
  run.coll = tile_coll_phases(idx, run.critpath);
  return run;
}

void write_report(const Report& rep, std::ostream& os) {
  os << "{\"schema\":\"nmx-report-v1\",\"bench\":" << jstr(rep.bench)
     << ",\"runs\":[\n";
  bool first = true;
  for (const RunReport& run : rep.runs) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":" << jstr(run.name) << ",\"ranks\":" << run.ranks
       << ",\"critpath\":";
    write_critpath(run.critpath, os);
    os << ",\"latency_tolerance\":";
    write_tolerance(run.tolerance, os);
    os << ",\"coll\":{\"covered\":" << num(run.coll_covered()) << ",\"phases\":[";
    bool pfirst = true;
    for (const CollPhase& p : run.coll) {
      if (!pfirst) os << ",";
      pfirst = false;
      os << "{\"op\":" << jstr(p.name) << ",\"crit_time\":" << num(p.crit_time)
         << ",\"spans\":" << p.spans << "}";
    }
    os << "]}}";
  }
  os << "\n]}\n";
}

bool write_report_file(const Report& rep, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_report(rep, os);
  return static_cast<bool>(os);
}

void print_report_summary(const Report& rep, std::ostream& os) {
  char buf[256];
  os << "== " << rep.bench << ": critical-path composition & latency tolerance ==\n";
  std::snprintf(buf, sizeof(buf), "%-28s %9s %8s %8s %8s %8s %8s  %s\n", "run",
                "wall(ms)", "compute", "wire", "sw", "blocked", "model", "tol(10%)");
  os << buf;
  for (const RunReport& run : rep.runs) {
    const CritPathResult& cp = run.critpath;
    const double w = cp.wall > 0 ? cp.wall : 1;
    std::string tol = "-";
    for (const RailTolerance& r : run.tolerance.rails) {
      if (r.rail == run.tolerance.critical_rail && r.tol_10pct >= 0) {
        std::snprintf(buf, sizeof(buf), "%.1fus@rail%d", r.tol_10pct * 1e6, r.rail);
        tol = buf;
        break;
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "%-28s %9.2f %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.2f%%  %s\n",
                  run.name.c_str(), cp.wall * 1e3, 100 * cp.compute / w,
                  100 * cp.wire / w, 100 * cp.sw / w, 100 * cp.blocked / w,
                  100 * run.tolerance.model_error, tol.c_str());
    os << buf;
    if (!run.coll.empty()) {
      std::string phases;
      for (const CollPhase& p : run.coll) {
        std::snprintf(buf, sizeof(buf), " %s=%.1f%%", p.name.c_str(),
                      100 * p.crit_time / w);
        phases += buf;
      }
      std::snprintf(buf, sizeof(buf), "%-28s   coll tiling: %.1f%% of path:%s\n", "",
                    100 * run.coll_covered(), phases.c_str());
      os << buf;
    }
  }
}

}  // namespace nmx::obs
