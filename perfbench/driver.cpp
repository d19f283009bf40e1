// One sample of the repository benchmark: builds one workload's cluster,
// simulates it to completion, checks the outputs, and prints one JSON object
// on stdout. perfbench/run.py starts a fresh process per sample, so heap
// state and the VmHWM peak never leak from one sample into the next.
//
//   nmx_perfbench --workload cg_s_512|ft_a_32|farm_mr_64 [--seed N] [--trace]
//                 [--inject corrupt|short]
//   nmx_perfbench --provenance
//
// Every number is taken from outside the simulator: host clocks around this
// file's own calls into public functions (Cluster construction,
// nas::run_nas, Cluster::run, and the Comm calls of the SPMD bodies below),
// public accessors (Engine, Ch3Process, nmad::Core, pioman::Manager), and —
// with --trace — the obs::Registry counters the layers already update.
//
// Oracles (any failure makes the sample fail; the process exits 1):
//   * NAS stamp and reduction checks (NasConfig::validate, NMX_ASSERT);
//   * farm: every result's payload pattern and size, each task exactly once,
//     and the exact task count;
//   * quiescent end: no live events, no live CH3 or nmad requests, no
//     any-source sublists, no closure spilled to the heap;
//   * no DeadlockError, AssertionError or other exception.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ch3/process.hpp"
#include "mpi/cluster.hpp"
#include "nas/nas.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"

namespace {

using namespace nmx;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Peak resident set size of this process (VmHWM) in MiB; 0 without /proc.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Fixed host work, independent of src/: heap pushes and pops plus hash-map
/// updates on seeded keys, the same kinds of work as event dispatch and
/// matching, in a working set that stays in L2. The sample runs it before
/// and after the workload; run.py divides by it to take the host's speed of
/// the moment (shared cores, frequency) out of the time.
double calibration_s() {
  constexpr int kOps = 600000;
  const auto t0 = Clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::uint64_t acc = 0;
  std::uint64_t x = 0x5eed;
  for (int i = 0; i < kOps; ++i) {
    x += 0x9E3779B97F4A7C15ull;  // splitmix64
    std::uint64_t k = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    k = (k ^ (k >> 27)) * 0x94D049BB133111EBull;
    k ^= k >> 31;
    heap.push(k);
    if (heap.size() > 1024) {
      acc += heap.top();
      heap.pop();
    }
    table[static_cast<std::uint32_t>(k & 0xfff)] += k;
  }
  const double s = seconds_since(t0);
  volatile std::uint64_t sink = acc + table.size();
  (void)sink;
  return s;
}

/// Flat JSON object writer: insertion-ordered numbers plus string fields.
class JsonLine {
 public:
  void num(const std::string& k, double v) { items_.emplace_back(k, fmt(v)); }
  void str(const std::string& k, const std::string& v) { items_.emplace_back(k, quote(v)); }
  void print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += (i ? ", " : "") + quote(items_[i].first) + ": " + items_[i].second;
    }
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        q += '\\';
        q += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        q += ' ';
      } else {
        q += ch;
      }
    }
    return q + "\"";
  }
  std::vector<std::pair<std::string, std::string>> items_;
};

/// A sample that failed an oracle: reported by main, never thrown past it.
struct OracleFailure {
  std::string what;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string inject;  ///< "", "corrupt" or "short" (self-test of the oracles)
};

// --- host timing of the bench's own Comm calls ------------------------------

struct CallTimes {
  double post_ns = 0;  ///< Comm::isend / Comm::irecv
  double wait_ns = 0;  ///< Comm::wait, including what the engine runs meanwhile
  std::uint64_t posts = 0;
  std::uint64_t waits = 0;
};

mpi::Request timed_isend(CallTimes& t, mpi::Comm& c, const void* buf, std::size_t len, int dst,
                         int tag) {
  const auto t0 = Clock::now();
  mpi::Request r = c.isend(buf, len, dst, tag);
  t.post_ns += ns_since(t0);
  ++t.posts;
  return r;
}

mpi::Request timed_irecv(CallTimes& t, mpi::Comm& c, void* buf, std::size_t cap, int src,
                         int tag) {
  const auto t0 = Clock::now();
  mpi::Request r = c.irecv(buf, cap, src, tag);
  t.post_ns += ns_since(t0);
  ++t.posts;
  return r;
}

mpi::Status timed_wait(CallTimes& t, mpi::Comm& c, mpi::Request& r) {
  const auto t0 = Clock::now();
  const mpi::Status st = c.wait(r);
  t.wait_ns += ns_since(t0);
  ++t.waits;
  return st;
}

// --- workloads ---------------------------------------------------------------

/// NAS testbed (the fig8 Grid'5000 setup): 10 nodes, cyclic placement, one
/// IB rail, MPICH2-NMad with PIOMan and the default Aggreg strategy.
mpi::ClusterConfig nas_config(int procs) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 10;
  cfg.procs = procs;
  cfg.rails = {net::ib_profile()};
  cfg.cyclic_mapping = true;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.pioman = true;
  return cfg;
}

/// Task farm: 64 ranks on 8 nodes (block placement, so the master shares
/// node 0 with 7 workers over Nemesis), IB + MX rails, cost-model routing.
mpi::ClusterConfig farm_config() {
  mpi::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.procs = 64;
  cfg.rails = {net::ib_profile(), net::mx_profile()};
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.strategy = nmad::StrategyKind::CostModel;
  cfg.pioman = true;
  return cfg;
}

constexpr std::size_t kMaxResult = 256 * 1024;
constexpr int kFarmTasks = 100000;

struct FarmTask {
  std::uint64_t result_bytes = 0;
  double compute_s = 0;
};

/// The farm's inputs, drawn from the workload seed: result sizes
/// log-uniform over 8 B .. 256 KiB (straddling the 8 KiB aggregation limit
/// and the 64 KiB nmad/shm rendezvous thresholds) and compute times uniform
/// over 2..40 us of virtual time.
std::vector<FarmTask> make_farm_tasks(std::uint64_t seed, int n) {
  sim::Xoshiro256 rng(seed);
  std::vector<FarmTask> tasks(static_cast<std::size_t>(n));
  for (FarmTask& t : tasks) {
    const double bytes = std::exp2(rng.uniform(3.0, 18.0));
    t.result_bytes = std::clamp<std::uint64_t>(static_cast<std::uint64_t>(bytes), 8, kMaxResult);
    t.compute_s = rng.uniform(2e-6, 40e-6);
  }
  return tasks;
}

/// One FT class A kernel takes ~0.5 s of host time, so an ft_a_32 sample
/// runs it this many times on the same cluster.
constexpr int kFtKernels = 4;

constexpr int kTagWork = 1;
constexpr int kTagStop = 2;
constexpr int kTagResult = 3;

/// What the master sends a worker: the generated inputs of one task.
struct WorkMsg {
  std::uint64_t id = 0;
  std::uint64_t result_bytes = 0;
  double compute_s = 0;
};

/// Filler byte of task `id`'s result payload.
unsigned char pattern_byte(std::uint64_t id) {
  return static_cast<unsigned char>((id * 0x9E3779B97F4A7C15ull) >> 56);
}

/// Result payload of task `id`: the id itself, then the task's filler byte.
void fill_result(std::byte* p, std::size_t n, std::uint64_t id) {
  std::memcpy(p, &id, sizeof(id));
  std::memset(p + sizeof(id), pattern_byte(id), n - sizeof(id));
}

bool check_result(const std::byte* p, std::size_t n, std::uint64_t id) {
  std::uint64_t head = 0;
  std::memcpy(&head, p, sizeof(head));
  const unsigned char fill = pattern_byte(id);
  unsigned char diff = 0;
  for (std::size_t i = sizeof(id); i < n; ++i) diff |= static_cast<unsigned char>(p[i]) ^ fill;
  return head == id && diff == 0;
}

struct FarmOutcome {
  std::uint64_t results = 0;
  std::uint64_t bad_payloads = 0;
  std::uint64_t duplicates = 0;
  Time makespan = 0;
};

/// Master/worker farm, depth one: the master deals one task per worker,
/// then receives results with ANY_SOURCE and answers each with the next
/// task or a stop; workers receive with ANY_TAG.
void farm_body(mpi::Comm& c, const std::vector<FarmTask>& tasks, const Options& opt,
               CallTimes& times, FarmOutcome& out) {
  if (c.rank() == 0) {
    // "short": the master hands out one task too few (the count oracle).
    const std::uint64_t total = tasks.size() - (opt.inject == "short" ? 1 : 0);
    std::vector<std::byte> buf(kMaxResult);
    std::vector<bool> seen(tasks.size(), false);
    std::uint64_t next = 0;
    int busy = 0;  // workers holding a task
    auto dispatch = [&](int worker) {
      WorkMsg m;
      int tag = kTagStop;
      if (next < total) {
        m = WorkMsg{next, tasks[next].result_bytes, tasks[next].compute_s};
        tag = kTagWork;
        ++next;
        ++busy;
      }
      mpi::Request r = timed_isend(times, c, &m, sizeof(m), worker, tag);
      timed_wait(times, c, r);
    };
    const Time t0 = c.wtime();
    for (int w = 1; w < c.size(); ++w) dispatch(w);
    while (busy > 0) {
      mpi::Request r = timed_irecv(times, c, buf.data(), buf.size(), mpi::ANY_SOURCE, kTagResult);
      const mpi::Status st = timed_wait(times, c, r);
      --busy;
      std::uint64_t id = 0;
      std::memcpy(&id, buf.data(), sizeof(id));
      if (st.count < sizeof(id) || id >= tasks.size() ||
          st.count != tasks[id].result_bytes || !check_result(buf.data(), st.count, id)) {
        ++out.bad_payloads;
      } else if (seen[id]) {
        ++out.duplicates;
      } else {
        seen[id] = true;
        ++out.results;
      }
      dispatch(st.source);
    }
    out.makespan = c.wtime() - t0;
  } else {
    std::vector<std::byte> result(kMaxResult);
    bool corrupted = false;
    for (;;) {
      WorkMsg m;
      mpi::Request r = timed_irecv(times, c, &m, sizeof(m), 0, mpi::ANY_TAG);
      if (timed_wait(times, c, r).tag == kTagStop) break;
      c.compute(m.compute_s);
      fill_result(result.data(), m.result_bytes, m.id);
      if (opt.inject == "corrupt" && c.rank() == 1 && !corrupted) {
        result[m.result_bytes - 1] ^= std::byte{0x5a};  // the payload oracle
        corrupted = true;
      }
      mpi::Request s = timed_isend(times, c, result.data(), m.result_bytes, 0, kTagResult);
      timed_wait(times, c, s);
    }
  }
}

// --- end-of-run state ---------------------------------------------------------

struct EndState {
  std::uint64_t live_events = 0;
  std::uint64_t closure_heap_allocs = 0;
  std::uint64_t ch3_live_requests = 0;
  std::uint64_t nmad_live_requests = 0;
  std::uint64_t sublists = 0;
  std::uint64_t pioman_passes = 0;
};

EndState end_state(mpi::Cluster& cl) {
  EndState s;
  s.live_events = cl.engine().live_events();
  s.closure_heap_allocs = cl.engine().closure_heap_allocs();
  for (int r = 0; r < cl.config().procs; ++r) {
    auto* p = dynamic_cast<ch3::Ch3Process*>(&cl.transport(r));
    if (p == nullptr) throw OracleFailure{"rank transport is not a Ch3Process"};
    s.ch3_live_requests += p->outstanding_requests();
    s.nmad_live_requests += p->core().outstanding_requests();
    s.sublists += p->any_source_lists().sublist_count();
    if (p->pioman() != nullptr) s.pioman_passes += p->pioman()->service_passes();
  }
  return s;
}

void check_quiescent(const EndState& s) {
  auto need_zero = [](std::uint64_t v, const char* what) {
    if (v != 0) throw OracleFailure{std::string("not quiescent: ") + what + " = " + std::to_string(v)};
  };
  need_zero(s.live_events, "engine live events");
  need_zero(s.closure_heap_allocs, "closure heap allocations");
  need_zero(s.ch3_live_requests, "CH3 live requests");
  need_zero(s.nmad_live_requests, "nmad live requests");
  need_zero(s.sublists, "any-source sublists");
}

// --- traced-run counters --------------------------------------------------------

double counter_sum(const obs::Registry& reg, const std::string& name) {
  double sum = 0;
  for (const auto& [key, c] : reg.counters()) {
    if (key.first == name) sum += static_cast<double>(c.value());
  }
  return sum;
}

double gauge_max(const obs::Registry& reg, const std::string& name) {
  double m = 0;
  for (const auto& [key, g] : reg.gauges()) {
    if (key.first == name) m = std::max(m, g.max());
  }
  return m;
}

/// Upper edge of the bucket holding the median sample (0 when empty; the
/// last edge when the median overflows).
double histogram_p50(const obs::Registry& reg, const std::string& name) {
  const obs::Histogram* h = reg.find_histogram(name);
  if (h == nullptr || h->count() == 0) return 0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h->edges().size(); ++i) {
    seen += h->bucket_counts()[i];
    if (2 * seen >= h->count()) return h->edges()[i];
  }
  return h->edges().back();
}

void put_layer_counters(JsonLine& out, const obs::Recorder& rec) {
  const obs::Registry& reg = rec.metrics();
  const double tx_bytes = counter_sum(reg, "net.rail.tx_bytes");
  const obs::Counter* rail1 = reg.find_counter("net.rail.tx_bytes", "rail=1");
  out.num("net.tx_packets", counter_sum(reg, "net.rail.tx_packets"));
  out.num("net.tx_bytes", tx_bytes);
  out.num("net.rail1_byte_share",
          rail1 != nullptr && tx_bytes > 0 ? static_cast<double>(rail1->value()) / tx_bytes : 0.0);

  const double eager = counter_sum(reg, "nmad.eager.count");
  const double rdv = counter_sum(reg, "nmad.rdv.count");
  out.num("nmad.eager_msgs", eager);
  out.num("nmad.eager_bytes", counter_sum(reg, "nmad.eager.bytes"));
  out.num("nmad.rdv_msgs", rdv);
  out.num("nmad.rdv_bytes", counter_sum(reg, "nmad.rdv.bytes"));
  out.num("nmad.rx_msgs", counter_sum(reg, "nmad.rx.msgs"));
  out.num("nmad.packets_per_msg", eager + rdv > 0
                                      ? counter_sum(reg, "nmad.rail.tx_packets") / (eager + rdv)
                                      : 0.0);
  out.num("nmad.unexpected_max", gauge_max(reg, "nmad.unexpected.depth"));
  out.num("nmad.strategy_depth_max", gauge_max(reg, "nmad.strategy.queue_depth"));
  out.num("nmad.rdv_handshake_us_p50", histogram_p50(reg, "nmad.rdv.handshake_us"));

  out.num("ch3.anysource_binds", counter_sum(reg, "ch3.anysource.binds"));
  out.num("ch3.unexpected_max", gauge_max(reg, "ch3.unexpected.depth"));

  out.num("shm.cells", counter_sum(reg, "shm.cells"));
  out.num("shm.cell_bytes", counter_sum(reg, "shm.cell_bytes"));

  // pioman.pass.serviced counts, per pass, the tasks left with more work, so
  // its nonzero buckets are the passes that had to re-arm for a backlog.
  const obs::Histogram* serviced = reg.find_histogram("pioman.pass.serviced");
  const double passes = counter_sum(reg, "pioman.passes");
  const double drained = serviced != nullptr ? static_cast<double>(serviced->bucket_counts()[0]) : 0;
  out.num("pioman.backlog_pass_ratio", passes > 0 ? (passes - drained) / passes : 0.0);

  out.num("coll.ops", counter_sum(reg, "nmad.coll.count"));
  out.num("coll.bytes", counter_sum(reg, "nmad.coll.bytes"));

  out.num("mpi.sends", counter_sum(reg, "mpi.send.count"));
  out.num("mpi.send_bytes", counter_sum(reg, "mpi.send.bytes"));

  out.num("obs.records", static_cast<double>(rec.size() + rec.dropped_records()));
}

// --- one sample -------------------------------------------------------------------

int run_sample(const Options& opt) {
  const bool farm = opt.workload == "farm_mr_64";
  mpi::ClusterConfig cfg;
  if (opt.workload == "cg_s_512") {
    cfg = nas_config(512);
  } else if (opt.workload == "ft_a_32") {
    cfg = nas_config(32);
  } else if (farm) {
    cfg = farm_config();
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  cfg.trace = opt.trace;
  const std::vector<FarmTask> tasks =
      farm ? make_farm_tasks(opt.seed, kFarmTasks) : std::vector<FarmTask>{};

  JsonLine out;
  out.str("workload", opt.workload);
  const double calib_before = calibration_s();
  const auto t_setup = Clock::now();
  mpi::Cluster cluster(cfg);
  out.num("setup_s", seconds_since(t_setup));

  CallTimes times;  // only the farm body makes Comm calls of its own
  double wall_s = 0;
  double virtual_s = 0;
  EndState end;
  std::string error;
  try {
    if (farm) {
      FarmOutcome fo;
      const auto t0 = Clock::now();
      cluster.run([&](mpi::Comm& c) { farm_body(c, tasks, opt, times, fo); });
      wall_s = seconds_since(t0);
      virtual_s = fo.makespan;
      if (fo.bad_payloads != 0) throw OracleFailure{"farm: corrupted result payloads"};
      if (fo.duplicates != 0) throw OracleFailure{"farm: duplicated results"};
      if (fo.results != tasks.size()) {
        throw OracleFailure{"farm: " + std::to_string(fo.results) + " results for " +
                            std::to_string(tasks.size()) + " tasks"};
      }
    } else {
      const bool cg = opt.workload == "cg_s_512";
      nas::NasConfig nc;
      nc.cls = cg ? nas::NasClass::S : nas::NasClass::A;
      nc.validate = true;
      const int kernels = cg ? 1 : kFtKernels;
      for (int k = 0; k < kernels; ++k) {
        const auto t0 = Clock::now();
        const nas::NasResult res = nas::run_nas(cluster, cg ? "CG" : "FT", nc);
        wall_s += seconds_since(t0);
        if (!(res.seconds > 0)) throw OracleFailure{"NAS: no virtual time reported"};
        if (k == 0) virtual_s = res.seconds;
      }
    }
    end = end_state(cluster);
    check_quiescent(end);
  } catch (const OracleFailure& f) {
    error = f.what;
  } catch (const sim::DeadlockError& e) {
    error = std::string("deadlock: ") + e.what();
  } catch (const AssertionError& a) {
    error = a.message;
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }
  out.str("error", error);
  if (!error.empty()) {
    out.print();
    // The simulation stopped mid-flight; skip tearing down blocked actors.
    std::_Exit(1);
  }

  const sim::Engine& eng = cluster.engine();
  out.num("wall_s", wall_s);
  out.num("peak_rss_mb", peak_rss_mib());
  out.num("calib_s", (calib_before + calibration_s()) / 2);
  out.num("app.virtual_s", virtual_s);
  out.num("sim.events", static_cast<double>(eng.events_processed()));
  out.num("sim.pool_slots", static_cast<double>(eng.pool_slots()));
  out.num("sim.heap_compactions", static_cast<double>(eng.heap_compactions()));
  out.num("sim.closure_heap_allocs", static_cast<double>(end.closure_heap_allocs));
  out.num("sim.fiber_stacks", static_cast<double>(eng.fiber_stacks_allocated()));
  out.num("sim.live_events_end", static_cast<double>(end.live_events));
  out.num("nmad.live_requests_end", static_cast<double>(end.nmad_live_requests));
  out.num("ch3.sublists_end", static_cast<double>(end.sublists));
  out.num("ch3.live_requests_end", static_cast<double>(end.ch3_live_requests));
  out.num("pioman.passes", static_cast<double>(end.pioman_passes));
  out.num("mpi.post_ns", times.posts ? times.post_ns / static_cast<double>(times.posts) : 0.0);
  out.num("mpi.wait_ns", times.waits ? times.wait_ns / static_cast<double>(times.waits) : 0.0);
  if (opt.trace) put_layer_counters(out, *cluster.recorder());
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--provenance") {
      JsonLine p;
      p.str("build_type", NMX_BENCH_BUILD_TYPE);
      p.str("cxx_flags", NMX_BENCH_CXX_FLAGS);
      p.str("compiler", NMX_BENCH_COMPILER);
      p.print();
      return 0;
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--inject" && has_value) {
      opt.inject = argv[++i];
      if (opt.inject != "corrupt" && opt.inject != "short") {
        std::fprintf(stderr, "--inject takes corrupt or short\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return 2;
  }
  return run_sample(opt);
}
