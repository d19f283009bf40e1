// Ablation A7 — collective algorithm choice, swept through the engine.
//
// Part 1 sweeps every engine algorithm (binomial / k-ary / ring / recursive
// doubling) across rank counts and payload regimes: the classic
// latency-vs-bandwidth crossover MPI implementations tune.
//
// Part 2 is the rail-routing headline: the same binomial reduce+bcast on a
// two-rail testbed where an interfering stream pins one rail, with and
// without the cost-model strategy routing each edge's chunks. The fixed
// (Default-strategy) variant keeps feeding the contended rail; the
// cost-model variant sheds onto the quiet one — the speedup is the point of
// wiring the collectives through the cost model at all.
//
// The whole session is deterministic virtual time, so the numbers are
// runner-independent. They are emitted as BENCH_abl_allreduce.json — rows of
// {"bench", "ranks", "us"} where us is the collective's virtual time in
// microseconds — and CI gates them (lower is better) against
// bench/BENCH_abl_allreduce.baseline.json with check_bench_regression.py.
#include <fstream>

#include "bench_common.hpp"

namespace {

using namespace nmx;

constexpr coll::Algo kAlgos[] = {coll::Algo::Binomial, coll::Algo::Kary, coll::Algo::Ring,
                                 coll::Algo::RecDoubling};

/// One engine-routed allreduce (warmup + measured) on the 10-node testbed;
/// returns virtual microseconds.
double allreduce_time(coll::Algo algo, int procs, std::size_t doubles) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 10;
  cfg.procs = procs;
  cfg.cyclic_mapping = true;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.coll.allreduce = algo;
  mpi::Cluster cluster(cfg);
  double t = 0;
  cluster.run([&](mpi::Comm& c) {
    std::vector<double> in(doubles, 1.0), out(doubles);
    for (int i = 0; i < 2; ++i) {
      c.barrier();
      const double t0 = c.wtime();
      c.allreduce(in.data(), out.data(), doubles, mpi::ReduceOp::Sum);
      if (c.rank() == 0 && i == 1) t = c.wtime() - t0;
    }
  });
  return t * 1e6;
}

/// Rail-contended 2 MiB allreduce: ranks 2 and 5 (one per node) flood rail 0
/// with pinned point-to-point traffic while ranks {0,1,3,4} run the binomial
/// reduce+bcast in a sub-communicator. `cost_model` toggles whether chunk
/// routing sees the congestion.
double contended_time(bool cost_model) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 6;  // ranks 0-2 on node 0, ranks 3-5 on node 1
  cfg.rails = {net::ib_profile(), net::ib_profile()};
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.strategy = cost_model ? nmad::StrategyKind::CostModel : nmad::StrategyKind::Default;
  cfg.rank_rails[2] = {0};  // the interferers drive rail 0 only
  cfg.rank_rails[5] = {0};

  constexpr std::size_t kDoubles = 262144;  // 2 MiB vector
  constexpr int kNoiseRounds = 24;
  double t = 0;
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    const bool interferer = c.rank() == 2 || c.rank() == 5;
    mpi::Comm sub = c.split(interferer ? 1 : 0, c.rank());
    if (interferer) {
      const int peer = c.rank() == 2 ? 5 : 2;
      std::vector<std::byte> out(2_MiB), in(2_MiB);
      for (int i = 0; i < kNoiseRounds; ++i) {
        c.sendrecv(out.data(), out.size(), peer, i, in.data(), in.size(), peer, i);
      }
    } else {
      std::vector<double> in(kDoubles, 1.0), out(kDoubles);
      for (int i = 0; i < 2; ++i) {
        sub.barrier();
        const double t0 = c.wtime();
        sub.allreduce(in.data(), out.data(), kDoubles, mpi::ReduceOp::Sum);
        if (c.rank() == 0 && i == 1) t = c.wtime() - t0;
      }
    }
  });
  return t * 1e6;
}

struct Row {
  std::string bench;
  int ranks;
  double us;
};

void write_sidecar(const std::vector<Row>& rows) {
  std::ofstream os("BENCH_abl_allreduce.json");
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  {\"bench\": \"%s\", \"ranks\": %d, \"us\": %.6g}%s\n",
                  rows[i].bench.c_str(), rows[i].ranks, rows[i].us,
                  i + 1 < rows.size() ? "," : "");
    os << buf;
  }
  os << "]\n";
  std::cout << "bench sidecar: BENCH_abl_allreduce.json (" << rows.size() << " series)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Row> rows;

  std::cout << "== Ablation: allreduce algorithm x ranks x payload (virtual us) ==\n";
  for (const std::size_t doubles : {std::size_t{1}, std::size_t{1024}, std::size_t{262144}}) {
    harness::Table t({"procs", "binomial", "kary", "ring", "recdbl", "winner"});
    for (const int procs : {8, 16, 32, 64}) {
      std::vector<std::string> row{std::to_string(procs)};
      double best = 0;
      const char* winner = "";
      for (const coll::Algo algo : kAlgos) {
        const double us = allreduce_time(algo, procs, doubles);
        row.push_back(harness::Table::fmt(us, 1));
        if (winner[0] == '\0' || us < best) {
          best = us;
          winner = coll::to_string(algo);
        }
        rows.push_back({std::string("abl_allreduce/") + coll::to_string(algo) + "/" +
                            std::to_string(doubles),
                        procs, us});
      }
      row.push_back(winner);
      t.add_row(std::move(row));
    }
    std::cout << "-- " << doubles << " doubles --\n";
    t.print(std::cout);
    std::cout << "\n";
  }

  const double fixed = contended_time(false);
  const double routed = contended_time(true);
  std::cout << "== Rail-contended 2 MiB allreduce (4 ranks + rail-0 interferers) ==\n";
  std::cout << "  fixed binomial (Default strategy):  " << harness::Table::fmt(fixed, 1)
            << " us\n";
  std::cout << "  cost-model-routed binomial:         " << harness::Table::fmt(routed, 1)
            << " us\n";
  std::cout << "  speedup: " << harness::Table::fmt(fixed / routed, 2) << "x\n\n";
  rows.push_back({"abl_allreduce/contended/fixed", 4, fixed});
  rows.push_back({"abl_allreduce/contended/routed", 4, routed});
  write_sidecar(rows);

  benchmark::RegisterBenchmark("abl/allreduce/contended", [fixed, routed](benchmark::State& st) {
    for (auto _ : st) {
      st.counters["fixed_us"] = fixed;
      st.counters["routed_us"] = routed;
      st.counters["speedup"] = fixed / routed;
    }
  })->Iterations(1)->Unit(benchmark::kMicrosecond);
  return nmx::bench::run_registered(argc, argv);
}
