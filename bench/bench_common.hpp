// Shared plumbing for the per-figure bench binaries: every binary first
// prints the paper-style series tables (computed once — the simulation is
// deterministic), then runs its registered google-benchmark entries so the
// same numbers are available as machine-readable counters.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/netpipe.hpp"
#include "harness/overlap.hpp"
#include "harness/sidecar.hpp"
#include "harness/table.hpp"
#include "mpi/cluster.hpp"

namespace nmx::bench {

/// Emit the figure's observability sidecar: a traced mixed workload on `cfg`,
/// written as `<stem>.trace.json` (Perfetto) and `<stem>.metrics.csv`. A
/// failed write names the stem on stderr and exits the binary with status 1.
inline void emit_default_sidecar(const std::string& stem, mpi::ClusterConfig cfg) {
  if (harness::run_traced_sidecar(std::move(cfg), stem) == 0) {
    std::cerr << "sidecar: " << stem << " failed\n";
    std::exit(1);
  }
}

/// Register a google-benchmark entry reporting a netpipe point's latency and
/// bandwidth as counters.
inline void register_netpipe(const std::string& name, mpi::ClusterConfig cfg, std::size_t size,
                             bool any_source = false) {
  benchmark::RegisterBenchmark(name.c_str(), [cfg, size, any_source](benchmark::State& st) {
    for (auto _ : st) {
      auto pts = harness::netpipe(cfg, {size}, 3, any_source);
      st.counters["lat_us"] = pts[0].latency_us;
      st.counters["MBps"] = pts[0].bandwidth_MBps;
    }
  })->Iterations(1)->Unit(benchmark::kMicrosecond);
}

inline int run_registered(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace nmx::bench
