// Tracing demo: run the sidecar workload (rendezvous over the network with
// overlapped compute, eager over shared memory, a barrier, PIOMan in the
// background) with an obs::Recorder attached, and write the two
// observability sidecars — the simulator's stand-in for the PM2 suite's FxT
// traces:
//   trace_dump.trace.json — Chrome trace-event JSON; open it in Perfetto
//                           (https://ui.perfetto.dev) or chrome://tracing to
//                           see one track per rank (spans for MPI waits,
//                           compute, message lifecycles, NIC activity) plus
//                           an engine-level track for PIOMan passes;
//   trace_dump.metrics.csv — counters/gauges/histograms (per-rail bytes,
//                           strategy queue depth, rendezvous handshake
//                           latency, PIOMan passes, ...).
// Exits nonzero when a sidecar cannot be written.
//
//   $ ./examples/trace_dump
#include <cstdio>

#include "harness/sidecar.hpp"
#include "mpi/cluster.hpp"

int main() {
  using namespace nmx;

  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;
  cfg.cyclic_mapping = true;  // rank pairs talk over the network, the barrier over shm
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  const std::size_t records = harness::run_traced_sidecar(cfg, "trace_dump");
  if (records == 0) return 1;
  std::printf("captured %zu trace records\n", records);
  return 0;
}
