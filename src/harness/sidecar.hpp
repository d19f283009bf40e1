// Observability sidecars: given a traced cluster, write the Chrome
// trace-event JSON (`<stem>.trace.json`, loadable in Perfetto / about:tracing)
// and the metrics CSV (`<stem>.metrics.csv`) next to a bench's printed
// tables. The per-figure benches call run_traced_sidecar() after their tables
// so every fig*_* run leaves machine-readable artifacts behind.
#pragma once

#include <string>
#include <vector>

#include "mpi/cluster.hpp"
#include "obs/report.hpp"

namespace nmx::harness {

/// Write `<stem>.trace.json` and `<stem>.metrics.csv` from the cluster's
/// recorder. Returns false if tracing was off (nothing written) or if either
/// file cannot be written; each failing path is printed to stderr.
bool write_sidecars(mpi::Cluster& cluster, const std::string& stem);

/// Analytic rail parameters (lambda = wire latency + per-message cost,
/// beta = bandwidth) of a cluster's rails, for the latency-tolerance model.
std::vector<obs::RailParam> rail_params(const mpi::ClusterConfig& cfg);

/// Analyze the cluster's trace (critical path + latency tolerance) into one
/// report entry named `name`.
obs::RunReport analyze_cluster(mpi::Cluster& cluster, std::string name);

/// Write `<stem>.report.json` from an assembled report and print its
/// human-readable summary table. Returns false if the file cannot be written.
bool write_report_sidecar(const obs::Report& rep, const std::string& stem);

/// Run a small mixed workload (network rendezvous + overlap compute, eager
/// shared-memory traffic, a barrier) on `cfg` with tracing and PIOMan forced
/// on, then write both sidecars (a failed write names its path on stderr).
/// One call per bench binary gives every figure a Perfetto-loadable trace
/// without touching its measured runs.
/// Returns the number of trace records captured, or 0 when a write failed.
std::size_t run_traced_sidecar(mpi::ClusterConfig cfg, const std::string& stem);

}  // namespace nmx::harness
