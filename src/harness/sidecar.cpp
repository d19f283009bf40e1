#include "harness/sidecar.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "obs/export_chrome.hpp"

namespace nmx::harness {

bool write_sidecars(mpi::Cluster& cluster, const std::string& stem) {
  obs::Recorder* rec = cluster.recorder();
  if (rec == nullptr) return false;
  const std::string trace = stem + ".trace.json";
  const std::string csv = stem + ".metrics.csv";
  const bool trace_ok = obs::write_chrome_trace_file(*rec, trace);
  std::ofstream csv_os(csv);
  if (csv_os) rec->metrics().write_csv(csv_os);
  const bool csv_ok = static_cast<bool>(csv_os);
  if (!trace_ok) std::fprintf(stderr, "sidecar: cannot write %s\n", trace.c_str());
  if (!csv_ok) std::fprintf(stderr, "sidecar: cannot write %s\n", csv.c_str());
  return trace_ok && csv_ok;
}

std::vector<obs::RailParam> rail_params(const mpi::ClusterConfig& cfg) {
  std::vector<obs::RailParam> out;
  out.reserve(cfg.rails.size());
  for (const net::NicProfile& p : cfg.rails) {
    obs::RailParam rp;
    rp.name = p.name;
    rp.lambda = p.wire_latency + p.per_message;
    rp.beta = p.bandwidth;
    out.push_back(std::move(rp));
  }
  return out;
}

obs::RunReport analyze_cluster(mpi::Cluster& cluster, std::string name) {
  obs::Recorder* rec = cluster.recorder();
  if (rec == nullptr) {
    obs::RunReport empty;
    empty.name = std::move(name);
    return empty;
  }
  return obs::analyze_run(*rec, std::move(name), cluster.config().procs,
                          rail_params(cluster.config()));
}

bool write_report_sidecar(const obs::Report& rep, const std::string& stem) {
  const std::string path = stem + ".report.json";
  if (!obs::write_report_file(rep, path)) return false;
  obs::print_report_summary(rep, std::cout);
  std::printf("report sidecar: %s\n", path.c_str());
  return true;
}

std::size_t run_traced_sidecar(mpi::ClusterConfig cfg, const std::string& stem) {
  cfg.trace = true;
  cfg.pioman = true;  // so PIOMan pass metrics show up in the sidecar
  mpi::Cluster cluster(cfg);

  cluster.run([](mpi::Comm& c) {
    // Rendezvous-sized ping across the network with overlapped compute, an
    // eager message, and a closing barrier — touches every instrumented
    // layer (strategy, rails, PIOMan, rendezvous handshake, wire, shm when
    // ranks share a node).
    std::vector<std::byte> big(256 * 1024), small(1024);
    const int partner = c.rank() ^ 1;
    if (partner < c.size()) {
      if (c.rank() % 2 == 0) {
        mpi::Request r = c.isend(big.data(), big.size(), partner, 7);
        c.compute(30e-6);
        c.wait(r);
        c.send(small.data(), small.size(), partner, 8);
      } else {
        c.recv(big.data(), big.size(), partner, 7);
        c.recv(small.data(), small.size(), partner, 8);
      }
    }
    c.barrier();
  });

  if (!write_sidecars(cluster, stem)) return 0;
  std::printf("sidecars: %s.trace.json (open in https://ui.perfetto.dev), %s.metrics.csv\n",
              stem.c_str(), stem.c_str());
  return cluster.recorder()->size();
}

}  // namespace nmx::harness
