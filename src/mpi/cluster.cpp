#include "mpi/cluster.hpp"

#include <numeric>

#include "baseline/mvapich.hpp"
#include "baseline/openmpi.hpp"
#include "ch3/process.hpp"

namespace nmx::mpi {

std::string to_string(StackKind k) {
  switch (k) {
    case StackKind::Mpich2Nmad: return "MPICH2-NMad";
    case StackKind::Mvapich2: return "MVAPICH2";
    case StackKind::OpenMpiBtlIb: return "OpenMPI-BTL-IB";
    case StackKind::OpenMpiBtlMx: return "OpenMPI-BTL-MX";
    case StackKind::OpenMpiCmMx: return "OpenMPI-CM-MX";
  }
  return "?";
}

Cluster::Cluster(ClusterConfig cfg) : cfg_(cfg), cores_(cfg.procs), baselines_(cfg.procs) {
  NMX_ASSERT(cfg_.nodes > 0 && cfg_.procs > 0);
  NMX_ASSERT(!cfg_.rails.empty());
  if (cfg_.trace) {
    recorder_ = std::make_unique<obs::Recorder>();
    eng_.set_recorder(recorder_.get());
  }
  net::Topology topo = cfg_.cyclic_mapping
                           ? net::Topology::cyclic(cfg_.nodes, cfg_.procs, cfg_.rails)
                           : net::Topology::blocked(cfg_.nodes, cfg_.procs, cfg_.rails);
  fabric_ = std::make_unique<net::Fabric>(eng_, topo);
  if (!cfg_.faults.empty()) {
    fault_plan_ = std::make_unique<sim::FaultPlan>(cfg_.faults);
    fabric_->set_fault_plan(fault_plan_.get());
  }
  const net::Topology& t = fabric_->topology();

  // Per-node shared-memory region (when >1 local process).
  shm_nodes_.resize(static_cast<std::size_t>(t.num_nodes));
  for (int n = 0; n < t.num_nodes; ++n) {
    if (t.procs_on(n) > 1) {
      shm_nodes_[static_cast<std::size_t>(n)] =
          std::make_unique<nemesis::ShmNode>(eng_, t.procs_on(n));
    }
  }

  for (int p = 0; p < t.num_procs(); ++p) {
    const int node = t.node_of(p);
    const int local = t.local_index(p);
    nemesis::ShmNode* shm = shm_nodes_[static_cast<std::size_t>(node)].get();

    switch (cfg_.stack) {
      case StackKind::Mpich2Nmad: {
        ch3::Ch3Process::Config c;
        c.nmad.strategy = cfg_.strategy;
        c.nmad.adaptive_split = cfg_.adaptive_split;
        c.nmad.rdv_quantum = cfg_.rdv_quantum;
        c.nmad.advertise_rdv_load = cfg_.two_ended_rdv;
        c.nmad.rdv_retry_timeout = cfg_.rdv_retry_timeout;
        c.nmad.fault_plan = fault_plan_.get();
        c.nmad.rails.clear();
        if (auto rr = cfg_.rank_rails.find(p); rr != cfg_.rank_rails.end()) {
          c.nmad.rails = rr->second;
        } else {
          for (int r = 0; r < t.num_rails(); ++r) c.nmad.rails.push_back(r);
        }
        c.pioman = cfg_.pioman;
        c.bypass = cfg_.bypass;
        transports_.push_back(
            std::make_unique<ch3::Ch3Process>(eng_, *fabric_, cores_, shm, p, local, c));
        break;
      }
      case StackKind::Mvapich2: {
        baseline::BaseTransport::Env env{&eng_, fabric_.get(), &baselines_, shm, p, local};
        transports_.push_back(
            std::make_unique<baseline::MvapichTransport>(env, cfg_.mvapich_rcache));
        break;
      }
      case StackKind::OpenMpiBtlIb:
      case StackKind::OpenMpiBtlMx:
      case StackKind::OpenMpiCmMx: {
        const baseline::OmpiVariant v =
            cfg_.stack == StackKind::OpenMpiBtlIb   ? baseline::OmpiVariant::BtlIb
            : cfg_.stack == StackKind::OpenMpiBtlMx ? baseline::OmpiVariant::BtlMx
                                                     : baseline::OmpiVariant::CmMx;
        baseline::BaseTransport::Env env{&eng_, fabric_.get(), &baselines_, shm, p, local};
        transports_.push_back(std::make_unique<baseline::OmpiTransport>(env, v));
        break;
      }
    }
  }
  // Arm after every transport exists: the cores' rail-down/restart listeners
  // are registered in their constructors, and arm() schedules the timed
  // faults that will invoke them.
  if (fault_plan_ != nullptr) fault_plan_->arm(eng_);
}

Cluster::~Cluster() = default;

void Cluster::run_threads(int threads, std::function<void(Comm&, int thread)> body) {
  NMX_ASSERT(threads > 0);
  ++runs_;
  // Rank actors from a previous run() are all finished; drop their records
  // so repeated runs on one cluster pool per-rank state instead of growing
  // the actor table (their fiber stacks were already recycled on exit).
  eng_.reap_finished();
  const net::Topology& t = fabric_->topology();
  // Threads of each rank still running: the last one out finalizes.
  std::vector<int> running(static_cast<std::size_t>(cfg_.procs), threads);
  for (int p = 0; p < cfg_.procs; ++p) {
    const int locals = t.procs_on(t.node_of(p));
    for (int th = 0; th < threads; ++th) {
      eng_.spawn("rank" + std::to_string(p) + ".t" + std::to_string(th) + ".run" +
                     std::to_string(runs_),
                 [this, p, th, locals, body, &running](sim::Actor& self) {
                   Transport& tx = *transports_[static_cast<std::size_t>(p)];
                   Comm comm(self, tx, eng_, p, cfg_.procs, locals);
                   comm.set_coll_config(cfg_.coll);
                   body(comm, th);
                   if (--running[static_cast<std::size_t>(p)] == 0) tx.finalize(self);
                 });
    }
  }
  eng_.run();
}

void Cluster::run(std::function<void(Comm&)> body) {
  ++runs_;
  eng_.reap_finished();  // see run_threads: pool per-rank state across runs
  const net::Topology& t = fabric_->topology();
  for (int p = 0; p < cfg_.procs; ++p) {
    const int locals = t.procs_on(t.node_of(p));
    eng_.spawn("rank" + std::to_string(p) + ".run" + std::to_string(runs_),
               [this, p, locals, body](sim::Actor& self) {
                 Transport& tx = *transports_[static_cast<std::size_t>(p)];
                 Comm comm(self, tx, eng_, p, cfg_.procs, locals);
                 comm.set_coll_config(cfg_.coll);
                 body(comm);
                 tx.finalize(self);
               });
  }
  eng_.run();
}

}  // namespace nmx::mpi
