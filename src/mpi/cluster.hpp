// SPMD launcher: builds the simulated cluster (fabric, per-node shared
// memory, one transport per process) and runs one actor per MPI rank.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/transport.hpp"
#include "nemesis/shm.hpp"
#include "net/fabric.hpp"
#include "nmad/types.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace nmx::nmad {
class Core;
}
namespace nmx::baseline {
class BaseTransport;
}

namespace nmx::mpi {

enum class StackKind {
  Mpich2Nmad,   ///< the paper's stack (CH3 + Nemesis + NewMadeleine [+PIOMan])
  Mvapich2,     ///< MVAPICH2 1.0.3-like baseline
  OpenMpiBtlIb, ///< Open MPI 1.2.7-like, openib BTL
  OpenMpiBtlMx, ///< Open MPI, MX BTL
  OpenMpiCmMx,  ///< Open MPI, CM PML over the MX MTL
};

std::string to_string(StackKind k);

struct ClusterConfig {
  int nodes = 2;
  int procs = 2;
  std::vector<net::NicProfile> rails{net::ib_profile()};
  /// false: block mapping (fill node 0 first). true: cyclic/scatter mapping
  /// (rank p on node p % nodes), the paper's Grid'5000 placement.
  bool cyclic_mapping = false;

  StackKind stack = StackKind::Mpich2Nmad;

  // MPICH2-NewMadeleine knobs
  nmad::StrategyKind strategy = nmad::StrategyKind::Aggreg;
  bool pioman = false;
  bool bypass = true;          ///< false = legacy netmod path (Fig 2 ablation)
  bool adaptive_split = true;  ///< false = naive even multirail split
  /// CostModel: rendezvous chunk cap so the split re-plans while draining.
  std::size_t rdv_quantum = 2_MiB;
  /// Receiver-directed flow control: CTS grants carry the receiver's per-rail
  /// ingress load, and the cost model folds it into the split (tentpole of
  /// the two-ended estimator). false = legacy 16-byte CTS, one-ended model.
  bool two_ended_rdv = true;
  /// Per-rank local-rails override (Mpich2Nmad only): rank -> fabric rail
  /// indices it drives. Ranks not listed drive every rail. Lets benchmarks
  /// pin interfering traffic to one rail of a multirail node.
  std::map<int, std::vector<int>> rank_rails;

  /// Algorithm of each collective that has a choice (allreduce, alltoall;
  /// see src/coll). Every communicator of the run, split children included,
  /// uses it.
  coll::Config coll;

  // baseline knobs
  bool mvapich_rcache = true;

  /// Attach an obs::Recorder to the run (Cluster::recorder()).
  bool trace = false;

  // Chaos / fault injection (Mpich2Nmad only)
  /// Deterministic fault schedule; empty = healthy run (no FaultPlan is
  /// built, so the hot path never even branches on it).
  sim::FaultSpec faults;
  /// CTS-timeout RTS retransmission (0 = off, the default — see
  /// nmad::Config::rdv_retry_timeout).
  Time rdv_retry_timeout = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  /// Run `body` as an SPMD program, one simulated rank per process. May be
  /// called repeatedly; virtual time keeps advancing.
  void run(std::function<void(Comm&)> body);

  /// MPI_THREAD_MULTIPLE-style execution: `threads` application threads per
  /// rank, each with its own Comm view onto the shared per-process stack.
  /// This is the usage §3.3.2 anticipates: "whenever an application thread
  /// waits for a message completion ... it is blocked on a semaphore and
  /// another thread can be scheduled" — here each thread is a simulated
  /// actor that blocks independently and is woken by its own completion.
  void run_threads(int threads, std::function<void(Comm&, int thread)> body);

  sim::Engine& engine() { return eng_; }
  net::Fabric& fabric() { return *fabric_; }
  Transport& transport(int rank) { return *transports_.at(static_cast<std::size_t>(rank)); }
  const ClusterConfig& config() const { return cfg_; }
  /// Virtual time now (seconds).
  Time now() const { return eng_.now(); }
  /// The observability store (null unless config().trace).
  obs::Recorder* recorder() { return recorder_.get(); }
  /// The armed fault plan (null on healthy runs).
  sim::FaultPlan* fault_plan() { return fault_plan_.get(); }

 private:
  ClusterConfig cfg_;
  sim::Engine eng_;
  std::unique_ptr<sim::FaultPlan> fault_plan_;  // before fabric_: outlives users
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<nemesis::ShmNode>> shm_nodes_;   // per node (may be null)
  // Delivery tables (proc -> receiving endpoint); the configured stack
  // fills one of them. Declared before transports_: they outlive them.
  net::Endpoints<nmad::Core> cores_;
  net::Endpoints<baseline::BaseTransport> baselines_;
  std::vector<std::unique_ptr<Transport>> transports_;         // per proc
  std::unique_ptr<obs::Recorder> recorder_;
  int runs_ = 0;
};

}  // namespace nmx::mpi
