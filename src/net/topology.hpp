// Cluster topology: nodes, the mapping of MPI processes to nodes, and the
// set of network rails (NIC profiles) every node is equipped with.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace nmx::net {

/// Static description of one NIC model. Instances for the paper's testbed
/// are built by ib_profile() / mx_profile() from the calibration constants.
struct NicProfile {
  std::string name;
  Time wire_latency = 0;    ///< one-way propagation + switch traversal
  Time per_message = 0;     ///< fixed DMA/doorbell cost per wire packet
  Bandwidth bandwidth = 0;  ///< sustained unidirectional bandwidth
  bool needs_registration = false;  ///< true: host memory must be pinned (IB)

  /// Uncontended time the NIC occupies for a packet of `bytes`.
  Time occupancy(std::size_t bytes) const {
    return per_message + static_cast<double>(bytes) / bandwidth;
  }
};

NicProfile ib_profile();
NicProfile mx_profile();

/// Cluster layout. Rails are uniform across nodes (the paper's testbeds are
/// homogeneous: every box has the same NICs).
struct Topology {
  int num_nodes = 0;
  std::vector<int> proc_node;       ///< proc rank -> node index
  std::vector<int> proc_local;      ///< proc rank -> index among its node's procs
  std::vector<int> node_procs;      ///< node index -> number of procs on it
  std::vector<NicProfile> rails;    ///< rail index -> NIC model

  int num_procs() const { return static_cast<int>(proc_node.size()); }
  int num_rails() const { return static_cast<int>(rails.size()); }
  int node_of(int proc) const {
    NMX_ASSERT(proc >= 0 && proc < num_procs());
    return proc_node[proc];
  }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  /// Node-local index of `proc`: its rank order among the procs of its node
  /// (the Nemesis queue it owns on that node's shared-memory region).
  int local_index(int proc) const {
    NMX_ASSERT(proc >= 0 && proc < num_procs());
    return proc_local[static_cast<std::size_t>(proc)];
  }
  int procs_on(int node) const {
    NMX_ASSERT(node >= 0 && node < num_nodes);
    return node_procs[static_cast<std::size_t>(node)];
  }

  /// `procs` ranks distributed round-robin-block over `nodes` nodes
  /// (ranks 0..k-1 on node 0, etc. — the usual block mapping).
  static Topology blocked(int nodes, int procs, std::vector<NicProfile> rails_) {
    NMX_ASSERT(nodes > 0 && procs > 0);
    Topology t;
    t.num_nodes = nodes;
    t.rails = std::move(rails_);
    const int per = (procs + nodes - 1) / nodes;
    for (int p = 0; p < procs; ++p) t.proc_node.push_back(p / per);
    t.index_locals();
    return t;
  }

  /// Cyclic (scatter) mapping: rank p on node p % nodes. This is the
  /// paper's Grid'5000 placement — "in the 8 (or 9) processes case, only
  /// one process runs on a node" (§4.2).
  static Topology cyclic(int nodes, int procs, std::vector<NicProfile> rails_) {
    NMX_ASSERT(nodes > 0 && procs > 0);
    Topology t;
    t.num_nodes = nodes;
    t.rails = std::move(rails_);
    for (int p = 0; p < procs; ++p) t.proc_node.push_back(p % nodes);
    t.index_locals();
    return t;
  }

 private:
  /// Derive proc_local and node_procs from proc_node in one pass.
  void index_locals() {
    node_procs.assign(static_cast<std::size_t>(num_nodes), 0);
    proc_local.clear();
    for (const int node : proc_node) {
      proc_local.push_back(node_procs[static_cast<std::size_t>(node)]++);
    }
  }
};

}  // namespace nmx::net
