#include "net/fabric.hpp"

#include <string>
#include <utility>

#include "net/calibration.hpp"
#include "obs/recorder.hpp"

namespace nmx::net {

NicProfile ib_profile() {
  NicProfile p;
  p.name = "ib-connectx";
  p.wire_latency = calib::kIbWireLatency;
  p.per_message = calib::kIbPerMessage;
  p.bandwidth = calib::kIbBandwidth;
  p.needs_registration = true;
  return p;
}

NicProfile mx_profile() {
  NicProfile p;
  p.name = "myri-10g-mx";
  p.wire_latency = calib::kMxWireLatency;
  p.per_message = calib::kMxPerMessage;
  p.bandwidth = calib::kMxBandwidth;
  p.needs_registration = false;  // MX registers internally
  return p;
}

Fabric::Fabric(sim::Engine& eng, Topology topo) : eng_(eng), topo_(std::move(topo)) {
  NMX_ASSERT(topo_.num_nodes > 0);
  NMX_ASSERT(topo_.num_rails() > 0);
  nics_.resize(static_cast<std::size_t>(topo_.num_nodes) * topo_.num_rails());
}

const NicProfile& Fabric::profile(int rail) const {
  NMX_ASSERT(rail >= 0 && rail < topo_.num_rails());
  return topo_.rails[rail];
}

std::size_t Fabric::nic_index(int node, int rail) const {
  NMX_ASSERT(node >= 0 && node < topo_.num_nodes);
  NMX_ASSERT(rail >= 0 && rail < topo_.num_rails());
  return static_cast<std::size_t>(node) * topo_.num_rails() + rail;
}

Fabric::Booking Fabric::book(const WirePacket& pkt) {
  NMX_ASSERT_MSG(pkt.src_node != pkt.dst_node,
                 "network loopback: intra-node traffic must use Nemesis shm");
  const NicProfile& prof = profile(pkt.rail);
  Nic& src = nics_[nic_index(pkt.src_node, pkt.rail)];
  Nic& dst = nics_[nic_index(pkt.dst_node, pkt.rail)];

  Time occupancy = prof.occupancy(pkt.bytes);
  bool on_dead_rail = false;
  if (fault_plan_ != nullptr) {
    // Silent degradation: the wire moves bytes at beta_factor x nominal, but
    // the profile (and thus every sampling probe) still claims full speed.
    const double f = fault_plan_->beta_factor(pkt.rail, eng_.now());
    if (f < 1.0) {
      occupancy = prof.per_message + static_cast<double>(pkt.bytes) / (prof.bandwidth * f);
    }
    // A dead rail admits nothing new; cores are notified synchronously at the
    // death event, so reaching here means the submission's software pre-cost
    // straddled the death instant. That packet was already committed to the
    // NIC — treat it as in-flight (it drains), and count it.
    on_dead_rail = fault_plan_->rail_dead(pkt.rail);
  }
  // Egress: the packet queues behind earlier sends from this node.
  const Channel::Grant out = src.egress.reserve(eng_.now(), occupancy);
  // Ingress: the receiving NIC is pipelined with the wire, but serializes
  // with other arrivals (this is where many-senders-one-node contention,
  // e.g. SP on 36 processes / 10 nodes, comes from).
  const Channel::Grant in = dst.ingress.reserve(out.begin + prof.wire_latency, occupancy);
  const Time delivery = std::max(out.end + prof.wire_latency, in.end);

  ++packets_sent_;
  if (obs::Recorder* rec = eng_.recorder()) {
    const std::string rail_label = "rail=" + std::to_string(pkt.rail);
    rec->metrics().counter("net.rail.tx_packets", rail_label).add(1);
    rec->metrics().counter("net.rail.tx_bytes", rail_label).add(pkt.bytes);
    if (on_dead_rail) rec->metrics().counter("net.fault.tx_on_dead_rail", rail_label).add(1);
  }
  return {out.end, delivery};
}

Time Fabric::egress_busy_until(int node, int rail) const {
  return nics_[nic_index(node, rail)].egress.busy_until();
}

Time Fabric::ingress_busy_until(int node, int rail) const {
  return nics_[nic_index(node, rail)].ingress.busy_until();
}

Time Fabric::uncontended_time(int rail, std::size_t bytes) const {
  const NicProfile& prof = profile(rail);
  return prof.wire_latency + prof.occupancy(bytes);
}

Time Fabric::uncontended_egress_time(int rail, std::size_t bytes) const {
  return profile(rail).occupancy(bytes);
}

}  // namespace nmx::net
