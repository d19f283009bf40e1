// The simulated network fabric as a pure timing model: per-node NICs on each
// rail, FIFO occupancy on both the egress and ingress side (which is where
// NIC contention — a motivating concern of the paper's introduction —
// emerges mechanistically). A transmission books both NICs and runs the
// sender's arrival callback when the last byte lands. The packet's contents
// never pass through the fabric: the callback carries them straight to the
// destination process (see Endpoints).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace nmx::net {

/// What the NIC sees of a packet: where it goes and how many bytes it times.
struct WirePacket {
  int src_node = -1;
  int dst_node = -1;
  int rail = -1;
  std::size_t bytes = 0;
};

/// One cluster's delivery table: process rank -> the stack object that
/// receives its packets. Send callbacks look the destination up here on
/// arrival and hand it their typed packet directly.
template <class Endpoint>
class Endpoints {
 public:
  explicit Endpoints(int procs) : peers_(static_cast<std::size_t>(procs), nullptr) {}
  Endpoints(const Endpoints&) = delete;  // arrival callbacks hold its address
  Endpoints& operator=(const Endpoints&) = delete;

  void add(int proc, Endpoint* ep) {
    NMX_ASSERT_MSG(slot(proc) == nullptr, "proc endpoint registered twice");
    peers_[static_cast<std::size_t>(proc)] = ep;
  }
  Endpoint& operator[](int proc) const {
    Endpoint* ep = slot(proc);
    NMX_ASSERT_MSG(ep != nullptr, "packet for unregistered process");
    return *ep;
  }
  /// The endpoint of `proc`, or null while none is registered.
  Endpoint* find(int proc) const { return slot(proc); }

 private:
  Endpoint* slot(int proc) const {
    NMX_ASSERT(proc >= 0 && static_cast<std::size_t>(proc) < peers_.size());
    return peers_[static_cast<std::size_t>(proc)];
  }

  std::vector<Endpoint*> peers_;
};

/// One direction of a NIC: a FIFO resource that transfers occupy.
class Channel {
 public:
  /// Reserve the channel for `duration` starting no earlier than `t`.
  /// Returns the interval [begin, end) actually granted.
  struct Grant {
    Time begin;
    Time end;
  };
  Grant reserve(Time t, Time duration) {
    const Time begin = std::max(t, busy_until_);
    busy_until_ = begin + duration;
    return {begin, busy_until_};
  }
  Time busy_until() const { return busy_until_; }

 private:
  Time busy_until_ = 0;
};

class Fabric {
 public:
  Fabric(sim::Engine& eng, Topology topo);

  const Topology& topology() const { return topo_; }
  const NicProfile& profile(int rail) const;

  /// Queue `pkt` on the source node's NIC for `pkt.rail`; `on_arrival` runs
  /// when the last byte lands (wire latency + occupancy + any queueing behind
  /// earlier transfers on either NIC). Returns the time the sending NIC
  /// finishes reading the buffer (local/egress completion) — drivers use it
  /// to schedule their next submission.
  ///
  /// Reserves NIC occupancy *at the current virtual time*: calling this from
  /// an actor body instead of a scheduled callback would book the channel
  /// before the driver's software pre-cost has elapsed, corrupting every
  /// load probe that reads busy_until. nmx_lint's thread-discipline pass
  /// enforces the marker below.
  // nmx-lint: engine-context
  template <typename OnArrival>
  Time transmit(const WirePacket& pkt, OnArrival&& on_arrival) {
    const Booking b = book(pkt);
    eng_.schedule_checked(b.delivery, std::forward<OnArrival>(on_arrival));
    return b.egress_end;
  }

  /// Uncontended one-way transfer time on `rail` for `bytes` — what a
  /// network-sampling probe would measure on an idle machine.
  Time uncontended_time(int rail, std::size_t bytes) const;

  /// Uncontended *egress* time on `rail` for `bytes`: how long the sending
  /// NIC holds the buffer (what transmit() returns relative to submission on
  /// an idle machine). Excludes wire latency — that share overlaps with the
  /// sender's next submission, so completion-time estimators that include it
  /// carry a systematic offset.
  Time uncontended_egress_time(int rail, std::size_t bytes) const;

  /// Absolute time (node, rail)'s egress channel is booked until (<= now when
  /// the NIC is idle). This is the live occupancy signal a load-aware
  /// strategy reads; it includes traffic from co-located processes sharing
  /// the NIC, which the sender's own queue accounting cannot see.
  Time egress_busy_until(int node, int rail) const;

  /// Absolute time (node, rail)'s *ingress* channel is booked until (<= now
  /// when idle). Mirrors egress_busy_until for the receive direction: this is
  /// what a receiver samples at CTS-grant time to advertise its rail load to
  /// the sender (in-flight arrivals from any peer, including traffic for
  /// co-located processes sharing the NIC).
  Time ingress_busy_until(int node, int rail) const;

  std::size_t packets_sent() const { return packets_sent_; }

  /// Attach a fault plan (not owned; null = healthy fabric). Degraded rails
  /// transmit at beta_factor x bandwidth — *silently*: the uncontended_*
  /// probes keep answering with the healthy profile, so samplers only learn
  /// of the degradation through prediction error. Dead rails still deliver
  /// packets already granted admission (fail-stop at admission is the
  /// senders' job, via FaultPlan::on_rail_down); a transmit that races the
  /// death inside its software pre-cost window counts as in-flight and is
  /// delivered, surfacing as net.fault.tx_on_dead_rail.
  void set_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }
  sim::FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  struct Nic {
    Channel egress;
    Channel ingress;
  };
  struct Booking {
    Time egress_end;  ///< the sending NIC has read the buffer
    Time delivery;    ///< the last byte has landed
  };
  std::size_t nic_index(int node, int rail) const;  ///< into nics_
  /// Book egress and ingress occupancy for `pkt` (fault degradation and the
  /// dead-rail counter included).
  Booking book(const WirePacket& pkt);

  sim::Engine& eng_;
  Topology topo_;
  std::vector<Nic> nics_;  // node-major [node * num_rails + rail]
  std::size_t packets_sent_ = 0;
  sim::FaultPlan* fault_plan_ = nullptr;
};

}  // namespace nmx::net
