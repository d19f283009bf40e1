// PIOMan: the I/O event manager (§2.2.2, §3.3).
//
// PIOMan's job in the paper is to guarantee communication progress while the
// application computes: "the detection of the message completion is performed
// in the background by PIOMan during context switches, timer interrupts or
// when a CPU is idle". We model those trigger points with a reaction period:
// when gated work appears (a packet pended, a strategy has unflushed
// entries, shm cells landed), the Manager schedules a service pass
// `reaction_period` later on the simulated idle core, and keeps servicing
// while work remains.
//
// The measured price of this machinery — thread-safe request lists and driver
// locks — is charged by the layers themselves (calib::kPiomanNetOverhead,
// kPiomanShmOverhead) whenever PIOMan mode is on; the Manager contributes the
// *asynchrony*, not the constants.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/calibration.hpp"
#include "pioman/ltask.hpp"
#include "sim/engine.hpp"

namespace nmx::pioman {

struct ManagerConfig {
  Time reaction_period = calib::kPiomanReactionPeriod;
  /// Rank this manager serves, for trace attribution (-1 = engine-wide).
  int rank = -1;
};

class Manager {
 public:
  Manager(sim::Engine& eng, ManagerConfig cfg = {});

  /// Submit a recurring poll task. Its body runs at every service pass and
  /// returns whether more gated work may remain.
  Ltask& submit(std::string name, Ltask::Body body);

  /// Signal that gated work appeared (hooked to NewMadeleine's async
  /// notifier and the Nemesis mailbox). Schedules a service pass one
  /// reaction period out, if none is pending.
  void notify();

  std::uint64_t service_passes() const { return passes_; }

 private:
  void service();

  sim::Engine& eng_;
  ManagerConfig cfg_;
  std::vector<std::unique_ptr<Ltask>> tasks_;
  bool scheduled_ = false;
  std::uint64_t passes_ = 0;
};

}  // namespace nmx::pioman
