// Must-pass corpus for the thread-discipline pass: the legal context
// pairings, including the innermost-context rule (a schedule-lambda inside
// an actor body is engine context).
#include <functional>
#include <string>
#include <thread>

namespace fixture_thr_pass {

struct Packet {
  int dst = 0;
};

struct Fabric {
  // nmx-lint: engine-context
  template <typename F>
  double transmit(Packet, F&&) { return 0.0; }
};

struct Actor {
  // nmx-lint: actor-context
  bool block_until(double) { return true; }
  void wake() {}
};

struct Engine {
  template <typename F>
  unsigned long long schedule_in_checked(double, F&&) { return 1; }
  Actor& spawn(const std::string&, std::function<void(Actor&)>) {
    static Actor a;
    return a;
  }
};

/// Engine callbacks own the fabric: transmit from a scheduled closure is the
/// intended shape.
inline void engine_callback_transmits(Engine& eng, Fabric& fab) {
  eng.schedule_in_checked(1.0, [&fab] { fab.transmit(Packet{}, [] {}); });
}

/// An actor that routes NIC work through the event queue and blocks in its
/// own context: both calls are legal, including the engine-context transmit
/// inside the nested schedule-lambda (innermost context wins).
inline void actor_routes_through_queue(Engine& eng, Fabric& fab) {
  eng.spawn("rank0", [&eng, &fab](Actor& self) {
    eng.schedule_in_checked(0.5, [&fab] { fab.transmit(Packet{}, [] {}); });
    self.block_until(1.0);
  });
}

/// The sanctioned escape hatch for real threads: code that provably never
/// touches simulation state (here, a harness timing guard) may keep one
/// behind a justification the next reader can audit.
inline void watchdog_outside_simulation() {
  // nmx-lint: allow(thread-discipline) wall-clock watchdog, never touches sim state
  std::thread guard([] {});
  guard.join();
}

}  // namespace fixture_thr_pass
