// Must-flag corpus for the thread-discipline pass. The mocks mirror the
// sim::Engine / net::Fabric surfaces including their context markers: the
// pass learns which functions are engine-context / actor-context from the
// `nmx-lint: <context>` comments on the declarations.
#include <functional>
#include <string>
#include <thread>

namespace fixture_thr_flag {

struct Packet {
  int dst = 0;
};

struct Fabric {
  /// Books NIC occupancy at the current virtual time; `on_arrival` runs
  /// when the packet lands.
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

/// An actor body driving the NIC directly: occupancy gets booked before the
/// driver's software pre-cost has elapsed, bypassing the event queue.
inline void actor_touches_nic(Engine& eng, Fabric& fab) {
  eng.spawn("sender", [&fab](Actor&) {
    fab.transmit(Packet{}, [] {});  // EXPECT: thread-discipline
  });
}

/// An engine callback blocking an actor: engine callbacks must never block.
inline void callback_blocks(Engine& eng, Actor& actor) {
  eng.schedule_in_checked(1.0, [&actor] {
    actor.block_until(2.0);  // EXPECT: thread-discipline
  });
}

struct FiberContext {};
// Mock of the sim/fiber.hpp primitive; the declaration itself is annotated
// because only the engine's own files are path-exempt.
// nmx-lint: allow(thread-discipline) mock declaration, not a context switch
void fiber_switch(FiberContext&, FiberContext&);

/// Simulated code spinning up a real OS thread: the fiber runtime's whole
/// correctness argument is "one context runs at a time"; a kernel thread
/// races the engine no matter how careful the body is.
inline void progress_helper_thread(Engine& eng) {
  std::thread helper([&eng] { (void)eng; });  // EXPECT: thread-discipline
  helper.join();
}

/// Hand-rolled baton passing: grabbing the switch primitive bypasses the
/// event queue's (t, seq) total order.
inline void sneaky_handoff(FiberContext& mine, FiberContext& engine_ctx) {
  fiber_switch(mine, engine_ctx);  // EXPECT: thread-discipline
}

}  // namespace fixture_thr_flag
