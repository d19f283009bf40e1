// Stress tests for the pooled-event engine: randomized schedule/cancel
// sequences are replayed against a naive reference queue (a multimap ordered
// by (t, seq)) and must execute in exactly the reference order; the pool
// accounting must balance (no leaked slots, no tombstone residue, zero heap
// allocations for small closures); and the fiber actor runtime must stay
// sound at 1024 ranks — spawn/teardown waves reuse pooled stacks, blocked
// actors unwind cleanly on destruction, an overflowing actor hits its guard
// page instead of a neighbor, and the deadlock detector names every stuck
// actor.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace nmx {
namespace {

using sim::Engine;
using sim::EventId;

// ---------------------------------------------------------------------------
// Randomized schedule/cancel vs. a naive reference queue
// ---------------------------------------------------------------------------

// Mirrors the engine's contract with the simplest possible structure: every
// schedule inserts (t_clamped, insertion-order) -> label; cancel marks the
// label dead; execution must visit live labels in exact key order.
struct ReferenceQueue {
  std::map<std::pair<Time, std::uint64_t>, std::uint64_t> pending;  // (t, seq) -> label
  std::set<std::uint64_t> cancelled;
  std::uint64_t next_seq = 0;

  void insert(Time t, std::uint64_t label) { pending[{t, next_seq++}] = label; }

  /// Pop the next live label; asserts it matches `label` at time `t`.
  void expect_front(Time t, std::uint64_t label) {
    while (!pending.empty() && cancelled.count(pending.begin()->second) > 0) {
      pending.erase(pending.begin());
    }
    ASSERT_FALSE(pending.empty()) << "engine ran label " << label << " the reference lacks";
    EXPECT_EQ(pending.begin()->second, label) << "execution order diverged from reference";
    EXPECT_EQ(pending.begin()->first.first, t) << "event ran at the wrong virtual time";
    pending.erase(pending.begin());
  }

  std::size_t live() const {
    std::size_t n = 0;
    for (const auto& [key, label] : pending) n += cancelled.count(label) == 0 ? 1 : 0;
    return n;
  }
};

class StressDriver {
 public:
  StressDriver(std::uint64_t seed, std::size_t max_events)
      : rng_(seed), max_events_(max_events) {}

  void run() {
    for (int i = 0; i < 32; ++i) step();  // seed the storm from t=0
    eng_.run();
    EXPECT_EQ(ref_.live(), 0u) << "reference still has live events the engine never ran";
    // Pool accounting: every slot returned, every tombstone reaped, and the
    // small closures below never touched the heap.
    EXPECT_EQ(eng_.live_events(), 0u) << "leaked pool slots";
    EXPECT_EQ(eng_.tombstones(), 0u);
    EXPECT_EQ(eng_.closure_heap_allocs(), 0u) << "steady-state closure spilled to the heap";
    EXPECT_EQ(executed_, eng_.events_processed());
  }

 private:
  // One random action: mostly schedules (mixed absolute/delta/past-clamped),
  // sometimes cancels of a random outstanding, stale, or already-run id.
  void step() {
    const std::uint64_t roll = rng_.below(100);
    if (roll < 70 && scheduled_ < max_events_) {
      schedule_one();
    } else if (!outstanding_.empty()) {
      const std::size_t pick = rng_.below(outstanding_.size());
      const auto [id, label] = outstanding_[pick];
      eng_.cancel(id);     // O(1) tombstone; may be stale (already ran) — no-op then
      eng_.cancel(id);     // double-cancel must also be a no-op
      ref_.cancelled.insert(label);
      outstanding_[pick] = outstanding_.back();
      outstanding_.pop_back();
    }
  }

  void schedule_one() {
    const std::uint64_t label = next_label_++;
    ++scheduled_;
    Time t;
    EventId id;
    auto body = [this, label] { on_fire(label); };
    switch (rng_.below(4)) {
      case 0: {  // constant-delta fast path (NIC-style)
        static constexpr Time kDeltas[3] = {1e-7, 3e-7, 1.1e-6};
        const Time dt = kDeltas[rng_.below(3)];
        t = eng_.now() + dt;
        id = eng_.schedule_in(dt, body);
        break;
      }
      case 1: {  // varying delta -> heap
        const Time dt = static_cast<Time>(1 + rng_.below(5000)) * 1e-9;
        t = eng_.now() + dt;
        id = eng_.schedule_in(dt, body);
        break;
      }
      case 2: {  // absolute future time -> heap
        t = eng_.now() + static_cast<Time>(rng_.below(3000)) * 1e-9;
        id = eng_.schedule(t, body);
        break;
      }
      default: {  // past absolute time: clamps to now -> due bucket
        t = eng_.now();
        id = eng_.schedule(eng_.now() - 1e-6, body);
        break;
      }
    }
    ref_.insert(t, label);
    outstanding_.push_back({id, label});
  }

  void on_fire(std::uint64_t label) {
    ++executed_;
    ref_.expect_front(eng_.now(), label);
    std::erase_if(outstanding_, [&](const auto& p) { return p.second == label; });
    // Keep the storm alive: every execution takes a few more random actions.
    const int n = 1 + static_cast<int>(rng_.below(3));
    for (int i = 0; i < n; ++i) step();
  }

  sim::Xoshiro256 rng_;
  std::size_t max_events_;
  Engine eng_;
  ReferenceQueue ref_;
  std::vector<std::pair<EventId, std::uint64_t>> outstanding_;
  std::uint64_t next_label_ = 0;
  std::size_t scheduled_ = 0;
  std::size_t executed_ = 0;
};

class EngineStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineStress, MatchesReferenceQueueOrderWithoutLeaks) {
  StressDriver d(GetParam(), /*max_events=*/20000);
  d.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineStress, ::testing::Values(1, 7, 42, 1234, 987654321));

// ---------------------------------------------------------------------------
// Cancellation-heavy paths
// ---------------------------------------------------------------------------

TEST(EngineStress, MassCancellationCompactsTheHeapAndFreesEverySlot) {
  Engine eng;
  std::vector<EventId> ids;
  std::size_t fired = 0;
  // Distinct deltas so everything lands in the binary heap (the delta-queue
  // fast path only keeps 8 repeated constants).
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(eng.schedule_in(1e-6 + static_cast<Time>(i) * 1e-9, [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 != 0) eng.cancel(ids[i]);  // kill 90%
  }
  EXPECT_GT(eng.tombstones(), 0u);
  eng.run();
  EXPECT_EQ(fired, 500u);
  EXPECT_EQ(eng.events_processed(), 500u) << "cancelled events must not count as processed";
  EXPECT_GE(eng.heap_compactions(), 1u) << "deferred compaction never triggered";
  EXPECT_EQ(eng.live_events(), 0u);
  EXPECT_EQ(eng.tombstones(), 0u);
}

// Queue entries carry their own (t, seq) keys. Cancel the front of a delta
// FIFO while an earlier heap event and a due event are pending: cancel()
// reaps it at once. A tombstone behind a live FIFO entry stays until it
// comes out as the global minimum, with heap events at the same time queued
// on both sides of it. Dispatch must follow one priority queue throughout,
// and no tombstone or slot may be left once the queues drain.
TEST(EngineStress, CancelledDeltaFrontIsReapedInPriorityOrder) {
  Engine eng;
  ReferenceQueue ref;
  auto fire = [&ref, &eng](std::uint64_t label) {
    return [&ref, &eng, label] { ref.expect_front(eng.now(), label); };
  };
  auto schedule_in = [&](Time dt, std::uint64_t label) {
    ref.insert(eng.now() + dt, label);
    return eng.schedule_in(dt, fire(label));
  };
  auto schedule_at = [&](Time t, std::uint64_t label) {
    ref.insert(t, label);
    return eng.schedule(t, fire(label));
  };
  constexpr Time kDelta = 1e-6;
  const EventId front = schedule_in(kDelta, 1);  // delta FIFO front
  schedule_at(kDelta, 2);                        // heap, same time, later seq
  schedule_in(kDelta, 3);                        // delta FIFO, behind the front
  const EventId middle = schedule_in(kDelta, 4);
  schedule_at(kDelta, 5);  // heap, same time, after the middle tombstone
  schedule_in(kDelta, 6);
  schedule_at(0.5 * kDelta, 7);  // heap, earlier than the FIFO
  schedule_at(0, 8);             // due bucket (t == now)
  schedule_at(2 * kDelta, 9);    // heap, after everything
  eng.cancel(front);
  ref.cancelled.insert(1);
  EXPECT_EQ(eng.tombstones(), 0u) << "a cancelled FIFO front is reaped at once";
  eng.cancel(middle);
  ref.cancelled.insert(4);
  EXPECT_EQ(eng.tombstones(), 1u) << "a tombstone behind a live entry waits its turn";
  eng.run();
  EXPECT_EQ(ref.live(), 0u) << "an event the reference holds never ran";
  EXPECT_EQ(eng.events_processed(), 7u);
  EXPECT_EQ(eng.tombstones(), 0u);
  EXPECT_EQ(eng.live_events(), 0u);
}

TEST(EngineStress, StaleIdsAfterSlotReuseAreNoOps) {
  Engine eng;
  bool second_ran = false;
  const EventId first = eng.schedule_in(1e-6, [] {});
  eng.run();  // first ran; its slot goes back to the free list
  const EventId second = eng.schedule_in(1e-6, [&] { second_ran = true; });
  EXPECT_NE(first, second) << "generation must disambiguate a reused slot";
  eng.cancel(first);  // stale id likely aliases second's slot — must be a no-op
  eng.run();
  EXPECT_TRUE(second_ran);
}

// ---------------------------------------------------------------------------
// Spawn/teardown and the deadlock detector at scale
// ---------------------------------------------------------------------------

constexpr int kRanks = 64;        // mixed-traffic soak: every blocking shape
constexpr int kManyRanks = 1024;  // fiber-wall scale: thread actors capped out here

TEST(EngineAtScale, SixtyFourActorsSpawnRunAndTearDownCleanly) {
  Engine eng;
  int done = 0;
  for (int r = 0; r < kRanks; ++r) {
    eng.spawn("rank" + std::to_string(r), [&eng, &done, r](sim::Actor& self) {
      // Mixed sleep / timed-block traffic, with cross-actor wakes via events.
      for (int i = 0; i < 10; ++i) {
        self.sleep_for(static_cast<Time>(1 + r) * 1e-7);
        eng.schedule_in(5e-8, [&self] { self.wake(); });
        self.block_until(eng.now() + 1.0);  // woken long before the deadline
      }
      ++done;
    });
  }
  eng.run();
  EXPECT_EQ(done, kRanks);
  EXPECT_EQ(eng.live_events(), 0u) << "teardown leaked pool slots";
  EXPECT_EQ(eng.tombstones(), 0u) << "wake() left unreaped timeout tombstones";
}

TEST(EngineAtScale, DeadlockDetectorNamesAllSixtyFourStuckActors) {
  Engine eng;
  for (int r = 0; r < kRanks; ++r) {
    eng.spawn("stuck" + std::to_string(r), [](sim::Actor& self) { self.block(); });
  }
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string msg = e.what();
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_NE(msg.find("stuck" + std::to_string(r)), std::string::npos)
          << "actor stuck" << r << " missing from deadlock report";
    }
  }
}

TEST(EngineAtScale, DestructionWith1024BlockedActorsDoesNotHang) {
  auto eng = std::make_unique<Engine>();
  for (int r = 0; r < kManyRanks; ++r) {
    eng->spawn("held" + std::to_string(r), [](sim::Actor& self) { self.block(); });
  }
  EXPECT_THROW(eng->run(), sim::DeadlockError);
  eng.reset();  // must unwind all 1024 parked fibers without hanging
}

TEST(EngineAtScale, TeardownWithPendingBlockUntilTimersIsClean) {
  // Actors parked in block_until() each hold a live timeout event. When the
  // engine is torn down mid-run (here: an exception aborts run() while the
  // timers are still far in the future), request_stop() unwinds each actor
  // with a StopToken — which skips the normal block_until epilogue that
  // clears timer_. Teardown must tombstone-cancel those timers itself while
  // the actors still exist; regressing this leaves resume events pointing at
  // destroyed actors in the pool during queue destruction (caught by the
  // sanitizer jobs).
  auto eng = std::make_unique<Engine>();
  for (int r = 0; r < kManyRanks; ++r) {
    eng->spawn("timed" + std::to_string(r), [](sim::Actor& self) {
      self.block_until(self.engine().now() + 1e9);  // never woken, never due
    });
  }
  eng->spawn("bomb", [](sim::Actor&) { throw std::runtime_error("abort the run"); });
  EXPECT_THROW(eng->run(), std::runtime_error);
  eng.reset();
}

TEST(EngineAtScale, ThousandActorWavesReusePooledStacks) {
  Engine eng;
  int done = 0;
  auto wave = [&](int w) {
    for (int r = 0; r < kManyRanks; ++r) {
      eng.spawn("wave" + std::to_string(w) + ".r" + std::to_string(r),
                [&done](sim::Actor& self) {
                  self.sleep_for(1e-9);  // forces a real park + fiber re-entry
                  ++done;
                });
    }
    eng.run();
  };

  wave(0);
  EXPECT_EQ(done, kManyRanks);
  // All 1024 actors were live at once (they all start before the first sleep
  // expires), then every stack went back to the pool as its actor finished.
  EXPECT_EQ(eng.fiber_stacks_in_use(), 0u);
  const auto mapped = eng.fiber_stacks_allocated();
  EXPECT_EQ(mapped, static_cast<std::uint64_t>(kManyRanks));
  EXPECT_EQ(eng.reap_finished(), static_cast<std::size_t>(kManyRanks));

  wave(1);
  EXPECT_EQ(done, 2 * kManyRanks);
  // The second wave must ride entirely on recycled stacks: the pool's mmap
  // count is the live-actor high-water mark, not the spawn count.
  EXPECT_EQ(eng.fiber_stacks_allocated(), mapped) << "stack pool failed to reuse freed stacks";
  EXPECT_GE(eng.fiber_stack_reuses(), static_cast<std::uint64_t>(kManyRanks));
  EXPECT_EQ(eng.fiber_stacks_in_use(), 0u);
  EXPECT_EQ(eng.reap_finished(), static_cast<std::size_t>(kManyRanks));
  EXPECT_EQ(eng.live_events(), 0u);
}

// ---------------------------------------------------------------------------
// Fiber stack sizing and the guard page
// ---------------------------------------------------------------------------

TEST(FiberStackConfig, EnvOverrideFloorAndMalformedValuesResolveAsDocumented) {
  {
    ::setenv("NMX_FIBER_STACK_KB", "512", 1);
    Engine eng;
    EXPECT_EQ(eng.fiber_stack_bytes(), 512u * 1024u);
  }
  {
    ::setenv("NMX_FIBER_STACK_KB", "1", 1);  // below the 64 KiB floor
    Engine eng;
    EXPECT_EQ(eng.fiber_stack_bytes(), 64u * 1024u);
  }
  // A mistyped value is an error naming the variable and the value, never a
  // silent fall-back to the default.
  for (const char* bad : {"512k", "abc", "0"}) {
    ::setenv("NMX_FIBER_STACK_KB", bad, 1);
    try {
      Engine eng;
      ADD_FAILURE() << "NMX_FIBER_STACK_KB=" << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("NMX_FIBER_STACK_KB"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos) << what;
    }
  }
  ::unsetenv("NMX_FIBER_STACK_KB");
}

namespace overflow {

// Deep enough to blow any configured stack; the volatile pad defeats both
// inlining of the frame and tail-call collapse.
[[gnu::noinline]] int recurse(int n) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(n);
  if (n <= 0) return pad[0];
  return recurse(n - 1) + pad[0];
}

}  // namespace overflow

TEST(FiberStackGuardDeathTest, OverflowFaultsLoudlyInsteadOfCorruptingANeighbor) {
  // The guard page under each fiber stack turns overflow into an immediate
  // fault. Without it, the runaway frames would scribble into whatever
  // mapping sits below the stack — typically another actor's pooled stack —
  // and the simulation would continue on corrupted state.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ::setenv("NMX_FIBER_STACK_KB", "64", 1);
  EXPECT_DEATH(
      {
        Engine eng;
        eng.spawn("overflow", [](sim::Actor&) { overflow::recurse(1 << 20); });
        eng.run();
      },
      "");
  ::unsetenv("NMX_FIBER_STACK_KB");
}

}  // namespace
}  // namespace nmx
