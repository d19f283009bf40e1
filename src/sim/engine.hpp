// Discrete-event simulation core.
//
// Execution model (the SMPI/SimGrid methodology): simulated processes (MPI
// ranks, PIOMan progress engines, ...) run as *actors* — stackful fibers
// that hold the "baton" one at a time. The engine pops timestamped events
// off its queues; an event is either a plain callback (protocol handlers:
// packet arrival, NIC completion, ...) or the resumption of a blocked
// actor, which is a direct user-space context switch into the actor's
// fiber. While an actor runs, the engine context is suspended; when the
// actor blocks or sleeps it switches straight back. Exactly one context is
// ever runnable, so the whole simulation has single-threaded semantics —
// stack code needs no locking — yet application code (NAS kernels,
// examples) is written in natural blocking style. Compared with the
// original thread-per-actor design, a baton handoff is ~tens of ns instead
// of a mutex+condvar round trip, and an actor costs a pooled, lazily
// committed fiber stack (sim/fiber.hpp) instead of an 8 MiB thread stack —
// which is what lets NAS runs scale to 1024 ranks.
//
// Virtual time only advances in the engine loop. Determinism is total:
// same inputs => same event order => identical timing results.
//
// Hot-path layout (the storm at 64+ ranks pushes tens of millions of events
// through here, so the scheduling structures are built for throughput):
//
//  * Pooled events. Every scheduled event lives in a slot of a slab pool
//    (fixed-size blocks, stable addresses, free-list reuse) and owns its
//    callback inline via SmallFn — no per-event heap allocation and no
//    side-table: the old std::unordered_map<EventId, EventFn> lookup + erase
//    per event is gone. EventId encodes (generation << 32 | slot), so cancel
//    and stale-id detection are pointer-free O(1) slot probes.
//  * Three queues, one total order. (a) `due_`: FIFO bucket for events
//    scheduled at the current virtual time (actor wakes, resume batons,
//    clamped past events) — push/pop O(1), and same-timestamp resume chains
//    coalesce into one engine pass with a single front comparison instead of
//    a heap sift per handoff. (b) `deltas_`: small set of FIFO queues keyed
//    by exact schedule_in() delta — the "now + constant α" NIC/software
//    costs (inject, deliver, reaction period, ...) are a handful of repeated
//    constants, and now+α is monotone in now, so each queue stays sorted by
//    construction: O(1) push/pop. (c) `heap_`: classic binary heap of
//    (t, seq, slot) for everything else. The dispatcher pops the global
//    (t, seq)-minimum across the three; semantics are identical to a single
//    priority queue (events at equal times run in scheduling order).
//  * Tombstone cancellation. cancel() destroys the callback and flags the
//    slot O(1); queue entries are skipped lazily at the front. When dead
//    entries dominate the heap, it is compacted in one pass (deferred
//    compaction), so cancel-heavy paths (block_until timeouts) never pay a
//    per-cancel O(n) erase or grow the heap without bound.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "sim/fiber.hpp"
#include "sim/smallfn.hpp"

namespace nmx::obs {
class Recorder;
}

namespace nmx::sim {

class Engine;

using EventFn = std::function<void()>;
/// Handle for cancelling a scheduled event. 0 is never a valid id.
using EventId = std::uint64_t;

/// Thrown by Engine::run when the event queue drains while actors are still
/// blocked — i.e. the simulated program deadlocked. The message lists the
/// stuck actors, which makes protocol bugs (lost wakeups, missing CTS, ...)
/// easy to localize in tests.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A simulated thread of execution. Created via Engine::spawn; the body runs
/// on a stackful fiber that executes only while the actor holds the baton.
class Actor {
 public:
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;
  ~Actor();

  const std::string& name() const { return name_; }
  Engine& engine() { return engine_; }

  // --- callable from the actor's own fiber only --------------------------

  /// Advance this actor's virtual time to `t` (models computation / sleep).
  /// Not interruptible by wake().
  // nmx-lint: actor-context
  void sleep_until(Time t);
  /// Convenience: sleep_until(now + dt).
  // nmx-lint: actor-context
  void sleep_for(Time dt);

  /// Block until another party calls wake(). Callers must re-check their
  /// predicate in a loop; block() itself carries no payload.
  // nmx-lint: actor-context
  void block();

  /// Block until wake() or until virtual `deadline`, whichever comes first.
  /// Returns true if woken, false on timeout.
  // nmx-lint: actor-context
  bool block_until(Time deadline);

  // --- callable from engine callbacks or other actors --------------------

  /// Make a blocked actor runnable again (resumed at the current virtual
  /// time). No-op if the actor is not blocked, is sleeping, or was already
  /// woken — so completion handlers may call it unconditionally. Cancels the
  /// pending block_until timeout event, if any (O(1) tombstone).
  void wake();

  bool finished() const { return state_ == State::Finished; }
  bool blocked() const { return state_ == State::Blocked; }

 private:
  friend class Engine;
  enum class State { Ready, Running, Blocked, Finished };
  struct StopToken {};  // thrown into the actor fiber on engine teardown

  Actor(Engine& eng, std::string name, std::function<void(Actor&)> body);

  static void fiber_entry(void* self);  // trampoline target
  void fiber_main();                    // runs body_ on the fiber stack
  void yield_to_engine();  // actor fiber: return baton to the engine loop
  void request_stop();     // engine context: unwind the fiber for shutdown

  Engine& engine_;
  std::string name_;
  State state_ = State::Ready;
  std::uint64_t generation_ = 0;  // invalidates stale resume events
  bool woken_ = false;            // resumed by wake() (vs. timer)
  bool interruptible_ = false;    // wake() honored only while true
  EventId timer_ = 0;             // pending block_until timeout event

  std::function<void(Actor&)> body_;  // consumed at the first resume
  bool started_ = false;              // fiber forged and entered at least once
  bool stop_ = false;                 // next yield return throws StopToken
  std::exception_ptr error_;
  FiberStack stack_;  // pooled; held only while started and not finished
  FiberContext ctx_;
};

/// The event-driven heart of the simulator.
class Engine {
 public:
  /// Each actor's fiber stack is sized by the NMX_FIBER_STACK_KB environment
  /// variable (see resolve_fiber_stack_bytes) and ends in a guard page, so an
  /// overflowing actor faults loudly instead of corrupting its neighbor.
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current virtual time in seconds.
  Time now() const { return now_; }

  /// Schedule `fn` to run on the engine thread at virtual time `t`
  /// (clamped to now; events at equal times run in scheduling order).
  template <typename F>
  EventId schedule(Time t, F&& fn) {
    Event& ev = alloc_event(t < now_ ? now_ : t);
    emplace_fn(ev, std::forward<F>(fn));
    route(ev, /*delta=*/-1.0);
    return id_of(ev);
  }

  /// Schedule `fn` `dt` seconds from now. Constant deltas (the common NIC /
  /// software-cost case) take an O(1) sorted-FIFO fast path.
  template <typename F>
  EventId schedule_in(Time dt, F&& fn) {
    if (dt < 0) dt = 0;
    Event& ev = alloc_event(now_ + dt);
    emplace_fn(ev, std::forward<F>(fn));
    route(ev, dt);
    return id_of(ev);
  }

  /// True when a closure of type F is guaranteed to land in the event slot's
  /// inline SmallFn storage (no per-event heap allocation).
  template <typename F>
  static constexpr bool fits_inline_v =
      sizeof(std::decay_t<F>) <= SmallFn::kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  /// schedule() with a compile-time guarantee that the closure stays inline:
  /// a capture list that grows past SmallFn::kInlineBytes (or picks up a
  /// throwing move) becomes a build error here instead of a silent per-event
  /// heap allocation. Hot paths use the *_checked forms; nmx_lint's
  /// engine-capacity pass enforces that (tools/nmx_lint).
  template <typename F>
  EventId schedule_checked(Time t, F&& fn) {
    static_assert(fits_inline_v<F>,
                  "closure spills SmallFn inline storage (see SmallFn::kInlineBytes): "
                  "shrink the capture list or use schedule() and accept the heap alloc");
    return schedule(t, std::forward<F>(fn));
  }

  /// schedule_in() with the same compile-time inline-capacity guarantee.
  template <typename F>
  EventId schedule_in_checked(Time dt, F&& fn) {
    static_assert(fits_inline_v<F>,
                  "closure spills SmallFn inline storage (see SmallFn::kInlineBytes): "
                  "shrink the capture list or use schedule_in() and accept the heap alloc");
    return schedule_in(dt, std::forward<F>(fn));
  }

  /// Cancel a pending event: O(1) — destroys the callback and tombstones the
  /// pool slot; the queue entry is reaped lazily. No-op if the event already
  /// ran or was cancelled.
  void cancel(EventId id);

  /// Create an actor whose body starts at the current virtual time.
  /// Safe to call both before run() and from inside the simulation.
  Actor& spawn(std::string name, std::function<void(Actor&)> body);

  /// Run the simulation to completion. Throws DeadlockError if actors
  /// remain blocked with no pending events; rethrows any exception that
  /// escaped an actor body or event callback.
  void run();

  /// Destroy actors whose bodies have completed, returning how many were
  /// reclaimed. Their fiber stacks are already back in the pool the moment
  /// they finished; this drops the Actor records themselves so repeated
  /// spawn/run cycles (Cluster::run per-iteration ranks, spawn benchmarks)
  /// keep per-rank state pooled instead of accumulating. Call it between
  /// runs — after run() returns, no pending event can reference a finished
  /// actor; mid-run the engine itself never needs it.
  std::size_t reap_finished();

  std::size_t events_processed() const { return processed_; }

  // --- pool accounting (stress tests + perf harness assert on these) ------

  /// Slots currently holding a scheduled-or-running event. 0 after a
  /// completed run: anything else means a leaked pool slot.
  std::size_t live_events() const { return slots_total_ - free_.size(); }
  /// Total pool capacity (high-water mark of concurrently pending events,
  /// rounded up to the slab block size).
  std::size_t pool_slots() const { return slots_total_; }
  /// Closures too large (or not nothrow-movable) for the inline event slot —
  /// each one cost a heap allocation. Stays 0 on the steady-state path.
  std::uint64_t closure_heap_allocs() const { return closure_heap_allocs_; }
  /// Cancelled events whose queue entries have not been reaped yet.
  std::size_t tombstones() const { return tombstones_; }
  /// Deferred heap compaction passes performed.
  std::uint64_t heap_compactions() const { return heap_compactions_; }

  // --- fiber accounting ----------------------------------------------------

  /// Usable bytes of one actor fiber stack (resolved from
  /// NMX_FIBER_STACK_KB at construction; page-rounded).
  std::size_t fiber_stack_bytes() const { return stacks_.stack_bytes(); }
  /// Fiber stacks ever mmap'd — the high-water mark of concurrently live
  /// actors, not the spawn count (freed stacks are reused).
  std::uint64_t fiber_stacks_allocated() const { return stacks_.allocated(); }
  /// Times a freed stack was handed to a new actor instead of mmap'ing.
  std::uint64_t fiber_stack_reuses() const { return stacks_.reuses(); }
  /// Stacks currently owned by live (started, unfinished) actors.
  std::size_t fiber_stacks_in_use() const { return stacks_.in_use(); }

  /// Attach an observability recorder (obs/recorder.hpp). Null disables all
  /// instrumentation; the pointer is not owned and must outlive the
  /// simulation. Cluster owns one when ClusterConfig::trace is set.
  void set_recorder(obs::Recorder* r) { recorder_ = r; }
  obs::Recorder* recorder() { return recorder_; }

 private:
  friend class Actor;

  static constexpr std::uint32_t kBlockSize = 256;  ///< events per slab block
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kMaxDeltaQueues = 8;

  enum : std::uint8_t { kStateFree = 0, kStatePending, kStateRunning, kStateCancelled };
  enum : std::uint8_t { kLocDue = 0, kLocDelta, kLocHeap };
  /// Actor-resume events carry no closure at all — mode + actor + generation
  /// live directly in the slot, so the hottest event kind (baton handoff) is
  /// a plain store on schedule and a branch on dispatch.
  enum : std::uint8_t { kResumeNone = 0, kResumeSpawn, kResumeSleep, kResumeTimeout, kResumeWake };

  struct Event {
    Time t = 0;
    std::uint64_t seq = 0;
    SmallFn fn;                     // engaged for callback events only
    Actor* actor = nullptr;         // resume events
    std::uint64_t actor_gen = 0;    // resume events: Actor::generation_ guard
    std::uint32_t slot = 0;         // own index (blocks are address-stable)
    std::uint32_t gen = 1;          // bumped on free; half of the EventId
    std::uint8_t state = kStateFree;
    std::uint8_t loc = kLocDue;
    std::uint8_t resume_mode = kResumeNone;
  };

  struct HeapEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct HeapCmp {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;  // min-(t, seq) at the front
    }
  };

  /// FIFO for one recurring schedule_in() delta. now+dt is monotone in now,
  /// so the queue is sorted by (t, seq) by construction.
  struct DeltaQueue {
    Time dt = 0;
    std::uint64_t hits = 0;
    std::deque<std::uint32_t> q;
  };

  Event& slot_ref(std::uint32_t slot) {
    return blocks_[slot / kBlockSize][slot % kBlockSize];
  }
  static EventId id_of(const Event& ev) {
    return (static_cast<EventId>(ev.gen) << 32) | ev.slot;
  }

  Event& alloc_event(Time t);
  template <typename F>
  void emplace_fn(Event& ev, F&& fn) {
    if (!ev.fn.emplace(std::forward<F>(fn))) ++closure_heap_allocs_;
  }
  /// File the event under due_/deltas_/heap_. `delta` < 0: absolute-time
  /// schedule (due bucket when t == now, else heap).
  void route(Event& ev, Time delta);
  void free_slot(Event& ev);
  /// Pop the (t, seq)-minimum live event across the three queues, reaping
  /// tombstones at the fronts. kNoSlot when everything drained.
  std::uint32_t pop_next();
  void compact_heap();
  void dispatch(Event& ev);

  /// Closure-free actor-resume scheduling (Actor wake/sleep/timeout/spawn).
  EventId schedule_resume(Time t, Actor* a, std::uint64_t actor_gen, std::uint8_t mode);
  void resume(Actor& a);
  /// Return a finished (or unwound) actor's stack to the pool.
  void release_fiber(Actor& a);

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t processed_ = 0;

  // event pool
  std::vector<std::unique_ptr<Event[]>> blocks_;
  std::vector<std::uint32_t> free_;
  std::size_t slots_total_ = 0;
  std::uint64_t closure_heap_allocs_ = 0;

  // queues
  std::deque<std::uint32_t> due_;
  std::vector<DeltaQueue> deltas_;
  std::vector<HeapEntry> heap_;
  std::size_t tombstones_ = 0;
  std::size_t heap_dead_ = 0;  ///< tombstoned entries still in heap_
  std::uint64_t heap_compactions_ = 0;

  std::vector<std::unique_ptr<Actor>> actors_;
  Actor* current_ = nullptr;
  obs::Recorder* recorder_ = nullptr;

  FiberContext main_ctx_;  ///< the engine loop's own context while a fiber runs
  StackPool stacks_;       ///< pooled actor stacks (guard-paged, reused)
};

}  // namespace nmx::sim
