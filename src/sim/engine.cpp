#include "sim/engine.hpp"

#include <algorithm>

namespace nmx::sim {

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------
//
// An actor is a stackful fiber (sim/fiber.hpp). The fiber is forged lazily:
// spawn() only records the body and schedules a kResumeSpawn event; the
// stack is acquired from the pool at the first resume, and returned the
// moment the body finishes. The switch topology is a star — the engine's
// main context resumes exactly one fiber, and that fiber always yields
// straight back — which is precisely the old one-baton thread handshake
// with the mutex/condvar replaced by a register swap.

Actor::Actor(Engine& eng, std::string name, std::function<void(Actor&)> body)
    : engine_(eng), name_(std::move(name)), body_(std::move(body)) {}

Actor::~Actor() { request_stop(); }

void Actor::fiber_entry(void* self) { static_cast<Actor*>(self)->fiber_main(); }

void Actor::fiber_main() {
  fiber_on_entry(ctx_, engine_.main_ctx_);
  state_ = State::Running;
  try {
    // Consume the body up front so its captures (Cluster pointers, per-rank
    // locals) die with this frame, not with the Actor record.
    auto body = std::move(body_);
    body_ = nullptr;
    body(*this);
  } catch (StopToken&) {
    // engine teardown: fall through and exit quietly
  } catch (...) {
    error_ = std::current_exception();
  }
  state_ = State::Finished;
  // Hand the baton back for the last time; the engine context reclaims the
  // stack as soon as this switch lands (nothing on it is live anymore).
  fiber_exit_switch(ctx_, engine_.main_ctx_);
}

void Actor::yield_to_engine() {
  fiber_switch(ctx_, engine_.main_ctx_);
  if (stop_) throw StopToken{};
}

void Actor::request_stop() {
  if (state_ == State::Finished) return;
  if (!started_) {
    // Never ran: nothing on a stack to unwind, just drop the body.
    body_ = nullptr;
    state_ = State::Finished;
    return;
  }
  // Resume the fiber one last time; yield_to_engine sees stop_ and throws
  // StopToken, unwinding the body. fiber_main lands back here Finished.
  stop_ = true;
  fiber_switch(engine_.main_ctx_, ctx_);
  NMX_ASSERT_MSG(state_ == State::Finished, "stopped actor did not unwind");
  engine_.release_fiber(*this);
  // The StopToken unwound the actor out of a possibly-pending block_until —
  // the `timer_ = 0` line there never ran. Tombstone-cancel the orphaned
  // timeout event so teardown mid-run (an exception escaping another actor,
  // retry timers still pending) leaves no event referencing this actor.
  if (timer_ != 0) {
    engine_.cancel(timer_);
    timer_ = 0;
  }
}

void Actor::sleep_until(Time t) {
  NMX_ASSERT_MSG(state_ == State::Running, "sleep_until outside the actor's own fiber");
  state_ = State::Blocked;
  interruptible_ = false;
  woken_ = false;
  const auto gen = ++generation_;
  engine_.schedule_resume(t, this, gen, Engine::kResumeSleep);
  yield_to_engine();
  state_ = State::Running;
}

void Actor::sleep_for(Time dt) { sleep_until(engine_.now() + dt); }

void Actor::block() {
  NMX_ASSERT_MSG(state_ == State::Running, "block outside the actor's own fiber");
  state_ = State::Blocked;
  interruptible_ = true;
  woken_ = false;
  ++generation_;
  yield_to_engine();
  state_ = State::Running;
  interruptible_ = false;
}

bool Actor::block_until(Time deadline) {
  NMX_ASSERT_MSG(state_ == State::Running, "block_until outside the actor's own fiber");
  state_ = State::Blocked;
  interruptible_ = true;
  woken_ = false;
  const auto gen = ++generation_;
  timer_ = engine_.schedule_resume(deadline, this, gen, Engine::kResumeTimeout);
  yield_to_engine();
  state_ = State::Running;
  interruptible_ = false;
  timer_ = 0;  // consumed by the timeout dispatch or cancelled by wake()
  return woken_;
}

void Actor::wake() {
  if (state_ != State::Blocked || !interruptible_ || woken_) return;
  woken_ = true;
  if (timer_ != 0) {
    engine_.cancel(timer_);  // O(1) tombstone; keeps timeout storms off the heap
    timer_ = 0;
  }
  engine_.schedule_resume(engine_.now(), this, generation_, Engine::kResumeWake);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine() : stacks_(resolve_fiber_stack_bytes()) {}

Engine::~Engine() {
  // Stop actors before destroying the event storage they may reference.
  // Pending closures in the pool are destroyed (never invoked) with blocks_.
  for (auto& a : actors_) a->request_stop();
}

Engine::Event& Engine::alloc_event(Time t) {
  if (free_.empty()) {
    NMX_ASSERT_MSG(slots_total_ + kBlockSize < kNoSlot, "event pool exhausted");
    auto block = std::make_unique<Event[]>(kBlockSize);
    const auto base = static_cast<std::uint32_t>(slots_total_);
    for (std::uint32_t i = 0; i < kBlockSize; ++i) block[i].slot = base + i;
    // LIFO free list, low indices last: recently-freed (cache-warm) slots are
    // reused first.
    for (std::uint32_t i = kBlockSize; i-- > 0;) free_.push_back(base + i);
    blocks_.push_back(std::move(block));
    slots_total_ += kBlockSize;
  }
  Event& ev = slot_ref(free_.back());
  free_.pop_back();
  NMX_ASSERT(ev.state == kStateFree);
  ev.t = t;
  ev.seq = seq_++;
  ev.state = kStatePending;
  ev.resume_mode = kResumeNone;
  ev.actor = nullptr;
  ev.actor_gen = 0;
  return ev;
}

void Engine::free_slot(Event& ev) {
  ev.fn.reset();
  ev.state = kStateFree;
  ev.actor = nullptr;
  ++ev.gen;  // invalidates any outstanding EventId for this slot
  free_.push_back(ev.slot);
}

void Engine::route(Event& ev, Time delta) {
  const HeapEntry entry{ev.t, ev.seq, ev.slot};
  if (ev.t <= now_) {
    // Same-timestamp bucket: actor wakes, resume batons, clamped past events.
    ev.loc = kLocDue;
    due_.push_back(entry);
    return;
  }
  auto to_fifo = [&](DeltaQueue& d) {
    ev.loc = static_cast<std::uint8_t>(kLocDelta + (&d - deltas_.data()));
    d.q.push_back(entry);
  };
  if (delta > 0) {
    for (DeltaQueue& d : deltas_) {
      if (d.dt == delta) {
        ++d.hits;
        to_fifo(d);
        return;
      }
    }
    // Unseen delta: claim a fresh queue while capacity lasts, else recycle
    // the coldest empty one. Variable deltas (per-size copy costs) miss and
    // fall through to the heap, which is always correct.
    DeltaQueue* claim = nullptr;
    if (deltas_.size() < kMaxDeltaQueues) {
      claim = &deltas_.emplace_back();
    } else {
      for (DeltaQueue& d : deltas_) {
        if (d.q.empty() && (claim == nullptr || d.hits < claim->hits)) claim = &d;
      }
    }
    if (claim != nullptr) {
      claim->dt = delta;
      claim->hits = 1;
      to_fifo(*claim);
      return;
    }
  }
  ev.loc = kLocHeap;
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), HeapCmp{});
}

void Engine::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (slot >= slots_total_) return;
  Event& ev = slot_ref(slot);
  if (ev.state != kStatePending || ev.gen != static_cast<std::uint32_t>(id >> 32)) return;
  ev.fn.reset();  // release captured resources immediately
  ev.state = kStateCancelled;
  ++tombstones_;
  if (ev.loc == kLocHeap) {
    ++heap_dead_;
    // Deferred compaction: only when dead entries dominate, so cancel stays
    // O(1) amortized and the heap never fills with tombstones.
    if (heap_dead_ >= 64 && heap_dead_ * 2 >= heap_.size()) compact_heap();
    return;
  }
  // A FIFO tombstone that heads its queue is reaped now, with the run of
  // tombstones queued behind it: far-future timeouts cancelled in about the
  // order they were set (a constant-delta FIFO) never pile up as dead slots.
  std::deque<HeapEntry>& q = ev.loc == kLocDue ? due_ : deltas_[ev.loc - kLocDelta].q;
  while (!q.empty()) {
    Event& front = slot_ref(q.front().slot);
    if (front.state != kStateCancelled) break;
    --tombstones_;
    free_slot(front);
    q.pop_front();
  }
}

void Engine::compact_heap() {
  std::size_t kept = 0;
  for (HeapEntry& e : heap_) {
    Event& ev = slot_ref(e.slot);
    if (ev.state == kStateCancelled) {
      --tombstones_;
      free_slot(ev);
    } else {
      heap_[kept++] = e;
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), HeapCmp{});
  heap_dead_ = 0;
  ++heap_compactions_;
}

std::uint32_t Engine::pop_next() {
  for (;;) {
    // Global (t, seq) minimum across the three structures. Every queue is
    // sorted and its entries carry their keys, so comparing fronts yields
    // the same total order as one heap without touching any event slot.
    std::deque<HeapEntry>* fifo = nullptr;
    const HeapEntry* best = nullptr;
    if (!due_.empty()) {
      fifo = &due_;
      best = &due_.front();
    }
    for (DeltaQueue& d : deltas_) {
      if (!d.q.empty() && (best == nullptr || before(d.q.front(), *best))) {
        fifo = &d.q;
        best = &d.q.front();
      }
    }
    const bool from_heap = !heap_.empty() && (best == nullptr || before(heap_.front(), *best));
    if (!from_heap && best == nullptr) return kNoSlot;

    std::uint32_t s = 0;
    if (from_heap) {
      s = heap_.front().slot;
      std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
      heap_.pop_back();
    } else {
      s = best->slot;
      fifo->pop_front();
    }
    Event& ev = slot_ref(s);
    if (ev.state != kStateCancelled) return s;
    // A tombstone came out as the minimum: free it and pick again.
    --tombstones_;
    if (from_heap) --heap_dead_;
    free_slot(ev);
  }
}

void Engine::dispatch(Event& ev) {
  ev.state = kStateRunning;
  if (ev.fn) {
    // The closure's captures live in the pool slot; free it (destroying the
    // closure) only after the call returns — or unwinds.
    struct SlotGuard {
      Engine* e;
      Event* ev;
      ~SlotGuard() { e->free_slot(*ev); }
    } guard{this, &ev};
    ev.fn();
  } else {
    // Closure-free actor resume: the hottest event kind is a branch, not an
    // indirect call. Free the slot first — resume() runs arbitrarily long.
    Actor* a = ev.actor;
    const std::uint64_t gen = ev.actor_gen;
    const std::uint8_t mode = ev.resume_mode;
    free_slot(ev);
    switch (mode) {
      case kResumeSpawn:
        if (!a->finished()) resume(*a);
        break;
      case kResumeSleep:
        if (a->state_ == Actor::State::Blocked && a->generation_ == gen) {
          a->woken_ = true;
          resume(*a);
        }
        break;
      case kResumeTimeout:
        if (a->state_ == Actor::State::Blocked && a->generation_ == gen && !a->woken_) {
          a->timer_ = 0;
          resume(*a);  // timeout path: woken_ stays false
        }
        break;
      case kResumeWake:
        if (a->state_ == Actor::State::Blocked && a->generation_ == gen) resume(*a);
        break;
      default:
        NMX_FAIL("corrupt resume event");
    }
  }
}

EventId Engine::schedule_resume(Time t, Actor* a, std::uint64_t actor_gen, std::uint8_t mode) {
  Event& ev = alloc_event(t < now_ ? now_ : t);
  ev.actor = a;
  ev.actor_gen = actor_gen;
  ev.resume_mode = mode;
  route(ev, -1.0);
  return id_of(ev);
}

Actor& Engine::spawn(std::string name, std::function<void(Actor&)> body) {
  actors_.emplace_back(std::unique_ptr<Actor>(new Actor(*this, std::move(name), std::move(body))));
  Actor* a = actors_.back().get();
  schedule_resume(now_, a, 0, kResumeSpawn);
  return *a;
}

void Engine::resume(Actor& a) {
  NMX_ASSERT_MSG(current_ == nullptr, "nested actor resume");
  if (!a.started_) {
    // First resume: forge the fiber on a pooled stack. Acquisition order
    // follows resume order, which is event order — deterministic.
    a.stack_ = stacks_.acquire();
    fiber_make(a.ctx_, a.stack_, &Actor::fiber_entry, &a, a.name_.c_str());
    a.started_ = true;
  }
  current_ = &a;
  fiber_switch(main_ctx_, a.ctx_);
  current_ = nullptr;
  if (a.finished()) {
    release_fiber(a);
    if (a.error_) {
      auto e = a.error_;
      a.error_ = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void Engine::release_fiber(Actor& a) {
  if (!a.stack_) return;
  fiber_release(a.ctx_, a.stack_);
  stacks_.release(a.stack_);
  a.stack_ = FiberStack{};
}

std::size_t Engine::reap_finished() {
  NMX_ASSERT_MSG(current_ == nullptr, "reap_finished from inside an actor");
  const std::size_t before = actors_.size();
  std::erase_if(actors_, [](const std::unique_ptr<Actor>& a) { return a->finished(); });
  return before - actors_.size();
}

void Engine::run() {
  for (;;) {
    const std::uint32_t slot = pop_next();
    if (slot == kNoSlot) break;
    Event& ev = slot_ref(slot);
    NMX_ASSERT_MSG(ev.t >= now_, "event queue went backwards in time");
    now_ = ev.t;
    ++processed_;
    dispatch(ev);
  }
  std::string stuck;
  for (auto& a : actors_) {
    if (!a->finished()) stuck += " " + a->name();
  }
  if (!stuck.empty()) {
    throw DeadlockError("simulation deadlock at t=" + std::to_string(now_) +
                        "s; blocked actors:" + stuck);
  }
}

}  // namespace nmx::sim
