// Stackful fibers: the execution substrate under sim::Actor.
//
// An actor used to be a dedicated std::thread that held the "baton" one at a
// time — semantically single-threaded, but every handoff paid a mutex +
// condvar round trip (~µs) and every rank paid an 8 MiB kernel thread stack.
// A fiber keeps the exact same run-one-context-at-a-time semantics with a
// user-space register switch (~tens of ns) on a pooled, guard-paged, lazily
// committed stack (virtual reservation; RSS grows only with pages actually
// touched), so the engine scales to 1024+ ranks without a thread wall.
//
// Layering: this header knows nothing about events or actors. It provides
//   * FiberStack  — an mmap'd stack with a PROT_NONE guard page below it, so
//     an overflowing fiber faults loudly instead of corrupting a neighbor;
//   * StackPool   — free-list reuse of stacks (spawn/teardown-heavy
//     workloads never re-enter mmap in steady state);
//   * FiberContext + fiber_make/fiber_switch/fiber_exit_switch — the raw
//     context-switch primitive (hand-rolled x86-64 assembly; ucontext
//     fallback elsewhere) with ASan/TSan fiber annotations built in.
//
// The switch primitives are engine internals: only sim::Engine/Actor may
// call them (enforced by nmx-lint's thread-discipline pass). Everything
// above the engine keeps using Actor::sleep/block/wake.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace nmx::sim {

/// One fiber stack: a single mmap region whose lowest page(s) are PROT_NONE.
/// The usable range is [limit(), top()); x86 stacks grow down from top().
struct FiberStack {
  std::byte* base = nullptr;  ///< mmap base (the guard page starts here)
  std::size_t total = 0;      ///< mapped bytes including the guard
  std::size_t guard = 0;      ///< guard bytes at the low end

  void* limit() const { return base + guard; }       ///< lowest usable byte
  void* top() const { return base + total; }         ///< one past highest byte
  std::size_t usable() const { return total - guard; }
  explicit operator bool() const { return base != nullptr; }
};

/// Saved execution state of one context (a fiber, or the engine's own
/// thread while a fiber runs). POD-ish; owned by Actor / Engine.
struct FiberContext {
  void* sp = nullptr;  ///< saved stack pointer (x86-64 path)
#if !defined(__x86_64__)
  ucontext_t uc = {};  ///< portable fallback
#endif
  // Sanitizer bookkeeping (all nullptr/0 in plain builds; see fiber.cpp).
  void* asan_fake_stack = nullptr;
  const void* san_stack_lo = nullptr;  ///< low address of this context's stack
  std::size_t san_stack_size = 0;
  void* tsan_fiber = nullptr;
};

/// Prepare `ctx` so the first fiber_switch into it calls entry(arg) on
/// `stack`. `name` labels the fiber for sanitizer reports.
void fiber_make(FiberContext& ctx, const FiberStack& stack, void (*entry)(void*), void* arg,
                const char* name);

/// Suspend the currently running context into `from` and resume `to`.
/// Returns when something later switches back into `from`. In this engine
/// the topology is a star: the engine context resumes fibers, fibers yield
/// back to the engine context — `to` is always the peer we will eventually
/// return from.
void fiber_switch(FiberContext& from, FiberContext& to);

/// Final switch out of a finished fiber (its stack may be recycled once the
/// destination context runs). Never returns.
[[noreturn]] void fiber_exit_switch(FiberContext& from, FiberContext& to);

/// First statement of a fiber entry function: completes the sanitizer
/// switch protocol and records the peer (engine) stack bounds.
void fiber_on_entry(FiberContext& self, FiberContext& peer);

/// Release per-fiber sanitizer state after the fiber finished (or before
/// recycling its stack). Must be called from a different context.
void fiber_release(FiberContext& ctx, const FiberStack& stack);

/// Resolve the per-fiber stack size in bytes: the NMX_FIBER_STACK_KB
/// environment variable (KiB) when set and non-empty, else a built-in
/// default (256 KiB; 1 MiB under ASan/TSan, whose redzones and shadow
/// frames inflate stack use). Clamped to at least 64 KiB and rounded up to
/// the page size. Throws std::invalid_argument naming the variable and its
/// value when it is set to anything but a positive decimal integer.
std::size_t resolve_fiber_stack_bytes();

/// Free-list pool of equally sized fiber stacks. Stacks are mmap'd with a
/// one-page guard and recycled on release; everything is unmapped when the
/// pool dies. Counters feed engine accounting (tests assert reuse).
class StackPool {
 public:
  explicit StackPool(std::size_t stack_bytes);
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  FiberStack acquire();
  void release(const FiberStack& s);

  std::size_t stack_bytes() const { return stack_bytes_; }
  std::uint64_t allocated() const { return allocated_; }
  std::uint64_t reuses() const { return reuses_; }
  std::size_t in_use() const { return in_use_; }

 private:
  std::size_t stack_bytes_;         ///< usable bytes per stack (page-rounded)
  std::vector<FiberStack> free_;    ///< recycled stacks, LIFO (cache-warm first)
  std::vector<FiberStack> all_;     ///< every mapping, for teardown
  std::uint64_t allocated_ = 0;
  std::uint64_t reuses_ = 0;
  std::size_t in_use_ = 0;
};

}  // namespace nmx::sim
