#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>

// ---------------------------------------------------------------------------
// Sanitizer fiber protocol.
//
// ASan tracks one "current stack" per thread; switching stacks behind its
// back makes it poison live frames and misattribute reports. The documented
// contract (sanitizer/common_interface_defs.h) is:
//   start_switch_fiber(&fake_stack_save, dest_bottom, dest_size)  before the
//   switch, finish_switch_fiber(own_fake_stack_save, &from_bottom,
//   &from_size) immediately after landing. Passing nullptr as the save slot
//   in the final switch out of a dying fiber frees its fake stack.
// TSan models each fiber as a logical thread: create/switch_to/destroy.
//
// We declare the entry points ourselves instead of including sanitizer
// headers so plain builds need nothing and sanitizer builds link the
// interceptors the runtime already exports.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
#define NMX_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NMX_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define NMX_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NMX_FIBER_TSAN 1
#endif
#endif

#if defined(NMX_FIBER_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(const void* addr, size_t size);
}
#endif

#if defined(NMX_FIBER_TSAN)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
void __tsan_set_fiber_name(void* fiber, const char* name);
}
#endif

namespace nmx::sim {
namespace {

// Hooks shared by every switch path. `from` is the context being suspended,
// `to` the one being resumed; must run in this order around the raw swap.
inline void sanitizer_before_switch(FiberContext& from, FiberContext& to, bool from_is_dying) {
#if defined(NMX_FIBER_TSAN)
  if (from.tsan_fiber == nullptr) {
    // Lazily adopt the engine's own thread as a TSan fiber the first time it
    // suspends; actor fibers get theirs in fiber_make.
    from.tsan_fiber = __tsan_get_current_fiber();
  }
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#if defined(NMX_FIBER_ASAN)
  __sanitizer_start_switch_fiber(from_is_dying ? nullptr : &from.asan_fake_stack,
                                 to.san_stack_lo, to.san_stack_size);
#else
  (void)from;
  (void)from_is_dying;
  (void)to;
#endif
}

// Runs after a swap lands back in `self`. The switch topology is a star
// (engine <-> one fiber), so the context we just left is always the `peer`
// of the suspended frame; the out-params refresh its recorded bounds — this
// is how the engine's OS-thread stack bounds are learned without guessing.
inline void sanitizer_after_switch(FiberContext& self, FiberContext& peer) {
#if defined(NMX_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(self.asan_fake_stack, &peer.san_stack_lo,
                                  &peer.san_stack_size);
#else
  (void)self;
  (void)peer;
#endif
}

}  // namespace
}  // namespace nmx::sim

#if defined(__x86_64__)

// ---------------------------------------------------------------------------
// x86-64 System V context switch.
//
// A switch only has to preserve what the ABI makes the *callee* preserve:
// rbp, rbx, r12-r15, plus the mxcsr/x87 control words. Everything else is
// dead across the call by contract. We push those onto the suspending
// stack, stash rsp, adopt the new rsp, and pop — ~30 ns, no syscalls.
//
// A brand-new fiber's stack is forged in fiber_make to look exactly like a
// suspended one: the "restored" r13/r12 carry entry/arg, and the return
// address is the trampoline, which moves arg into rdi and calls entry. The
// forged rbp of 0 terminates frame walks; ud2 traps if entry ever returns
// (fibers must leave via fiber_exit_switch).
// ---------------------------------------------------------------------------

asm(R"(
    .text
    .align 16
    .globl nmx_fiber_swap
    .type nmx_fiber_swap, @function
nmx_fiber_swap:
    .cfi_startproc
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq (%rsi), %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    retq
    .cfi_endproc
    .size nmx_fiber_swap, .-nmx_fiber_swap

    .align 16
    .globl nmx_fiber_trampoline
    .type nmx_fiber_trampoline, @function
nmx_fiber_trampoline:
    .cfi_startproc
    .cfi_undefined rip
    .cfi_undefined rbp
    movq %r12, %rdi
    callq *%r13
    ud2
    .cfi_endproc
    .size nmx_fiber_trampoline, .-nmx_fiber_trampoline
)");

extern "C" void nmx_fiber_swap(void** save_sp, void** restore_sp);
extern "C" void nmx_fiber_trampoline();

namespace nmx::sim {

void fiber_make(FiberContext& ctx, const FiberStack& stack, void (*entry)(void*), void* arg,
                const char* name) {
  // Forge the frame nmx_fiber_swap's restore path expects, at the very top
  // of the stack. Layout from the adopted rsp upward:
  //   +0  mxcsr (4B) | x87 cw at +4 (2B)   — architectural defaults, so
  //                                           every fiber starts with
  //                                           identical FP behavior
  //   +8  r15  +16 r14  +24 r13=entry  +32 r12=arg  +40 rbx  +48 rbp=0
  //   +56 return address = trampoline
  // After the pops, rsp sits at stack.top() (page- hence 16-aligned); the
  // trampoline's callq then re-establishes standard ABI alignment.
  auto* top = static_cast<std::byte*>(stack.top());
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 64);
  frame[0] = 0x1F80ull | (0x037Full << 32);
  frame[1] = 0;                                          // r15
  frame[2] = 0;                                          // r14
  frame[3] = reinterpret_cast<std::uint64_t>(entry);     // r13
  frame[4] = reinterpret_cast<std::uint64_t>(arg);       // r12
  frame[5] = 0;                                          // rbx
  frame[6] = 0;                                          // rbp: stops walkers
  frame[7] = reinterpret_cast<std::uint64_t>(&nmx_fiber_trampoline);
  ctx.sp = frame;
  ctx.asan_fake_stack = nullptr;
  ctx.san_stack_lo = stack.limit();
  ctx.san_stack_size = stack.usable();
#if defined(NMX_FIBER_TSAN)
  ctx.tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(ctx.tsan_fiber, name);
#else
  (void)name;
#endif
}

void fiber_switch(FiberContext& from, FiberContext& to) {
  sanitizer_before_switch(from, to, /*from_is_dying=*/false);
  nmx_fiber_swap(&from.sp, &to.sp);
  sanitizer_after_switch(from, to);
}

[[noreturn]] void fiber_exit_switch(FiberContext& from, FiberContext& to) {
  sanitizer_before_switch(from, to, /*from_is_dying=*/true);
  nmx_fiber_swap(&from.sp, &to.sp);
  __builtin_unreachable();  // nothing ever resumes a dead fiber
}

}  // namespace nmx::sim

#else  // !__x86_64__ — portable ucontext fallback

namespace nmx::sim {
namespace {

struct PendingEntry {
  void (*entry)(void*) = nullptr;
  void* arg = nullptr;
};
// The engine is single-threaded per Engine instance, and fiber_make/first
// switch cannot interleave across engines on one thread, so one slot per
// thread is enough to smuggle the 64-bit pointers past makecontext's
// int-only argument list.
thread_local PendingEntry g_pending;

extern "C" void nmx_fiber_ucontext_shim() {
  PendingEntry p = g_pending;
  p.entry(p.arg);
}

}  // namespace

void fiber_make(FiberContext& ctx, const FiberStack& stack, void (*entry)(void*), void* arg,
                const char* name) {
  getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack.limit();
  ctx.uc.uc_stack.ss_size = stack.usable();
  ctx.uc.uc_link = nullptr;
  ctx.asan_fake_stack = nullptr;
  ctx.san_stack_lo = stack.limit();
  ctx.san_stack_size = stack.usable();
#if defined(NMX_FIBER_TSAN)
  ctx.tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(ctx.tsan_fiber, name);
#else
  (void)name;
#endif
  g_pending = PendingEntry{entry, arg};
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&nmx_fiber_ucontext_shim), 0);
}

void fiber_switch(FiberContext& from, FiberContext& to) {
  // The shim reads g_pending at its first instructions, so a fresh fiber
  // must be entered before any other fiber_make on this thread; the engine
  // guarantees that by making the spawn resume immediately forge + enter.
  sanitizer_before_switch(from, to, /*from_is_dying=*/false);
  swapcontext(&from.uc, &to.uc);
  sanitizer_after_switch(from, to);
}

[[noreturn]] void fiber_exit_switch(FiberContext& from, FiberContext& to) {
  sanitizer_before_switch(from, to, /*from_is_dying=*/true);
  setcontext(&to.uc);
  __builtin_unreachable();
}

}  // namespace nmx::sim

#endif  // __x86_64__

namespace nmx::sim {

void fiber_on_entry(FiberContext& self, FiberContext& peer) {
#if defined(NMX_FIBER_ASAN)
  // First time on this stack: no fake stack of our own to restore yet, and
  // the context we arrived from is the engine — record its real bounds.
  __sanitizer_finish_switch_fiber(nullptr, &peer.san_stack_lo, &peer.san_stack_size);
#else
  (void)peer;
#endif
  self.asan_fake_stack = nullptr;
}

void fiber_release(FiberContext& ctx, const FiberStack& stack) {
#if defined(NMX_FIBER_TSAN)
  if (ctx.tsan_fiber != nullptr) {
    __tsan_destroy_fiber(ctx.tsan_fiber);
  }
#endif
#if defined(NMX_FIBER_ASAN)
  // The dead fiber's frames may have left the stack poisoned; the next
  // occupant starts from a clean slate.
  __asan_unpoison_memory_region(stack.limit(), stack.usable());
#else
  (void)stack;
#endif
  ctx = FiberContext{};
}

std::size_t resolve_fiber_stack_bytes() {
#if defined(NMX_FIBER_ASAN) || defined(NMX_FIBER_TSAN)
  std::size_t kb = 1024;  // redzones + shadow frames roughly quadruple stack use
#else
  std::size_t kb = 256;
#endif
  if (const char* env = std::getenv("NMX_FIBER_STACK_KB"); env != nullptr && *env != '\0') {
    // from_chars takes digits only: no sign, no blanks, no unit suffix. The
    // upper bound keeps the byte count and its page rounding from wrapping.
    const std::string_view text(env);
    std::size_t v = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size() || v == 0 ||
        v > std::numeric_limits<std::size_t>::max() / 2048) {
      throw std::invalid_argument("NMX_FIBER_STACK_KB=\"" + std::string(text) +
                                  "\": expected a positive decimal integer (KiB)");
    }
    kb = v;
  }
  if (kb < 64) {
    kb = 64;  // below this even spawn bookkeeping would hit the guard
  }
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::size_t bytes = kb * 1024;
  bytes = (bytes + page - 1) & ~(page - 1);
  return bytes;
}

StackPool::StackPool(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {}

StackPool::~StackPool() {
  for (const FiberStack& s : all_) {
    ::munmap(s.base, s.total);
  }
}

FiberStack StackPool::acquire() {
  ++in_use_;
  if (!free_.empty()) {
    FiberStack s = free_.back();
    free_.pop_back();
    ++reuses_;
    return s;
  }
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t total = stack_bytes_ + page;
  int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#if defined(MAP_STACK)
  flags |= MAP_STACK;
#endif
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (base == MAP_FAILED) {
    std::fprintf(stderr, "nmx: fiber stack mmap(%zu) failed\n", total);
    std::abort();
  }
  // Guard page at the low end: stacks grow down, so overflow walks into
  // PROT_NONE and faults instead of scribbling over the adjacent mapping.
  if (::mprotect(base, page, PROT_NONE) != 0) {
    std::fprintf(stderr, "nmx: fiber guard mprotect failed\n");
    std::abort();
  }
  FiberStack s;
  s.base = static_cast<std::byte*>(base);
  s.total = total;
  s.guard = page;
  all_.push_back(s);
  ++allocated_;
  return s;
}

void StackPool::release(const FiberStack& s) {
  assert(in_use_ > 0);
  --in_use_;
  // Keep the mapping; the kernel already holds the committed pages and the
  // next actor reuses them warm. madvise(DONTNEED) here would trade reuse
  // speed for RSS — measured unnecessary, the pool depth is the live actor
  // high-water mark, not the total spawn count.
  free_.push_back(s);
}

}  // namespace nmx::sim
