#include "sim/fiber.hpp"

#include <cstdint>
#include <cstring>

#include "common/assert.hpp"
#include "common/error.hpp"

// The stack switch. On x86-64 it is the routine below; it does not keep a
// CET shadow stack, so a TU built with shadow stacks (__CET__ bit 1) takes
// ucontext, which does. Other architectures take ucontext too.
#if defined(__x86_64__) && !(defined(__CET__) && (__CET__ & 2))
#define MPIPRED_FIBER_ASM_SWITCH 1
#else
#define MPIPRED_FIBER_ASM_SWITCH 0
#include <ucontext.h>
#endif

// gcc announces sanitizers with __SANITIZE_*__, clang with __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define MPIPRED_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define MPIPRED_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPIPRED_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define MPIPRED_FIBER_TSAN 1
#endif
#endif
#ifdef MPIPRED_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef MPIPRED_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if MPIPRED_FIBER_ASM_SWITCH
/// Saves the callee-saved state of the caller (rbp, rbx, r12-r15, MXCSR and
/// the x87 control word, as glibc's swapcontext keeps them) on its own
/// stack, stores that stack pointer in `*save_sp`, then loads `load_sp` and
/// restores the state found there. The call "returns" on the other stack.
extern "C" void mpipred_fiber_switch(void** save_sp, void* load_sp);

asm(R"(
  .pushsection .text
  .p2align 4
  .globl mpipred_fiber_switch
  .hidden mpipred_fiber_switch
  .type mpipred_fiber_switch, @function
mpipred_fiber_switch:
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
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size mpipred_fiber_switch, .-mpipred_fiber_switch
  .popsection
)");
#endif

namespace mpipred::sim {

namespace {
/// The fiber currently executing on this thread (nullptr in scheduler
/// context). thread_local so independent simulations may run on different
/// threads (e.g. parallel gtest shards within one binary).
thread_local Fiber* g_current_fiber = nullptr;

/// What yield() throws in a fiber being unwound; the trampoline absorbs it.
struct Unwinding {};

#if MPIPRED_FIBER_ASM_SWITCH
/// A suspended side: its stack pointer, with everything else on its stack.
struct Context {
  void* sp = nullptr;
};

/// Switches from the running side (saved into `from`) to `to`.
bool jump(Context& from, const Context& to) {
  mpipred_fiber_switch(&from.sp, to.sp);
  return true;
}

/// Lays out the frame mpipred_fiber_switch pops on the first switch into
/// `ctx`: the caller's MXCSR and x87 control word, zeroed callee-saved
/// registers (rbp = 0 ends frame-pointer walks), `entry` as the address it
/// returns to, and a null return address for `entry` itself. The frame ends
/// at a 16-byte boundary, so `entry` starts with rsp = 8 (mod 16), as after
/// a call.
void prepare(Context& ctx, unsigned char* stack, std::size_t bytes, void (*entry)()) {
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  std::uint64_t frame[9] = {};  // fp state, r15, r14, r13, r12, rbx, rbp, entry, 0
  frame[0] = mxcsr | (std::uint64_t{fpu_cw} << 32);
  frame[7] = reinterpret_cast<std::uintptr_t>(entry);
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack) + bytes) & ~std::uintptr_t{15};
  auto* sp = reinterpret_cast<unsigned char*>(top - sizeof frame);
  std::memcpy(sp, frame, sizeof frame);
  ctx.sp = sp;
}
#else
struct Context {
  ucontext_t uc{};
};

bool jump(Context& from, const Context& to) {
  return swapcontext(&from.uc, &to.uc) == 0;
}

void prepare(Context& ctx, unsigned char* stack, std::size_t bytes, void (*entry)()) {
  if (getcontext(&ctx.uc) != 0) {
    throw Error("getcontext failed");
  }
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = bytes;
  ctx.uc.uc_link = nullptr;  // termination handled in the trampoline
  makecontext(&ctx.uc, entry, 0);
}
#endif
}  // namespace

/// A fiber's stack and both sides' saved state; released as soon as the
/// body has finished. Both switch directions tell ASan which stack becomes
/// live (and keep each side's fake stack apart) and tell TSan which fiber
/// runs; without that, both misread accesses on the other stack.
struct Fiber::Impl {
  explicit Impl(std::size_t bytes)
      : stack(std::make_unique_for_overwrite<unsigned char[]>(bytes)), stack_bytes(bytes) {}
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  Impl(Impl&&) = delete;
  Impl& operator=(Impl&&) = delete;
  ~Impl() {
#ifdef MPIPRED_FIBER_TSAN
    if (tsan_fiber != nullptr) {
      __tsan_destroy_fiber(tsan_fiber);
    }
#endif
  }

  void start() {
    prepare(fiber_ctx, stack.get(), stack_bytes, &Fiber::trampoline);
#ifdef MPIPRED_FIBER_TSAN
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }

  /// Scheduler -> fiber; returns once the fiber yields or finishes.
  bool enter() {
#ifdef MPIPRED_FIBER_ASAN
    void* resumer_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&resumer_fake_stack, stack.get(), stack_bytes);
#endif
#ifdef MPIPRED_FIBER_TSAN
    tsan_resumer = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
    const bool ok = jump(scheduler_ctx, fiber_ctx);
#ifdef MPIPRED_FIBER_ASAN
    __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
    return ok;
  }

  /// Fiber -> scheduler. After the `last` switch the fiber never runs
  /// again, so ASan may drop its fake stack.
  bool leave([[maybe_unused]] bool last) {
#ifdef MPIPRED_FIBER_ASAN
    __sanitizer_start_switch_fiber(last ? nullptr : &fake_stack, resumer_stack,
                                   resumer_stack_bytes);
#endif
#ifdef MPIPRED_FIBER_TSAN
    __tsan_switch_to_fiber(tsan_resumer, 0);
#endif
    const bool ok = jump(fiber_ctx, scheduler_ctx);
    arrived();
    return ok;
  }

  /// Runs on the fiber's stack after every switch into it.
  void arrived() {
#ifdef MPIPRED_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fake_stack, &resumer_stack, &resumer_stack_bytes);
#endif
  }

  Context fiber_ctx;
  Context scheduler_ctx;
  std::unique_ptr<unsigned char[]> stack;
  std::size_t stack_bytes;
#ifdef MPIPRED_FIBER_ASAN
  void* fake_stack = nullptr;  // the fiber's ASan fake stack while it is suspended
  const void* resumer_stack = nullptr;
  std::size_t resumer_stack_bytes = 0;
#endif
#ifdef MPIPRED_FIBER_TSAN
  void* tsan_fiber = nullptr;
  void* tsan_resumer = nullptr;
#endif
};

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes) : body_(std::move(body)) {
  MPIPRED_REQUIRE(body_ != nullptr, "fiber body must be callable");
  MPIPRED_REQUIRE(stack_bytes >= 16 * 1024, "fiber stack must be at least 16 KiB");
  impl_ = std::make_unique<Impl>(stack_bytes);
}

Fiber::~Fiber() = default;

bool Fiber::running() const noexcept { return g_current_fiber == this; }

Fiber* Fiber::current() noexcept { return g_current_fiber; }

void Fiber::trampoline() {
  Fiber* self = g_current_fiber;
  self->impl_->arrived();
  try {
    self->body_();
  } catch (...) {
    if (!self->unwinding_) {
      self->pending_exception_ = std::current_exception();
    }
  }
  self->finished_ = true;
  // Return to the scheduler for the last time: this frame has no caller to
  // return to.
  self->impl_->leave(true);
  __builtin_unreachable();
}

void Fiber::resume() {
  MPIPRED_REQUIRE(g_current_fiber == nullptr, "resume() must be called from scheduler context");
  MPIPRED_REQUIRE(!finished_, "cannot resume a finished fiber");

  if (!started_) {
    started_ = true;
    impl_->start();
  }

  g_current_fiber = this;
  const bool switched = impl_->enter();
  g_current_fiber = nullptr;
  if (!switched) {
    throw Error("switch into fiber failed");
  }
  if (finished_) {
    impl_.reset();  // the stack is never used again
  }

  if (pending_exception_) {
    std::exception_ptr ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::unwind() {
  if (!started_ || finished_) {
    return;
  }
  unwinding_ = true;
  resume();  // finishes the body: it can no longer switch out
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  MPIPRED_REQUIRE(self != nullptr, "yield() must be called from inside a fiber");
  if (!self->unwinding_) {
    g_current_fiber = nullptr;
    if (!self->impl_->leave(false)) {
      g_current_fiber = self;
      throw Error("switch out of fiber failed");
    }
    // Restored by resume() before control returns here.
  }
  if (self->unwinding_) {
    throw Unwinding{};
  }
}

}  // namespace mpipred::sim
