#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

namespace mpipred::sim {

/// A stackful cooperative coroutine ("fiber").
///
/// The simulation runs every rank of the simulated machine as a fiber inside
/// one OS thread: `resume()` transfers control into the fiber, and the fiber
/// gives control back with `Fiber::yield()`. On x86-64 the switch is a few
/// instructions with no system call: a resume+yield pair costs about 45 ns
/// (POSIX ucontext, still used on other platforms and shadow-stack builds,
/// takes about 650 ns because it sets the signal mask on every switch;
/// both measured on a 4-core x86-64 Linux container). A shadow-stack build
/// is one whose compiler advertises them (`__CET__` bit 1), as
/// `-fcf-protection=full` or `=return` do; some distributions' compilers
/// (Ubuntu's gcc, for one) turn that on by default, so their x86-64 builds
/// take ucontext too. That is what makes
/// simulating millions of blocking MPI calls practical, and the
/// single-threaded execution makes every run bit-reproducible. Each fiber
/// keeps its own floating-point rounding mode.
///
/// The stack is allocated without being zeroed, so only the pages the body
/// touches become resident, and it is released as soon as the body returns.
///
/// Exceptions thrown inside the fiber body are captured and rethrown from
/// the `resume()` call that observed the termination.
class Fiber {
 public:
  /// Creates a suspended fiber that will run `body` on first resume.
  explicit Fiber(std::function<void()> body, std::size_t stack_bytes = 256 * 1024);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber(Fiber&&) = delete;
  Fiber& operator=(Fiber&&) = delete;

  /// Destroying a fiber that has not finished is allowed (its stack is
  /// simply released, without running the destructors of what its frames
  /// own); the body must not rely on running to completion. Call unwind()
  /// first to run those destructors.
  ~Fiber();

  /// Runs the fiber until it yields or finishes. Must be called from
  /// scheduler context (never from inside any fiber). Rethrows any
  /// exception that escaped the fiber body.
  void resume();

  /// Unwinds a suspended fiber: resumes it once more, with the yield() it
  /// is suspended in throwing instead of returning, so the destructors of
  /// everything on its stack run and the body finishes. Anything the body
  /// throws meanwhile is dropped. Does nothing to a fiber that has
  /// finished or never started. Must be called from scheduler context.
  void unwind();

  /// Suspends the currently running fiber, returning control to the
  /// scheduler context that called resume(). Must be called from inside a
  /// fiber. In a fiber being unwound it throws an exception of an
  /// unnamed type instead; a body that catches it must not yield again
  /// expecting to be resumed (every further yield() throws too).
  static void yield();

  /// True once the body has returned (or thrown).
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// True while this fiber is the one currently executing.
  [[nodiscard]] bool running() const noexcept;

  /// The fiber currently executing on this thread, or nullptr when in
  /// scheduler context.
  [[nodiscard]] static Fiber* current() noexcept;

 private:
  struct Impl;
  static void trampoline();

  std::unique_ptr<Impl> impl_;
  std::function<void()> body_;
  bool started_ = false;
  bool finished_ = false;
  bool unwinding_ = false;
  std::exception_ptr pending_exception_;
};

}  // namespace mpipred::sim
