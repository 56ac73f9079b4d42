// Host fibers: the execution contexts guest threads run on (DESIGN.md §4).
//
// Every guest thread owns one host stack and one FiberContext; the kernel
// moves between them (and the host thread that called System::Run) with
// FiberContext::Switch. On x86-64 the switch saves only what the SysV ABI
// makes callee-saved — rbx, rbp, r12-r15 and the stack pointer — plus the
// MXCSR and the x87 control word, so each fiber keeps its own rounding mode
// and exception masks as glibc swapcontext did. It makes no system call:
// swapcontext's rt_sigprocmask per switch saved a signal mask nothing here
// changes. Other targets use ucontext, the portable path.
//
// On every target a switch also swaps the C++ runtime's per-thread
// exception state (the caught-exception stack and the uncaught count), which
// neither path saves by itself. Without that, a fiber switched out inside a
// catch block — a trap handler runs guest code inside the switcher's catch —
// leaves its exception on the host thread's stack, and the next fiber to
// finish a catch there pops and frees the wrong one.
//
// Sanitizer fiber annotations are the caller's job (System::FiberSwap).
#ifndef SRC_KERNEL_FIBER_H_
#define SRC_KERNEL_FIBER_H_

#include <cstddef>

#if defined(__x86_64__) && defined(__ELF__)
#define CHERIOT_FIBER_X86_64 1
#else
#include <ucontext.h>
#endif

namespace cheriot {

class FiberContext {
 public:
  using Entry = void (*)();

  // Prepares this context to start `entry` on [stack, stack + size) at the
  // next Switch into it, with the calling context's floating-point control
  // state. `entry` must never return. May be called again on a context that
  // ran: whatever was on its stack is abandoned, not unwound.
  void Arm(void* stack, size_t size, Entry entry);

  // Saves the running context into `from` and resumes `to`; returns when a
  // later Switch resumes `from`, possibly on another host thread.
  static void Switch(FiberContext& from, FiberContext& to);

 private:
  // The fiber's share of the C++ exception state while it is switched out.
  void* caught_exceptions_ = nullptr;
  unsigned int uncaught_exceptions_ = 0;
#ifdef CHERIOT_FIBER_X86_64
  void* sp_ = nullptr;  // saved stack pointer; the registers sit above it
#else
  ucontext_t uc_{};
#endif
};

}  // namespace cheriot

#endif  // SRC_KERNEL_FIBER_H_
