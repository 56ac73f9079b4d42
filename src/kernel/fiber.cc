#include "src/kernel/fiber.h"

#include <cxxabi.h>

#include <cstdint>

namespace cheriot {

namespace {

// The Itanium C++ ABI's per-thread exception state (__cxa_eh_globals), the
// same two fields in libstdc++ and libc++abi.
struct EhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
};

// Hands the host thread's exception state from `from` to `to`. Kept in its
// own non-inlined frame: __cxa_get_globals is declared const, and a copy of
// its result cached across a switch would name the wrong host thread once a
// fiber migrates (a Fleet steps a board from any pool thread).
[[gnu::noinline]] void SwapExceptionState(void*& from_caught,
                                          unsigned int& from_uncaught,
                                          void* to_caught,
                                          unsigned int to_uncaught) {
  auto* g = reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
  from_caught = g->caught_exceptions;
  from_uncaught = g->uncaught_exceptions;
  g->caught_exceptions = to_caught;
  g->uncaught_exceptions = to_uncaught;
}

}  // namespace

#ifdef CHERIOT_FIBER_X86_64

extern "C" {
void cheriot_fiber_switch(void** save_sp, void* load_sp);
void cheriot_fiber_start();
}

// cheriot_fiber_switch(save_sp, load_sp): pushes the callee-saved registers
// and an 8-byte floating-point control slot (MXCSR, then the x87 control
// word), stores the stack pointer to *save_sp, and pops the same frame off
// load_sp. Both stacks hold the same layout, so the unwind info describes
// either side of the switch.
//
// cheriot_fiber_start is where a freshly armed context first "returns" to:
// it calls the entry function Arm() left in r12 on a 16-byte-aligned stack.
asm(R"(
    .pushsection .text
    .globl cheriot_fiber_switch
    .type cheriot_fiber_switch, @function
    .p2align 4
cheriot_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbp, 0
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    pushq %r14
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r14, 0
    pushq %r15
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r15, 0
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r15
    popq %r14
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r14
    popq %r13
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r13
    popq %r12
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r12
    popq %rbx
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbx
    popq %rbp
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbp
    ret
    .cfi_endproc
    .size cheriot_fiber_switch, .-cheriot_fiber_switch

    .globl cheriot_fiber_start
    .type cheriot_fiber_start, @function
    .p2align 4
cheriot_fiber_start:
    .cfi_startproc
    .cfi_undefined %rip
    callq *%r12
    ud2
    .cfi_endproc
    .size cheriot_fiber_start, .-cheriot_fiber_start
    .popsection
)");

void FiberContext::Arm(void* stack, size_t size, Entry entry) {
  uint32_t mxcsr = 0;
  uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  // The frame cheriot_fiber_switch pops, lowest address first: the FP
  // control slot, r15, r14, r13, r12 (= entry), rbx, rbp, the return address
  // (cheriot_fiber_start), then two zero words so cheriot_fiber_start runs
  // with rsp 16-byte aligned and a null return address ends any backtrace.
  const uintptr_t top =
      (reinterpret_cast<uintptr_t>(stack) + size) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<uint64_t*>(top) - 10;
  frame[0] = mxcsr | (static_cast<uint64_t>(x87_cw) << 32);
  frame[1] = frame[2] = frame[3] = 0;
  frame[4] = reinterpret_cast<uint64_t>(entry);
  frame[5] = frame[6] = 0;
  frame[7] = reinterpret_cast<uint64_t>(&cheriot_fiber_start);
  frame[8] = frame[9] = 0;
  sp_ = frame;
  caught_exceptions_ = nullptr;
  uncaught_exceptions_ = 0;
}

void FiberContext::Switch(FiberContext& from, FiberContext& to) {
  SwapExceptionState(from.caught_exceptions_, from.uncaught_exceptions_,
                     to.caught_exceptions_, to.uncaught_exceptions_);
  cheriot_fiber_switch(&from.sp_, to.sp_);
}

#else  // !CHERIOT_FIBER_X86_64

void FiberContext::Arm(void* stack, size_t size, Entry entry) {
  getcontext(&uc_);
  uc_.uc_stack.ss_sp = stack;
  uc_.uc_stack.ss_size = size;
  uc_.uc_link = nullptr;
  makecontext(&uc_, entry, 0);
  caught_exceptions_ = nullptr;
  uncaught_exceptions_ = 0;
}

void FiberContext::Switch(FiberContext& from, FiberContext& to) {
  SwapExceptionState(from.caught_exceptions_, from.uncaught_exceptions_,
                     to.caught_exceptions_, to.uncaught_exceptions_);
  swapcontext(&from.uc_, &to.uc_);
}

#endif

}  // namespace cheriot
