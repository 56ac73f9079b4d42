// Fig. 6a reproduction: call and interrupt latencies, measured in simulated
// cycles on the booted system. Host time is irrelevant here (perfbench/
// measures it); the table is deterministic and pinned byte for byte by
// tests/golden/bench_call_latency.txt.
//
// Paper reference points: function call 6, library call 14, empty
// compartment call 209, +2x256 B stack zeroing 452, 2x1 KiB worst case 1284,
// interrupt latency 1028 cycles. Guest code is native C++, so an
// intra-compartment function call runs no simulated instruction: its row
// prints the cost-model constant, not a measurement.
#include <cstdio>

#include "src/rtos.h"
#include "src/sync/sync.h"

namespace cheriot {
namespace {

struct Measured {
  double cycles = 0;
};

// Runs `body` in a guest compartment and returns what it stores into
// Measured (average simulated cycles for the operation under test).
Measured RunGuestBench(
    const std::function<void(CompartmentCtx&, Measured*)>& body) {
  Machine machine;
  auto result = std::make_shared<Measured>();
  ImageBuilder b("bench");
  b.Compartment("callee")
      .Globals(32)
      .Export("nop",
              [](CompartmentCtx&, const std::vector<Capability>&) {
                return StatusCap(Status::kOk);
              })
      .Export("use_stack",
              [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
                // Dirty `bytes` of callee stack (one store per granule).
                const Word bytes = args[0].word();
                auto buf = ctx.AllocStack(bytes);
                for (Word off = 0; off + 8 <= bytes; off += 8) {
                  ctx.StoreWord(buf.cap(), off, 0xD1);
                }
                return StatusCap(Status::kOk);
              },
              2048);
  b.Compartment("bench")
      .Globals(32)
      .ImportCompartment("callee.nop")
      .ImportCompartment("callee.use_stack")
      .Export("main", [body, result](CompartmentCtx& ctx,
                                     const std::vector<Capability>&) {
        body(ctx, result.get());
        return StatusCap(Status::kOk);
      });
  sync::UseLocks(b, "bench");
  b.Thread("t", 2, 8192, 8, "bench.main");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(8'000'000'000ull);
  return *result;
}

double MeasureCompartmentCall(Word stack_bytes) {
  const Measured m = RunGuestBench([stack_bytes](CompartmentCtx& ctx,
                                                 Measured* out) {
    // One warm-up call, then twenty measured calls (paper methodology).
    auto dirty_caller_stack = [&] {
      if (stack_bytes == 0) {
        return;
      }
      auto buf = ctx.AllocStack(stack_bytes);
      for (Word off = 0; off + 8 <= stack_bytes; off += 8) {
        ctx.StoreWord(buf.cap(), off, 0xD1);
      }
      // Buffer released here: the dirty region sits below sp for the call.
    };
    const char* target = stack_bytes == 0 ? "callee.nop" : "callee.use_stack";
    dirty_caller_stack();
    ctx.Call(target, {WordCap(stack_bytes)});
    Cycles total = 0;
    for (int i = 0; i < 20; ++i) {
      dirty_caller_stack();
      const Cycles t0 = ctx.Now();
      ctx.Call(target, {WordCap(stack_bytes)});
      total += ctx.Now() - t0;
      if (stack_bytes != 0) {
        // Subtract the callee's own stack-dirtying stores so only the
        // switcher path (incl. zeroing) is reported.
        total -= (stack_bytes / 8) * cost::kStoreWord;
      }
    }
    out->cycles = static_cast<double>(total) / 20;
  });
  return m.cycles;
}

double MeasureLibraryCall() {
  const Measured m = RunGuestBench([](CompartmentCtx& ctx, Measured* out) {
    sync::Mutex mutex(ctx.globals());
    // Warm-up.
    ctx.LibCall("locks.mutex_trylock", {ctx.globals()});
    ctx.LibCall("locks.mutex_unlock", {ctx.globals()});
    const Cycles t0 = ctx.Now();
    for (int i = 0; i < 20; ++i) {
      ctx.LibCall("locks.mutex_unlock", {ctx.globals()});
    }
    // Each iteration: library call + 1 load + 1 store of the lock word.
    out->cycles =
        static_cast<double>(ctx.Now() - t0) / 20 -
        (cost::kLoadWord + cost::kStoreWord);
  });
  return m.cycles;
}

double MeasureInterruptLatency() {
  // Paper methodology (§5.3.2): a high-priority thread asks the revoker for
  // an interrupt and waits on its interrupt futex; a low-priority thread
  // continually records the current timestamp; the latency is the gap
  // between the low-priority thread's last timestamp and the high-priority
  // thread's wake-up timestamp.
  Machine machine;
  struct State {
    std::vector<double> samples;
  };
  auto state = std::make_shared<State>();
  ImageBuilder b("irq-bench");
  b.Compartment("hi")
      .Globals(32)
      .ImportMmio("revoker", kRevokerMmioBase, kMmioRegionSize, true)
      .ImportCompartment("sched.interrupt_futex_get")
      .Export("main", [state](CompartmentCtx& ctx,
                              const std::vector<Capability>&) {
        const Capability futex = ctx.InterruptFutex(IrqLine::kRevoker);
        const Capability revoker = ctx.Mmio("revoker");
        for (int i = 0; i < 10; ++i) {
          const Word seen = ctx.LoadWord(futex, 0);
          ctx.StoreWord(revoker, 12, 1);  // request completion IRQ
          ctx.FutexWait(futex, seen, ~0u);
          const Cycles t2 = ctx.Now();
          // t1 lives in the shared global written by the low-prio thread.
          const Word t1 = ctx.LoadWord(ctx.globals(), 0);
          state->samples.push_back(static_cast<double>(t2 - t1));
        }
        ctx.StoreWord(ctx.globals(), 4, 1);  // stop the low-prio thread
        return StatusCap(Status::kOk);
      });
  b.Compartment("hi").Export(
      "spin", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        while (ctx.LoadWord(ctx.globals(), 4) == 0) {
          ctx.StoreWord(ctx.globals(), 0, static_cast<Word>(ctx.Now()));
        }
        return StatusCap(Status::kOk);
      });
  sync::UseScheduler(b, "hi");
  b.Thread("hi", 8, 4096, 8, "hi.main");
  b.Thread("lo", 1, 4096, 8, "hi.spin");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(8'000'000'000ull);
  double sum = 0;
  for (double s : state->samples) {
    sum += s;
  }
  return state->samples.empty() ? 0 : sum / state->samples.size();
}

}  // namespace
}  // namespace cheriot

int main() {
  using namespace cheriot;
  std::printf("\n=== Figure 6a: call and interrupt latencies (cycles) ===\n");
  std::printf("  %-34s %10s %10s\n", "operation", "measured", "paper");
  std::printf("  %-34s %10.1f %10s\n", "function call (modelled constant)",
              static_cast<double>(cost::kFunctionCall), "6");
  std::printf("  %-34s %10.1f %10s\n", "library call", MeasureLibraryCall(), "14");
  std::printf("  %-34s %10.1f %10s\n", "compartment call (empty)",
              MeasureCompartmentCall(0), "209");
  std::printf("  %-34s %10.1f %10s\n", "compartment call (2x256 B stack)",
              MeasureCompartmentCall(256), "452");
  std::printf("  %-34s %10.1f %10s\n", "compartment call (2x1 KiB stack)",
              MeasureCompartmentCall(1024), "1284");
  std::printf("  %-34s %10.1f %10s\n", "interrupt latency",
              MeasureInterruptLatency(), "1028");
  return 0;
}
