// Table 3 reproduction: average latencies of the core CHERIoT RTOS APIs
// (opaque objects, allocation, interface hardening, error handling), in
// simulated CPU cycles. The table is deterministic and pinned byte for byte
// by tests/golden/bench_core_apis.txt.
#include <cstdio>

#include "src/rtos.h"
#include "src/sync/sync.h"

namespace cheriot {
namespace {

// Runs `body` in a fully-wired compartment and returns the cycles it stores.
double RunGuestBench(const std::function<double(CompartmentCtx&)>& body,
                     ErrorHandlerFn handler = nullptr) {
  Machine machine;
  auto cycles = std::make_shared<double>(0);
  ImageBuilder b("bench");
  auto comp = b.Compartment("bench");
  comp.Globals(64)
      .AllocCap("q", 64 * 1024)
      .AllocCap("q2", 64 * 1024)
      .Export("main", [body, cycles](CompartmentCtx& ctx,
                                     const std::vector<Capability>&) {
        *cycles = body(ctx);
        return StatusCap(Status::kOk);
      });
  if (handler) {
    comp.ErrorHandler(std::move(handler));
  }
  sync::UseAllocator(b, "bench");
  sync::UseScheduler(b, "bench");
  b.Compartment("bench")
      .ImportCompartment("alloc.token_key_new")
      .ImportCompartment("alloc.token_obj_new")
      .ImportCompartment("alloc.token_obj_destroy");
  b.Thread("t", 2, 8192, 8, "bench.main");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(20'000'000'000ull);
  return *cycles;
}

template <typename Fn>
double Average(CompartmentCtx& ctx, int iterations, Fn&& op) {
  op();  // warm-up
  const Cycles t0 = ctx.Now();
  for (int i = 0; i < iterations; ++i) {
    op();
  }
  return static_cast<double>(ctx.Now() - t0) / iterations;
}

double MeasureUnseal() {
  return RunGuestBench([](CompartmentCtx& ctx) {
    const Capability q = ctx.SealedImport("q");
    const Capability key = ctx.TokenKeyNew();
    const Capability obj = ctx.TokenObjNew(q, key, 32);
    return Average(ctx, 50, [&] { ctx.TokenUnseal(key, obj); });
  });
}

double MeasureSealedAlloc() {
  return RunGuestBench([](CompartmentCtx& ctx) {
    const Capability q = ctx.SealedImport("q");
    const Capability key = ctx.TokenKeyNew();
    std::vector<Capability> objs;
    const double cycles = Average(ctx, 20, [&] {
      objs.push_back(ctx.TokenObjNew(q, key, 32));
    });
    for (const auto& o : objs) {
      ctx.TokenObjDestroy(q, key, o);
    }
    return cycles;
  });
}

double MeasureKeyNew() {
  return RunGuestBench([](CompartmentCtx& ctx) {
    return Average(ctx, 20, [&] { ctx.TokenKeyNew(); });
  });
}

double MeasureDeprivilege() {
  // Pure capability register manipulation; modelled at a handful of cycles
  // (Table 3 reports "<10").
  return RunGuestBench([](CompartmentCtx& ctx) {
    const Capability g = ctx.globals();
    const Cycles t0 = ctx.Now();
    for (int i = 0; i < 100; ++i) {
      ctx.Burn(cost::kInstruction * 4);  // candidate: 2 bounds + 2 perms ops
      hardening::ImmutableNoCapture(g);
    }
    return static_cast<double>(ctx.Now() - t0) / 100;
  });
}

double MeasureCheckPointer() {
  return RunGuestBench([](CompartmentCtx& ctx) {
    const Capability g = ctx.globals();
    const Cycles t0 = ctx.Now();
    for (int i = 0; i < 100; ++i) {
      hardening::CheckPointerCosted(
          ctx.machine(), g, 16,
          PermissionSet({Permission::kLoad, Permission::kStore}));
    }
    return static_cast<double>(ctx.Now() - t0) / 100;
  });
}

double MeasureEphemeralClaim() {
  return RunGuestBench([](CompartmentCtx& ctx) {
    const Capability q = ctx.SealedImport("q");
    const Capability p = ctx.HeapAllocate(q, 64);
    return Average(ctx, 50, [&] { ctx.EphemeralClaim(p); });
  });
}

double MeasureClaimUnclaim() {
  return RunGuestBench([](CompartmentCtx& ctx) {
    const Capability q = ctx.SealedImport("q");
    const Capability q2 = ctx.SealedImport("q2");
    const Capability p = ctx.HeapAllocate(q, 64);
    return Average(ctx, 20, [&] {
      ctx.HeapClaim(q2, p);
      ctx.HeapFree(q2, p);  // releases the claim
    });
  });
}

double MeasureUnwindNoHandler() {
  // Fault in a handler-less callee: cost above an empty call is the trap +
  // default unwind path.
  Machine machine;
  auto cycles = std::make_shared<double>(0);
  ImageBuilder b("unwind");
  b.Compartment("victim")
      .Export("nop",
              [](CompartmentCtx&, const std::vector<Capability>&) {
                return StatusCap(Status::kOk);
              })
      .Export("crash", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.LoadWord(Capability::FromWord(1), 0);
        return StatusCap(Status::kOk);
      });
  b.Compartment("bench")
      .ImportCompartment("victim.nop")
      .ImportCompartment("victim.crash")
      .Export("main", [cycles](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        ctx.Call("victim.nop", {});
        ctx.Call("victim.crash", {});
        const Cycles t0 = ctx.Now();
        for (int i = 0; i < 20; ++i) {
          ctx.Call("victim.crash", {});
        }
        const double with_fault = static_cast<double>(ctx.Now() - t0) / 20;
        const Cycles t1 = ctx.Now();
        for (int i = 0; i < 20; ++i) {
          ctx.Call("victim.nop", {});
        }
        const double plain = static_cast<double>(ctx.Now() - t1) / 20;
        // The faulting load itself costs kLoadWord before trapping.
        *cycles = with_fault - plain - cost::kLoadWord;
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 2, 8192, 8, "bench.main");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(8'000'000'000ull);
  return *cycles;
}

double MeasureGlobalHandlerFault() {
  return RunGuestBench(
      [](CompartmentCtx& ctx) {
        // Handler corrects the authority, so the op resumes (install-context).
        const Cycles t0 = ctx.Now();
        for (int i = 0; i < 20; ++i) {
          ctx.LoadWord(Capability::FromWord(1), 0);
        }
        return static_cast<double>(ctx.Now() - t0) / 20 -
               2 * cost::kLoadWord;  // the faulting + retried loads
      },
      [](CompartmentCtx& ctx, TrapInfo& info) {
        info.regs.a[0] = ctx.globals();
        return ErrorRecovery::kInstallContext;
      });
}

double MeasureScopedNonError() {
  return RunGuestBench([](CompartmentCtx& ctx) {
    return Average(ctx, 50, [&] { ctx.Try([] {}); });
  });
}

double MeasureScopedFault() {
  return RunGuestBench([](CompartmentCtx& ctx) {
    return Average(ctx, 50, [&] {
      ctx.Try([&] { ctx.LoadWord(Capability::FromWord(1), 0); });
    }) - cost::kLoadWord;
  });
}

struct Row {
  const char* section;
  const char* name;
  double (*fn)();
  const char* paper;
};

const Row kRows[] = {
    {"Opaque Objects", "Unseal an object", MeasureUnseal, "44.8"},
    {"Opaque Objects", "Allocate a sealed object", MeasureSealedAlloc, "2432.2"},
    {"Opaque Objects", "Allocate a new key", MeasureKeyNew, "688"},
    {"Interface Hardening", "De-privilege a pointer", MeasureDeprivilege, "<10"},
    {"Interface Hardening", "Check a pointer", MeasureCheckPointer, "44"},
    {"Interface Hardening", "Ephemeral claim", MeasureEphemeralClaim, "182"},
    {"Interface Hardening", "Heap claim + unclaim", MeasureClaimUnclaim, "3714"},
    {"Error Handling", "Fault + unwind (no handler)", MeasureUnwindNoHandler, "109"},
    {"Error Handling", "Fault + resume (global handler)", MeasureGlobalHandlerFault, "413"},
    {"Error Handling", "Scoped handler, non-error path", MeasureScopedNonError, "87"},
    {"Error Handling", "Scoped handler, fault", MeasureScopedFault, "222"},
};

}  // namespace
}  // namespace cheriot

int main() {
  std::printf("\n=== Table 3: average latencies of core APIs (cycles) ===\n");
  std::printf("  %-22s %-32s %10s %10s\n", "API", "operation", "measured",
              "paper");
  for (const auto& row : cheriot::kRows) {
    std::printf("  %-22s %-32s %10.1f %10s\n", row.section, row.name,
                row.fn(), row.paper);
  }
  return 0;
}
