// Integration tests for the running system: compartment calls and isolation,
// trap handling and error-handler policies, threads, futexes, the allocator
// with quotas/quarantine/claims, the token API, micro-reboots and the host
// fiber contract (floating-point control state and C++ exceptions stay with
// the fiber that owns them).
#include <gtest/gtest.h>

#include <cfenv>
#include <stdexcept>
#include <string>

#include "src/rtos.h"

namespace cheriot {
namespace {

// Harness: builds, boots and runs a firmware image, recording results into
// plain ints via compartment state.
struct Shared {
  int observed = 0;
  Word value = 0;
  Capability cap;
  std::vector<int> order;
};

class KernelTest : public ::testing::Test {
 protected:
  Machine machine_;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
};

// current_thread() outside guest context (current_thread_id_ == -1) must
// fail loudly instead of silently indexing threads_[-1]. The check is
// CHERIOT_CHECK, so it holds in release builds too.
TEST(SystemGuardDeathTest, CurrentThreadOutsideGuestContextAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Machine machine;
  ImageBuilder b("guard");
  b.Compartment("app").Export(
      "main", [](CompartmentCtx&, const std::vector<Capability>&) {
        return StatusCap(Status::kOk);
      });
  b.Thread("app", 1, 4 * 1024, 4, "app.main");
  System sys(machine, b.Build());
  EXPECT_DEATH(sys.current_thread(), "no current guest thread");
}

TEST_F(KernelTest, CompartmentCallPassesArgsAndReturns) {
  ImageBuilder b("call");
  auto shared = shared_;
  b.Compartment("callee").Export(
      "add", [](CompartmentCtx&, const std::vector<Capability>& args) {
        return WordCap(args[0].word() + args[1].word());
      });
  b.Compartment("caller")
      .ImportCompartment("callee.add")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        shared->value =
            ctx.Call("callee.add", {WordCap(20), WordCap(22)}).word();
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "caller.main");
  System sys(machine_, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(), System::RunResult::kAllExited);
  EXPECT_EQ(shared->value, 42u);
}

TEST_F(KernelTest, UndeclaredCallTargetIsUnreachable) {
  // Cross-compartment CFI (§3.2.5): no import, no call.
  auto shared = shared_;
  ImageBuilder b("cfi");
  b.Compartment("callee").Export(
      "secret", [shared](CompartmentCtx&, const std::vector<Capability>&) {
        shared->observed = 1;  // must never run
        return Capability();
      });
  b.Compartment("caller").Export(
      "main", [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability r = ctx.Call("callee.secret", {});
        shared->value = r.word();
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "caller.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->observed, 0);  // callee never executed
}

TEST_F(KernelTest, CompartmentGlobalsAreIsolated) {
  auto shared = shared_;
  ImageBuilder b("iso");
  b.Compartment("victim").Globals(64).Export(
      "main", [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.StoreWord(ctx.globals(), 0, 0xC0FFEE);
        shared->cap = ctx.globals();  // leak the address (not the authority)
        return StatusCap(Status::kOk);
      });
  b.Compartment("attacker")
      .ImportCompartment("victim.main")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        ctx.Call("victim.main", {});
        // Forge an integer "pointer" at the victim's globals: the access
        // must trap (no capability, no access).
        const Capability forged = Capability::FromWord(shared->cap.base());
        auto info = ctx.Try([&] { ctx.LoadWord(forged, 0); });
        shared->observed = info.has_value() ? 1 : 2;
        // Own globals still work fine.
        ctx.StoreWord(ctx.globals(), 0, 7);
        shared->value = ctx.LoadWord(ctx.globals(), 0);
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "attacker.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->observed, 1);  // trapped
  EXPECT_EQ(shared->value, 7u);
}

TEST_F(KernelTest, FaultWithoutHandlerUnwindsToCaller) {
  auto shared = shared_;
  ImageBuilder b("unwind");
  b.Compartment("buggy").Export(
      "crash", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.LoadWord(Capability::FromWord(0x1234), 0);  // traps
        return StatusCap(Status::kOk);                  // unreachable
      });
  b.Compartment("caller")
      .ImportCompartment("buggy.crash")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        const Capability r = ctx.Call("buggy.crash", {});
        shared->value = r.word();
        shared->observed = 1;  // caller survived the callee fault
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "caller.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->observed, 1);
  EXPECT_EQ(static_cast<Status>(static_cast<int32_t>(shared->value)),
            Status::kCompartmentFail);
}

TEST_F(KernelTest, GlobalHandlerCanResumeWithCorrectedCapability) {
  auto shared = shared_;
  ImageBuilder b("resume");
  b.Compartment("fixer")
      .Globals(64)
      .ErrorHandler([shared](CompartmentCtx& ctx, TrapInfo& info) {
        shared->observed++;
        // Install a corrected authority (the compartment's own globals).
        info.regs.a[0] = ctx.globals();
        return ErrorRecovery::kInstallContext;
      })
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        ctx.StoreWord(ctx.globals(), 0, 99);
        // Fault: bogus pointer. The handler redirects to globals.
        shared->value = ctx.LoadWord(Capability::FromWord(0xBAD), 0);
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "fixer.main");
  System sys(machine_, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(), System::RunResult::kAllExited);
  EXPECT_EQ(shared->observed, 1);
  EXPECT_EQ(shared->value, 99u);
}

TEST_F(KernelTest, ScopedHandlerWinsOverGlobal) {
  auto shared = shared_;
  ImageBuilder b("scoped");
  b.Compartment("c")
      .ErrorHandler([shared](CompartmentCtx&, TrapInfo&) {
        shared->observed = 100;  // must not run
        return ErrorRecovery::kForceUnwind;
      })
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        auto info = ctx.Try([&] { ctx.LoadWord(Capability::FromWord(1), 0); });
        shared->observed = info.has_value() ? 1 : 2;
        if (info) {
          shared->value = static_cast<Word>(info->cause);
        }
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "c.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->observed, 1);
  EXPECT_EQ(static_cast<TrapCode>(shared->value), TrapCode::kTagViolation);
}

TEST_F(KernelTest, StackRequirementEnforced) {
  auto shared = shared_;
  ImageBuilder b("stack");
  b.Compartment("callee").Export(
      "deep", [shared](CompartmentCtx&, const std::vector<Capability>&) {
        shared->observed = 99;  // must not run with a tiny stack
        return Capability();
      },
      /*min_stack_bytes=*/4096);
  b.Compartment("caller")
      .ImportCompartment("callee.deep")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        const Capability r = ctx.Call("callee.deep", {});
        shared->value = r.word();
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 1024, 4, "caller.main");  // 1 KiB stack < 4 KiB required
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->observed, 0);
  EXPECT_EQ(static_cast<Status>(static_cast<int32_t>(shared->value)),
            Status::kNotEnoughStack);
}

TEST_F(KernelTest, StackIsZeroedBetweenCompartments) {
  auto shared = shared_;
  ImageBuilder b("zeroing");
  b.Compartment("writer").Export(
      "scribble", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        auto buf = ctx.AllocStack(64);
        for (int i = 0; i < 16; ++i) {
          ctx.StoreWord(buf.cap().WithAddress(buf.cap().base() + 4 * i), 0,
                        0x5EC12E75);
        }
        return StatusCap(Status::kOk);
      });
  b.Compartment("reader").Export(
      "snoop", [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
        auto buf = ctx.AllocStack(64);
        Word acc = 0;
        for (int i = 0; i < 16; ++i) {
          acc |= ctx.LoadWord(buf.cap().WithAddress(buf.cap().base() + 4 * i), 0);
        }
        shared->value = acc;
        return StatusCap(Status::kOk);
      });
  b.Compartment("main")
      .ImportCompartment("writer.scribble")
      .ImportCompartment("reader.snoop")
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.Call("writer.scribble", {});
        ctx.Call("reader.snoop", {});
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 4096, 4, "main.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->value, 0u);  // no caller residue visible
}

TEST_F(KernelTest, HeapAllocateFreeWithQuota) {
  auto shared = shared_;
  ImageBuilder b("heap");
  b.Compartment("app")
      .AllocCap("q", 4096)
      .ImportCompartment("alloc.heap_allocate")
      .ImportCompartment("alloc.heap_free")
      .ImportCompartment("alloc.quota_remaining")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        const Capability buf = ctx.HeapAllocate(q, 256);
        if (!buf.tag()) {
          shared->observed = -1;
          return StatusCap(Status::kNoMemory);
        }
        ctx.StoreWord(buf, 0, 0xAA55AA55);
        shared->value = ctx.LoadWord(buf, 0);
        const Word before = ctx.HeapQuotaRemaining(q);
        ctx.HeapFree(q, buf);
        const Word after = ctx.HeapQuotaRemaining(q);
        shared->observed = (after > before) ? 1 : -2;
        // Use-after-free must trap deterministically.
        auto info = ctx.Try([&] { ctx.LoadWord(buf, 0); });
        if (!info.has_value()) {
          shared->observed = -3;
        }
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 4096, 4, "app.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->value, 0xAA55AA55u);
  EXPECT_EQ(shared->observed, 1);
}

TEST_F(KernelTest, QuotaExhaustionFailsAllocation) {
  auto shared = shared_;
  ImageBuilder b("quota");
  b.Compartment("app")
      .AllocCap("q", 1024)
      .ImportCompartment("alloc.heap_allocate")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        const Capability ok = ctx.HeapAllocate(q, 512);
        const Capability fail = ctx.HeapAllocate(q, 512);  // over quota
        shared->observed = (ok.tag() && !fail.tag()) ? 1 : -1;
        shared->value = fail.word();
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 4096, 4, "app.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->observed, 1);
  EXPECT_EQ(static_cast<Status>(static_cast<int32_t>(shared->value)),
            Status::kNoMemory);
}

TEST_F(KernelTest, FreeRequiresMatchingAllocationCapability) {
  auto shared = shared_;
  ImageBuilder b("freedeny");
  b.Compartment("victim")
      .AllocCap("vq", 4096)
      .ImportCompartment("alloc.heap_allocate")
      .Export("alloc_obj", [shared](CompartmentCtx& ctx,
                                    const std::vector<Capability>&) {
        const Capability buf =
            ctx.HeapAllocate(ctx.SealedImport("vq"), 128);
        shared->cap = buf;
        return buf;  // shares the object, not the right to free it
      });
  b.Compartment("attacker")
      .AllocCap("aq", 4096)
      .ImportCompartment("victim.alloc_obj")
      .ImportCompartment("alloc.heap_free")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        const Capability obj = ctx.Call("victim.alloc_obj", {});
        const Status s = ctx.HeapFree(ctx.SealedImport("aq"), obj);
        shared->observed = static_cast<int>(s);
        // The object must still be usable by the victim.
        shared->value = obj.tag() ? 1 : 0;
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 4096, 4, "attacker.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(static_cast<Status>(shared->observed), Status::kPermissionDenied);
  EXPECT_EQ(shared->value, 1u);
}

TEST_F(KernelTest, TokenApiOpaqueObjects) {
  auto shared = shared_;
  ImageBuilder b("token");
  b.Compartment("service")
      .AllocCap("sq", 8192)
      .ImportCompartment("alloc.heap_allocate")
      .ImportCompartment("alloc.token_key_new")
      .ImportCompartment("alloc.token_obj_new")
      .ImportLibrary("token.token_unseal")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        const Capability key = ctx.TokenKeyNew();
        const Capability q = ctx.SealedImport("sq");
        const Capability obj = ctx.TokenObjNew(q, key, 64);
        if (!obj.tag() || !obj.IsSealed()) {
          shared->observed = -1;
          return StatusCap(Status::kInvalidArgument);
        }
        // Unseal with the right key: payload is usable.
        const Capability payload = ctx.TokenUnseal(key, obj);
        if (!payload.tag()) {
          shared->observed = -2;
          return StatusCap(Status::kInvalidArgument);
        }
        ctx.StoreWord(payload, 0, 1234);
        shared->value = ctx.LoadWord(payload, 0);
        // A different key must fail.
        const Capability other_key = ctx.TokenKeyNew();
        const Capability denied = ctx.TokenUnseal(other_key, obj);
        shared->observed = denied.tag() ? -3 : 1;
        // The sealed object itself cannot be dereferenced.
        auto info = ctx.Try([&] { ctx.LoadWord(obj, 0); });
        if (!info.has_value()) {
          shared->observed = -4;
        }
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 4096, 4, "service.main");
  System sys(machine_, b.Build());
  sys.Boot();
  sys.Run();
  EXPECT_EQ(shared->observed, 1);
  EXPECT_EQ(shared->value, 1234u);
}

TEST_F(KernelTest, ThreadsPreemptAndBothRun) {
  auto shared = shared_;
  ImageBuilder b("threads");
  b.Compartment("spin").Globals(16).Export(
      "busy", [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
        // Same-priority thread must get CPU via timeslicing.
        for (int i = 0; i < 30'000 && shared->order.size() < 2; ++i) {
          ctx.LoadWord(ctx.globals(), 0);
        }
        shared->order.push_back(1);
        return StatusCap(Status::kOk);
      });
  b.Compartment("other").Export(
      "note", [shared](CompartmentCtx&, const std::vector<Capability>&) {
        shared->order.push_back(2);
        return StatusCap(Status::kOk);
      });
  b.Thread("t1", 2, 2048, 4, "spin.busy");
  b.Thread("t2", 2, 2048, 4, "other.note");
  System sys(machine_, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(2'000'000'000ull), System::RunResult::kAllExited);
  ASSERT_EQ(shared->order.size(), 2u);
  // t2 finished while t1 was still spinning: preemptive timeslicing worked.
  EXPECT_EQ(shared->order[0], 2);
}

TEST_F(KernelTest, FutexWaitWake) {
  auto shared = shared_;
  ImageBuilder b("futex");
  b.Compartment("sync")
      .Globals(16)
      .ImportCompartment("sched.futex_timed_wait")
      .ImportCompartment("sched.futex_wake")
      .Export("waiter",
              [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability w = ctx.globals();
                const Status s = ctx.FutexWait(w, 0, ~0u);
                shared->observed = static_cast<int>(s);
                shared->value = ctx.LoadWord(w, 0);
                shared->order.push_back(1);
                return StatusCap(Status::kOk);
              })
      .Export("waker",
              [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.SleepCycles(50'000);
                ctx.StoreWord(ctx.globals(), 0, 77);
                ctx.FutexWake(ctx.globals(), 1);
                shared->order.push_back(2);
                return StatusCap(Status::kOk);
              })
      .ImportCompartment("sched.sleep");
  b.Thread("tw", 3, 2048, 4, "sync.waiter");
  b.Thread("tk", 2, 2048, 4, "sync.waker");
  System sys(machine_, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(1'000'000'000ull), System::RunResult::kAllExited);
  EXPECT_EQ(static_cast<Status>(shared->observed), Status::kOk);
  EXPECT_EQ(shared->value, 77u);
}

TEST_F(KernelTest, FutexTimeout) {
  auto shared = shared_;
  ImageBuilder b("timeout");
  b.Compartment("sync")
      .Globals(16)
      .ImportCompartment("sched.futex_timed_wait")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        const Status s = ctx.FutexWait(ctx.globals(), 0, 10'000);
        shared->observed = static_cast<int>(s);
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "sync.main");
  System sys(machine_, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(100'000'000ull), System::RunResult::kAllExited);
  EXPECT_EQ(static_cast<Status>(shared->observed), Status::kTimedOut);
}

TEST_F(KernelTest, MicroRebootResetsCompartment) {
  auto shared = shared_;
  ImageBuilder b("reboot");
  b.Compartment("svc")
      .Globals(16)
      .AllocCap("svcq", 8192)
      .ImportCompartment("alloc.heap_allocate")
      .ErrorHandler([](CompartmentCtx& ctx, TrapInfo&) {
        ctx.MicroRebootSelf();
        return ErrorRecovery::kForceUnwind;
      })
      .Export("poke",
              [shared](CompartmentCtx& ctx, const std::vector<Capability>& a) {
                // Increment a global counter; allocate some state.
                const Word count = ctx.LoadWord(ctx.globals(), 0) + 1;
                ctx.StoreWord(ctx.globals(), 0, count);
                ctx.HeapAllocate(ctx.SealedImport("svcq"), 128);
                if (!a.empty() && a[0].word() == 1) {
                  ctx.LoadWord(Capability::FromWord(0xBAD), 0);  // crash
                }
                return WordCap(count);
              });
  b.Compartment("client")
      .ImportCompartment("svc.poke")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        ctx.Call("svc.poke", {WordCap(0)});
        ctx.Call("svc.poke", {WordCap(0)});
        const Capability crash = ctx.Call("svc.poke", {WordCap(1)});
        shared->observed = static_cast<int32_t>(crash.word());
        // After the micro-reboot the counter restarts from 1.
        shared->value = ctx.Call("svc.poke", {WordCap(0)}).word();
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 4096, 4, "client.main");
  System sys(machine_, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(2'000'000'000ull), System::RunResult::kAllExited);
  EXPECT_EQ(static_cast<Status>(shared->observed), Status::kCompartmentFail);
  EXPECT_EQ(shared->value, 1u);
  EXPECT_EQ(sys.boot().FindCompartment("svc")->reboot_count, 1u);
}

TEST_F(KernelTest, DeadlockDetected) {
  ImageBuilder b("deadlock");
  b.Compartment("stuck")
      .Globals(16)
      .ImportCompartment("sched.futex_timed_wait")
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.FutexWait(ctx.globals(), 0, ~0u);  // waits forever
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "stuck.main");
  System sys(machine_, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(1'000'000'000ull), System::RunResult::kDeadlock);
}

// --- Host fiber contract (src/kernel/fiber.h) ------------------------------

// 1/3 computed at run time in SSE (volatile operands, its own frame), so the
// result reflects the MXCSR rounding mode of whichever fiber calls it.
[[gnu::noinline]] double OneThird() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}
constexpr double kOneThirdNearest = 0x1.5555555555555p-2;

// A guest thread rounds upward and blocks. fegetround() reads the x87
// control word and OneThird() depends on MXCSR, so a switch that skipped
// either would leak the guest's mode into the host context, or lose it
// across the block.
TEST_F(KernelTest, FiberKeepsItsOwnFloatingPointControlState) {
  struct Seen {
    int mode = -1;
    double third = 0;
  };
  auto seen = std::make_shared<Seen>();
  ImageBuilder b("fp-env");
  b.Compartment("fp")
      .ImportCompartment("sched.sleep")
      .Export("main", [seen](CompartmentCtx& ctx,
                             const std::vector<Capability>&) {
        std::fesetround(FE_UPWARD);
        ctx.SleepCycles(1'000'000);
        seen->mode = std::fegetround();
        seen->third = OneThird();
        std::fesetround(FE_TONEAREST);
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 2048, 4, "fp.main");
  System sys(machine_, b.Build());
  sys.Boot();
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  ASSERT_EQ(sys.Run(100'000), System::RunResult::kBudgetExhausted);
  // The guest is asleep with FE_UPWARD set; the host context is untouched.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(OneThird(), kOneThirdNearest);
  EXPECT_EQ(sys.Run(100'000'000), System::RunResult::kAllExited);
  EXPECT_EQ(seen->mode, FE_UPWARD);
  EXPECT_GT(seen->third, kOneThirdNearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// Two threads yield to each other thousands of times, throwing and catching
// an exception every round, with a switch between try and throw and
// another while the exception is caught — the way a trap handler runs guest
// code inside the switcher's catch block. Each catch must see its own
// exception, intact and as the one a rethrow finds, after the other thread
// has thrown and caught its own.
TEST_F(KernelTest, ExceptionsUnwindInsideFibersAcrossSwitches) {
  constexpr int kRounds = 2'000;
  struct Tally {
    int caught[2] = {0, 0};
    int wrong = 0;
  };
  auto tally = std::make_shared<Tally>();
  auto player = [tally](int who) {
    return [tally, who](CompartmentCtx& ctx, const std::vector<Capability>&) {
      for (int i = 0; i < kRounds; ++i) {
        const std::string expect = std::to_string(who) + ":" +
                                   std::to_string(i);
        try {
          ctx.Yield();
          throw std::runtime_error(expect);
        } catch (const std::runtime_error& e) {
          ctx.Yield();
          tally->wrong += e.what() != expect;
          tally->wrong += std::uncaught_exceptions() != 0;
          // A rethrow takes the innermost caught exception of the running
          // context, which must still be this fiber's own.
          try {
            throw;
          } catch (const std::runtime_error& again) {
            tally->wrong += again.what() != expect;
          }
          ++tally->caught[who];
        }
      }
      return StatusCap(Status::kOk);
    };
  };
  ImageBuilder b("fiber-exceptions");
  b.Compartment("app")
      .ImportCompartment("sched.yield")
      .Export("a", player(0))
      .Export("b", player(1));
  b.Thread("a", 2, 2048, 4, "app.a");
  b.Thread("b", 2, 2048, 4, "app.b");
  System sys(machine_, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(~0ull), System::RunResult::kAllExited);
  EXPECT_EQ(tally->caught[0], kRounds);
  EXPECT_EQ(tally->caught[1], kRounds);
  EXPECT_EQ(tally->wrong, 0);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

}  // namespace
}  // namespace cheriot
