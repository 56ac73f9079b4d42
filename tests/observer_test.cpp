// Observer contract tests (DESIGN.md §8.1). Every recorder is an Observer on
// the machine's one observer list, so the zero-guest-cycle contract belongs
// to the interface itself, not only to today's recorders. A test-only
// observer that counts every hook rides next to the trace, forensics and
// coverage recorders on every shipped image:
//   1. fingerprints are the same with it on and off (and with no observer);
//   2. every recorder export is byte-identical with and without it;
//   3. its per-hook counts are identical at 1, 2 and 4 fleet workers.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/costs.h"
#include "src/cov/report.h"
#include "src/flow/flow.h"
#include "src/health/monitor.h"
#include "src/hw/observer.h"
#include "src/rtos.h"
#include "src/sim/fleet.h"
#include "src/sync/sync.h"
#include "src/trace/export.h"
#include "tools/targets.h"

namespace cheriot {
namespace {

// One counter per Observer hook.
enum Hook {
  kAttach, kBoot, kCall, kReturn, kLibraryCall, kTrap, kFileCrash, kCrashFiled,
  kContextSwitch, kWake, kBlock, kSleep, kMicroReboot, kIdleFastForward,
  kHeapAlloc, kHeapFree, kQuotaDenied, kSealingUse, kSweepBegin, kSweepEnd,
  kMmio, kNicTx, kNicRx, kFrameDrop, kHookCount,
};
using Counts = std::array<uint64_t, kHookCount>;

class CountingObserver : public Observer {
 public:
  const Counts& counts() const { return counts_; }

  void OnAttach(Machine&) override { ++counts_[kAttach]; }
  void OnBoot(const BootTables&) override { ++counts_[kBoot]; }
  void OnCompartmentCall(int, int, int, int, uint32_t) override {
    ++counts_[kCall];
  }
  void OnCompartmentReturn(int, int, int) override { ++counts_[kReturn]; }
  void OnLibraryCall(int, int, int, int) override { ++counts_[kLibraryCall]; }
  void OnTrap(int, int, int) override { ++counts_[kTrap]; }
  std::optional<uint64_t> FileCrash(const health::CrashRecord&) override {
    ++counts_[kFileCrash];
    return std::nullopt;
  }
  void OnCrashFiled(const health::CrashRecord&, uint64_t) override {
    ++counts_[kCrashFiled];
  }
  void OnContextSwitch(int, int) override { ++counts_[kContextSwitch]; }
  void OnThreadWake(int) override { ++counts_[kWake]; }
  void OnThreadBlock(int, Address) override { ++counts_[kBlock]; }
  void OnThreadSleep(int, Cycles) override { ++counts_[kSleep]; }
  void OnMicroReboot(int, Cycles) override { ++counts_[kMicroReboot]; }
  void OnIdleFastForward(Cycles) override { ++counts_[kIdleFastForward]; }
  void OnHeapAlloc(int, int, uint32_t, Word) override {
    ++counts_[kHeapAlloc];
  }
  void OnHeapFree(int, int, uint32_t, Word) override { ++counts_[kHeapFree]; }
  void OnQuotaDenied(int, int, int, uint32_t, Word) override {
    ++counts_[kQuotaDenied];
  }
  void OnSealingUse(int, uint32_t, bool) override { ++counts_[kSealingUse]; }
  void OnSweepBegin(uint32_t) override { ++counts_[kSweepBegin]; }
  void OnSweepEnd(uint32_t, uint64_t) override { ++counts_[kSweepEnd]; }
  void OnMmioAccess(Address, Address, bool) override { ++counts_[kMmio]; }
  void OnNicTx(size_t, int32_t, uint32_t) override { ++counts_[kNicTx]; }
  void OnNicRx(size_t, int32_t, uint32_t) override { ++counts_[kNicRx]; }
  void OnFrameDrop(uint8_t, size_t, int32_t, uint32_t) override {
    ++counts_[kFrameDrop];
  }

 private:
  Counts counts_{};
};

constexpr int kBoards = 2;

struct Outcome {
  std::vector<sim::Board::Fingerprint> fingerprints;
  std::vector<std::string> exports;  // every recorder export, Dump(2)
  std::vector<Counts> counts;        // per board, when counted
};

// N boards of one image with every recorder on (or none), driven the way
// the recorder CLIs drive a fleet: a control publish partway through.
Outcome RunFleet(const tools::Target& target, int host_threads,
                 bool recorders, bool counted) {
  sim::FleetOptions o;
  o.host_threads = host_threads;
  o.trace = recorders;
  o.forensics = recorders;
  o.flow = recorders;
  o.cov = recorders;
  sim::Fleet fleet(o);
  std::vector<std::unique_ptr<CountingObserver>> counters;
  for (int i = 0; i < kBoards; ++i) {
    const int index = fleet.AddBoard(target.build());
    if (counted) {
      counters.push_back(std::make_unique<CountingObserver>());
      fleet.board(static_cast<size_t>(index))
          .machine()
          .AddObserver(counters.back().get());
    }
  }
  fleet.Boot();
  fleet.Run(4 * cost::kCoreHz);
  fleet.PublishMqtt("leds", {'o', 'n'});
  fleet.Run(cost::kCoreHz);

  Outcome out;
  out.fingerprints = fleet.Fingerprints();
  if (recorders) {
    out.exports.push_back(
        trace::MergedChromeTrace(fleet.TraceRecorders()).Dump(2));
    out.exports.push_back(health::FleetHealthReport(fleet).Dump(2));
    out.exports.push_back(
        cov::CoverageJson(target.name, fleet.CovRecorders()).Dump(2));
    out.exports.push_back(fleet.flow_recorder()->FlowTableJson().Dump(2));
    out.exports.push_back(fleet.flow_recorder()->MetricsJson().Dump(2));
  }
  for (const auto& c : counters) {
    out.counts.push_back(c->counts());
  }
  return out;
}

TEST(ObserverTest, CountingObserverIsInvisibleOnEveryShippedImage) {
  for (const auto& target : tools::Targets()) {
    if (target.seeded) {
      continue;
    }
    const Outcome plain = RunFleet(target, 2, /*recorders=*/false, false);
    const Outcome recorded = RunFleet(target, 2, /*recorders=*/true, false);
    const Outcome counted = RunFleet(target, 2, /*recorders=*/true, true);
    EXPECT_EQ(recorded.fingerprints, plain.fingerprints) << target.name;
    EXPECT_EQ(counted.fingerprints, plain.fingerprints) << target.name;
    ASSERT_EQ(counted.exports.size(), recorded.exports.size());
    for (size_t i = 0; i < counted.exports.size(); ++i) {
      EXPECT_TRUE(counted.exports[i] == recorded.exports[i])
          << target.name << " export " << i;
    }
    // The counter saw the run: one attach and one boot per board, and every
    // image enters at least one compartment.
    ASSERT_EQ(counted.counts.size(), static_cast<size_t>(kBoards));
    for (const Counts& c : counted.counts) {
      EXPECT_EQ(c[kAttach], 1u) << target.name;
      EXPECT_EQ(c[kBoot], 1u) << target.name;
      EXPECT_GT(c[kCall], 0u) << target.name;
      EXPECT_GT(c[kContextSwitch], 0u) << target.name;
      // Forensics files every crash the switcher offers, and each filing
      // reaches every observer.
      EXPECT_EQ(c[kCrashFiled], c[kFileCrash]) << target.name;
    }
  }
}

TEST(ObserverTest, HookCountsAreIdenticalAtOneTwoAndFourWorkers) {
  for (const auto& target : tools::Targets()) {
    if (target.seeded) {
      continue;
    }
    const Outcome one = RunFleet(target, 1, /*recorders=*/true, true);
    EXPECT_EQ(RunFleet(target, 2, true, true).counts, one.counts)
        << target.name;
    EXPECT_EQ(RunFleet(target, 4, true, true).counts, one.counts)
        << target.name;
  }
}

// One use-after-free trap in a compartment with no error handler.
FirmwareImage FaultingImage() {
  ImageBuilder b("observer-fault");
  b.Compartment("app")
      .Globals(32)
      .AllocCap("q", 8192)
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        const Capability p = ctx.HeapAllocate(q, 64);
        ctx.StoreWord(p, 0, 42);
        ctx.HeapFree(q, p);
        ctx.LoadWord(p, 0);  // traps: revoked capability
        return StatusCap(Status::kOk);
      });
  sync::UseAllocator(b, "app");
  b.Thread("t", 1, 8192, 8, "app.main");
  return b.Build();
}

// The kernel reports to the interface, not to any one recorder: an observer
// on its own sees the trap and is offered the crash record, and the filing
// is announced only when a forensics recorder files it.
TEST(ObserverTest, CrashIsAnnouncedOnlyWhenFiled) {
  sim::Board plain(FaultingImage(), {});
  plain.Boot();
  plain.StepTo(2'000'000);
  for (bool forensics : {false, true}) {
    sim::Board board(FaultingImage(), {});
    if (forensics) {
      board.EnableForensics();
    }
    CountingObserver counter;
    board.machine().AddObserver(&counter);
    board.Boot();
    board.StepTo(2'000'000);
    EXPECT_EQ(board.fingerprint(), plain.fingerprint());
    const Counts& c = counter.counts();
    EXPECT_GT(c[kHeapAlloc], 0u);
    EXPECT_GT(c[kHeapFree], 0u);
    EXPECT_EQ(c[kTrap], 1u);
    EXPECT_EQ(c[kFileCrash], 1u);
    EXPECT_EQ(c[kCrashFiled], forensics ? 1u : 0u);
  }
}

}  // namespace
}  // namespace cheriot
