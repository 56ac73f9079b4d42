// Deterministic snapshot/restore acceptance tests (DESIGN.md §10).
//
// The correctness contract under test: run a board N cycles, snapshot, run
// on to M; restore the snapshot into a second board and run it to M — the
// fingerprints are bit-identical and the trace/health exports byte-identical,
// for every shipped image and for fleets at 1/2/4 host workers. On top of
// that: the serialized form is byte-stable (two snapshots of the same state
// are identical), cold post-boot snapshots restore without replay (the
// warm-boot fixture), restore re-binds every host-side handle, a seeded
// random scenario survives snapshot at a random cycle, and crash-scene
// capture costs zero guest cycles.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/base/costs.h"
#include "src/health/forensics.h"
#include "src/health/monitor.h"
#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"
#include "src/snap/snapshot.h"
#include "src/sync/sync.h"
#include "src/trace/export.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

using sim::Board;
using sim::Fleet;
using sim::FleetOptions;
using tools::FindLintTarget;
using tools::LintTargets;

constexpr Cycles kSnapAt = 2'000'000;
constexpr Cycles kHorizon = 4'000'000;

FirmwareImage BuildImage(const std::string& name) {
  const tools::LintTarget* t = FindLintTarget(name);
  EXPECT_NE(t, nullptr) << name;
  return t->build();
}

// --- The headline contract, over every shipped image ----------------------

TEST(SnapshotTest, RoundTripFingerprintEqualityOnEveryShippedImage) {
  for (const auto& target : LintTargets()) {
    Board a(target.build(), {});
    a.Boot();
    a.StepTo(kSnapAt);
    std::vector<uint8_t> blob;
    a.Snapshot(blob);
    a.StepTo(kHorizon);

    auto b = Board::Restore(blob, target.build());
    b->StepTo(kHorizon);
    EXPECT_EQ(a.fingerprint(), b->fingerprint()) << target.name;
  }
}

TEST(SnapshotTest, TwoSnapshotsOfTheSameStateAreByteIdentical) {
  Board board(BuildImage("quickstart"), {});
  board.Boot();
  board.StepTo(kSnapAt);
  std::vector<uint8_t> first;
  std::vector<uint8_t> second;
  board.Snapshot(first);
  board.Snapshot(second);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(SnapshotTest, RestoredBoardSnapshotsBackToTheOriginalBytes) {
  Board a(BuildImage("producer-consumer"), {});
  a.Boot();
  a.StepTo(kSnapAt);
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  auto b = Board::Restore(blob, BuildImage("producer-consumer"));
  std::vector<uint8_t> again;
  b->Snapshot(again);
  EXPECT_EQ(blob, again);
}

// --- Host-handle rebinding ------------------------------------------------

TEST(SnapshotTest, RestoreRebindsTheRawClockHookToTheNewMachine) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  a.StepTo(kSnapAt);
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  auto b = Board::Restore(blob, BuildImage("quickstart"));
  // The PR 1 raw-pointer clock hook must point at the restored machine, not
  // dangle into the donor (or anywhere else).
  EXPECT_EQ(b->machine().clock().raw_hook_ctx(), &b->machine());
  EXPECT_NE(b->machine().clock().raw_hook_ctx(), &a.machine());
  EXPECT_NE(b->machine().clock().raw_hook(), nullptr);
  // And it must actually fire: advancing the restored board drives its own
  // revoker/timer, landing on the same fingerprint as the donor.
  a.StepTo(kHorizon);
  b->StepTo(kHorizon);
  EXPECT_EQ(a.fingerprint(), b->fingerprint());
}

// --- Cold restore / warm-boot fixture -------------------------------------

TEST(SnapshotTest, PostBootSnapshotIsColdRestorable) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  const snap::Container c = snap::Container::Parse(blob);
  EXPECT_TRUE(c.flags & snap::kColdRestorable);

  auto b = Board::Restore(blob, BuildImage("quickstart"));
  a.StepTo(kSnapAt);
  b->StepTo(kSnapAt);
  EXPECT_EQ(a.fingerprint(), b->fingerprint());
}

TEST(SnapshotTest, MidRunSnapshotIsNotColdRestorable) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  a.StepTo(100'000);
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  const snap::Container c = snap::Container::Parse(blob);
  EXPECT_FALSE(c.flags & snap::kColdRestorable);
  EXPECT_TRUE(c.flags & snap::kHasReplayLog);
}

// Warm-boot fixture: the post-loader state of each image is snapshotted once
// per process and every test that wants a booted board restores it instead
// of re-running the loader. (EXPERIMENTS.md reports the ctest wall-time
// delta this buys.)
class WarmBootTest : public ::testing::Test {
 protected:
  static const std::vector<uint8_t>& BootBlob(const std::string& name) {
    static auto* cache = new std::map<std::string, std::vector<uint8_t>>();
    auto it = cache->find(name);
    if (it == cache->end()) {
      Board board(BuildImage(name), {});
      board.Boot();
      std::vector<uint8_t> blob;
      board.Snapshot(blob);
      it = cache->emplace(name, std::move(blob)).first;
    }
    return it->second;
  }

  static std::unique_ptr<Board> WarmBoard(const std::string& name) {
    return Board::Restore(BootBlob(name), BuildImage(name));
  }
};

TEST_F(WarmBootTest, WarmBootMatchesColdBootOnEveryShippedImage) {
  for (const auto& target : LintTargets()) {
    Board cold(target.build(), {});
    cold.Boot();
    auto warm = WarmBoard(target.name);
    cold.StepTo(kSnapAt);
    warm->StepTo(kSnapAt);
    EXPECT_EQ(cold.fingerprint(), warm->fingerprint()) << target.name;
  }
}

TEST_F(WarmBootTest, WarmBootBlobIsReusable) {
  // The cached blob restores any number of independent boards.
  auto first = WarmBoard("producer-consumer");
  auto second = WarmBoard("producer-consumer");
  first->StepTo(kSnapAt);
  second->StepTo(kSnapAt);
  EXPECT_EQ(first->fingerprint(), second->fingerprint());
}

// --- Trace / health exports survive a restore byte-identically ------------

TEST(SnapshotTest, TraceAndHealthExportsAreByteIdenticalAfterRestore) {
  Board a(BuildImage("iot-mqtt-app"), {});
  a.EnableTrace();
  a.EnableForensics();
  a.Boot();
  a.StepTo(kSnapAt);
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  const snap::Container c = snap::Container::Parse(blob);
  EXPECT_TRUE(c.flags & snap::kHasTrace);
  EXPECT_TRUE(c.flags & snap::kHasForensics);

  auto b = Board::Restore(blob, BuildImage("iot-mqtt-app"));
  EXPECT_EQ(trace::ChromeTrace(*a.trace_recorder()).Dump(2),
            trace::ChromeTrace(*b->trace_recorder()).Dump(2));
  EXPECT_EQ(health::HealthReport(a).Dump(2),
            health::HealthReport(*b).Dump(2));

  // And they stay in lockstep when both keep running.
  a.StepTo(kHorizon);
  b->StepTo(kHorizon);
  EXPECT_EQ(trace::ChromeTrace(*a.trace_recorder()).Dump(2),
            trace::ChromeTrace(*b->trace_recorder()).Dump(2));
  EXPECT_EQ(health::HealthReport(a).Dump(2),
            health::HealthReport(*b).Dump(2));
}

// --- Fleet snapshots -------------------------------------------------------

std::unique_ptr<Fleet> MakeFleet(int boards, int host_threads) {
  FleetOptions options;
  options.host_threads = host_threads;
  auto fleet = std::make_unique<Fleet>(options);
  for (int i = 0; i < boards; ++i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    fleet->AddBoard(
        sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(), app));
  }
  fleet->Boot();
  return fleet;
}

Fleet::ImageResolver FleetImages() {
  return [](int i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    return sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(),
                                   app);
  };
}

TEST(SnapshotTest, FleetSnapshotIsByteIdenticalAcrossWorkerCounts) {
  // host_threads is a pure host-performance knob, so snapshots of the same
  // logical state taken at 1, 2 and 4 workers must byte-match.
  std::vector<uint8_t> reference;
  for (int workers : {1, 2, 4}) {
    auto fleet = MakeFleet(4, workers);
    fleet->Run(cost::kCoreHz);  // one simulated second
    fleet->PublishMqtt("snap/ctrl", {0x01, 0x02, 0x03});
    fleet->Run(cost::kCoreHz / 4);
    std::vector<uint8_t> blob;
    fleet->Snapshot(blob);
    if (reference.empty()) {
      reference = std::move(blob);
    } else {
      EXPECT_EQ(reference, blob) << workers << " workers";
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SnapshotTest, FleetRoundTripAtEveryWorkerCount) {
  auto original = MakeFleet(4, /*host_threads=*/1);
  original->Run(cost::kCoreHz);
  original->PublishMqtt("snap/ctrl", {0xAA, 0xBB});
  original->Run(cost::kCoreHz / 4);
  std::vector<uint8_t> blob;
  original->Snapshot(blob);
  original->Run(cost::kCoreHz / 2);
  const auto expect = original->Fingerprints();

  for (int workers : {1, 2, 4}) {
    auto restored = Fleet::Restore(blob, FleetImages(), workers);
    EXPECT_EQ(restored->Now(), original->Now() - cost::kCoreHz / 2);
    restored->Run(cost::kCoreHz / 2);
    EXPECT_EQ(restored->Fingerprints(), expect) << workers << " workers";
  }
}

// --- Fuzz smoke: snapshot at a random cycle in a random scenario ----------

TEST(SnapshotTest, FuzzSmokeRandomScenarioSurvivesSnapshotAtRandomCycle) {
  struct FuzzOp {
    Cycles target = 0;           // StepTo target
    bool inject = false;         // also inject a frame after stepping
    Cycles inject_delay = 0;     // due = Now() + delay
    std::vector<uint8_t> frame;  // random bytes
  };

  std::mt19937 rng(0xC4E1107u);
  std::vector<FuzzOp> ops;
  Cycles target = 50'000;
  for (int i = 0; i < 24; ++i) {
    FuzzOp op;
    target += 10'000 + rng() % 400'000;
    op.target = target;
    if (rng() % 3 == 0) {
      op.inject = true;
      op.inject_delay = 100 + rng() % 5'000;
      op.frame.resize(14 + rng() % 50);
      for (auto& byte : op.frame) {
        byte = static_cast<uint8_t>(rng());
      }
    }
    ops.push_back(std::move(op));
  }
  const size_t snap_index = 8 + rng() % 8;  // snapshot mid-scenario

  auto apply = [](Board& board, const FuzzOp& op) {
    board.StepTo(op.target);
    if (op.inject) {
      board.InjectAt(board.Now() + op.inject_delay, op.frame);
    }
  };

  Board a(BuildImage("fleet-node"), {});
  a.Boot();
  for (size_t i = 0; i < snap_index; ++i) {
    apply(a, ops[i]);
  }
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  auto b = Board::Restore(blob, BuildImage("fleet-node"));
  for (size_t i = snap_index; i < ops.size(); ++i) {
    apply(a, ops[i]);
    apply(*b, ops[i]);
  }
  EXPECT_EQ(a.fingerprint(), b->fingerprint());
}

// --- Crash scenes ----------------------------------------------------------

// Use-after-free with no handler: every call files a crash record, so scene
// capture has something to photograph.
FirmwareImage FaultingImage() {
  ImageBuilder b("snap-fault");
  b.Compartment("app")
      .Globals(32)
      .AllocCap("q", 8192)
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        const Capability p = ctx.HeapAllocate(q, 64);
        ctx.StoreWord(p, 0, 42);
        ctx.HeapFree(q, p);
        ctx.LoadWord(p, 0);  // traps: revoked capability, no handler
        return StatusCap(Status::kOk);
      });
  sync::UseAllocator(b, "app");
  b.Thread("t", 1, 8192, 8, "app.main");
  return b.Build();
}

TEST(SnapshotTest, CrashSceneCaptureCostsZeroGuestCycles) {
  auto run = [](bool scenes) {
    Board board(FaultingImage(), {});
    health::ForensicsOptions fopts;
    fopts.capture_crash_scene = scenes;
    board.EnableForensics(fopts);
    board.Boot();
    board.StepTo(kSnapAt);
    return std::make_pair(board.fingerprint(),
                          board.forensics_recorder()->Records());
  };
  const auto with_scenes = run(true);
  const auto without = run(false);
  EXPECT_EQ(with_scenes.first, without.first);

  ASSERT_FALSE(with_scenes.second.empty());
  bool any_scene = false;
  for (const auto& rec : with_scenes.second) {
    if (rec.scene.empty()) {
      continue;
    }
    any_scene = true;
    // The scene is a parseable machine-state container with the memory image
    // and kernel sections aboard.
    const snap::Container c = snap::Container::Parse(rec.scene);
    EXPECT_EQ(c.kind, snap::kScene);
    EXPECT_TRUE(c.Has(snap::kSecMemory));
    EXPECT_TRUE(c.Has(snap::kSecKernel));
  }
  EXPECT_TRUE(any_scene);
  for (const auto& rec : without.second) {
    EXPECT_TRUE(rec.scene.empty());
  }
}

TEST(SnapshotTest, SceneRetentionIsBoundedByTheConfiguredLimit) {
  Board board(FaultingImage(), {});
  health::ForensicsOptions fopts;
  fopts.capture_crash_scene = true;
  fopts.scene_limit = 1;
  board.EnableForensics(fopts);
  board.Boot();
  board.StepTo(kSnapAt);
  size_t scenes = 0;
  for (const auto& rec : board.forensics_recorder()->Records()) {
    if (!rec.scene.empty()) {
      ++scenes;
    }
  }
  EXPECT_LE(scenes, 1u);
}

// --- Failure modes ---------------------------------------------------------

TEST(SnapshotTest, RestoreRejectsGarbageAndTruncation) {
  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_THROW(Board::Restore(garbage, BuildImage("quickstart")),
               snap::SnapshotError);

  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  std::vector<uint8_t> truncated(blob.begin(),
                                 blob.begin() + blob.size() / 2);
  EXPECT_THROW(Board::Restore(truncated, BuildImage("quickstart")),
               snap::SnapshotError);
}

// An idle board's NIC holds empty frames (the rx latch and the tx buffer);
// an injected empty rx frame adds one more. Restoring them must not hand
// memcpy the null data pointer of an empty vector.
TEST(SnapshotTest, EmptyNicFramesRoundTrip) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  a.machine().ethernet().HostInject({});
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  ASSERT_TRUE(snap::Container::Parse(blob).flags & snap::kColdRestorable);

  auto b = Board::Restore(blob, BuildImage("quickstart"));
  EXPECT_EQ(b->machine().ethernet().rx_pending(), 1u);
  std::vector<uint8_t> again;
  b->Snapshot(again);
  EXPECT_EQ(again, blob);
}

// Overwrites the u32 at `offset` of section `id` with 0xFFFFFFFF.
std::vector<uint8_t> WithHugeCount(const std::vector<uint8_t>& blob,
                                   uint32_t id, size_t offset) {
  snap::Container c = snap::Container::Parse(blob);
  bool patched = false;
  for (snap::Section& s : c.sections) {
    if (s.id == id) {
      for (size_t i = 0; i < 4; ++i) {
        s.body.at(offset + i) = 0xFF;
      }
      patched = true;
    }
  }
  EXPECT_TRUE(patched) << snap::SectionName(id);
  return c.Assemble();
}

uint32_t U32At(const std::vector<uint8_t>& blob, uint32_t id, size_t offset) {
  const snap::Container c = snap::Container::Parse(blob);
  const std::vector<uint8_t>& body = c.Require(id).body;
  snap::Reader r(body.data() + offset, body.size() - offset);
  return r.U32();
}

// Every length field that sizes an allocation on restore is checked
// against the bytes left: a corrupt 0xFFFFFFFF throws SnapshotError instead
// of asking for gigabytes.
TEST(SnapshotTest, HugeLengthFieldsAreRejectedBeforeAllocating) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  ASSERT_TRUE(snap::Container::Parse(blob).flags & snap::kColdRestorable);

  // DEVS is uart, leds, timer, ethernet, entropy in that order.
  Machine& m = a.machine();
  const auto size_of = [](const auto& device) {
    snap::Writer w;
    device.SerializeState(w);
    return w.size();
  };
  const size_t leds_at = size_of(m.uart());
  const size_t eth_at = leds_at + size_of(m.leds()) + size_of(m.timer());
  ASSERT_EQ(m.ethernet().rx_pending(), 0u);
  // KERN: three i32 and four bools, two u64, the thread count, then thread
  // 0's fixed-width fields (47 bytes) before its compartment-stack depth.
  const size_t kern_stack_at = 12 + 4 + 16 + 4 + 47;
  // SCHD: skip the ready queues and futex wait sets to the multiwaiters.
  const snap::Container parsed = snap::Container::Parse(blob);
  const std::vector<uint8_t>& sched = parsed.Require(snap::kSecSched).body;
  snap::Reader r(sched);
  for (int q = 0; q < Scheduler::kPriorities; ++q) {
    for (uint32_t n = r.U32(); n > 0; --n) {
      r.U32();
    }
  }
  for (uint32_t sets = r.U32(); sets > 0; --sets) {
    r.U32();
    for (uint32_t n = r.U32(); n > 0; --n) {
      r.U32();
    }
  }
  const size_t multiwaiters_at = sched.size() - r.remaining();

  struct Field {
    uint32_t section;
    size_t offset;
    uint32_t expected;  // the value the unpatched blob holds there
    const char* what;
  };
  const Field fields[] = {
      {snap::kSecBootInfo, 0,
       static_cast<uint32_t>(a.system().boot().compartments.size()),
       "compartment count"},
      {snap::kSecDevices, leds_at + 4, 0, "LED event count"},
      {snap::kSecDevices, eth_at + 6 + 4, 0, "latched rx frame length"},
      {snap::kSecKernel, kern_stack_at,
       static_cast<uint32_t>(
           a.system().threads().front().compartment_stack.size()),
       "compartment stack depth"},
      {snap::kSecSched, multiwaiters_at, 0, "multiwaiter count"},
  };
  for (const Field& f : fields) {
    ASSERT_EQ(U32At(blob, f.section, f.offset), f.expected) << f.what;
    EXPECT_THROW(Board::Restore(WithHugeCount(blob, f.section, f.offset),
                                BuildImage("quickstart")),
                 snap::SnapshotError)
        << f.what;
  }
}

TEST(SnapshotTest, BoardRestoreRejectsFleetSnapshots) {
  auto fleet = MakeFleet(2, 1);
  fleet->Run(cost::kCoreHz / 8);
  std::vector<uint8_t> blob;
  fleet->Snapshot(blob);
  EXPECT_THROW(Board::Restore(blob, BuildImage("fleet-node")),
               snap::SnapshotError);
}

}  // namespace
}  // namespace cheriot
