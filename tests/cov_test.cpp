// cheriot-cov tests (DESIGN.md §14): the authority-coverage recorder and the
// least-privilege report. Pins the two contracts every observability layer
// in this repo shares — zero-guest-cycle (fingerprints identical with
// coverage on/off, on every shipped image) and host-worker invariance
// (cov_<image>.json byte-identical at 1, 2 and 4 fleet workers) — plus the
// snapshot round-trip (COVG section restores to a byte-equal export), the
// seeded over-privileged image's findings, and lint rule CL010 consuming a
// coverage document as evidence with zero warnings on shipped images.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/lint.h"
#include "src/audit/report.h"
#include "src/base/costs.h"
#include "src/cov/coverage.h"
#include "src/cov/report.h"
#include "src/json/json.h"
#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "tools/targets.h"

namespace cheriot {
namespace {

using analysis::Finding;
using analysis::LintOptions;
using sim::Board;
using sim::Fleet;
using sim::FleetOptions;

constexpr Cycles kHorizon = 8'000'000;
constexpr int kBoards = 2;

FirmwareImage BuildImage(const std::string& name) {
  const tools::Target* t = tools::FindTarget(name);
  EXPECT_NE(t, nullptr) << name;
  return t->build();
}

// Boot on a throwaway machine (loader only, no guest instruction runs) so
// the TCB service compartments the image's imports resolve against exist —
// same construction as `cheriot cov --report` (tools/record.cc).
json::Value AuditOf(const std::string& name) {
  Machine machine;
  System sys(machine, BuildImage(name));
  sys.Boot();
  return audit::BuildReport(sys.boot());
}

// Same drive cycle `cheriot cov` uses: N boards of one image, a
// control publish partway through so network-facing images exercise their
// subscription path.
std::unique_ptr<Fleet> MakeCovFleet(const std::string& name, int host_threads,
                                    bool cov) {
  FleetOptions o;
  o.host_threads = host_threads;
  o.cov = cov;
  auto fleet = std::make_unique<Fleet>(o);
  for (int i = 0; i < kBoards; ++i) {
    fleet->AddBoard(BuildImage(name));
  }
  fleet->Boot();
  return fleet;
}

std::string CovExport(Fleet& fleet, const std::string& image_name) {
  return cov::CoverageJson(BuildImage(image_name).name, fleet.CovRecorders())
             .Dump(2) +
         "\n";
}

std::vector<Finding> Cl010Findings(const std::string& image_name,
                                   const json::Value& coverage) {
  LintOptions options;
  options.coverage = &coverage;
  std::vector<Finding> out;
  for (const auto& f : analysis::RunLints(AuditOf(image_name), options)) {
    if (f.rule == "CL010") {
      out.push_back(f);
    }
  }
  return out;
}

// --- Zero-guest-cycle contract, every shipped image ------------------------

TEST(CovTest, CoverageOnVsOffFingerprintEqualityOnEveryShippedImage) {
  for (const auto& target : tools::Targets()) {
    if (target.seeded) {
      continue;
    }
    Board plain(target.build(), {});
    Board covered(target.build(), {});
    cov::CovRecorder* rec = covered.EnableCoverage();
    ASSERT_NE(rec, nullptr);
    plain.Boot();
    covered.Boot();
    plain.StepTo(kHorizon);
    covered.StepTo(kHorizon);
    EXPECT_EQ(plain.fingerprint(), covered.fingerprint()) << target.name;
    // The recorder actually saw the run: every image crosses at least one
    // compartment boundary (the thread's initial entry).
    EXPECT_GT(rec->calls_recorded(), 0u) << target.name;
  }
}

// --- Worker invariance ------------------------------------------------------

TEST(CovTest, CoverageExportIsByteIdenticalAcrossWorkerCounts) {
  auto run = [](int host_threads) {
    auto fleet = MakeCovFleet("fleet-node", host_threads, /*cov=*/true);
    fleet->Run(4 * cost::kCoreHz);
    fleet->PublishMqtt("leds", {'o', 'n'});
    fleet->Run(cost::kCoreHz);
    return CovExport(*fleet, "fleet-node");
  };
  const std::string one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(4), one);
  // And repeatable: the export is a pure function of the run.
  EXPECT_EQ(run(1), one);
}

// --- Snapshot round-trip (COVG section) -------------------------------------

TEST(CovTest, SnapshotRestoreRoundTripsToByteEqualCoverageExport) {
  auto original = MakeCovFleet("iot-mqtt-app", /*host_threads=*/1, true);
  original->Run(2 * cost::kCoreHz);
  original->PublishMqtt("leds", {'o', 'n'});
  original->Run(cost::kCoreHz);
  std::vector<uint8_t> blob;
  original->Snapshot(blob);
  original->Run(cost::kCoreHz);
  const std::string want = CovExport(*original, "iot-mqtt-app");

  for (int workers : {1, 2, 4}) {
    auto restored = Fleet::Restore(
        blob, [](int) { return BuildImage("iot-mqtt-app"); }, workers);
    // Restore re-enabled coverage from the FLET options and replayed the
    // recorder state out of the COVG sections.
    ASSERT_EQ(restored->CovRecorders().size(), size_t{kBoards}) << workers;
    restored->Run(cost::kCoreHz);
    EXPECT_EQ(CovExport(*restored, "iot-mqtt-app"), want)
        << workers << " workers";
  }
}

TEST(CovTest, CoverageDoesNotChangeTheSnapshotOfGuestState) {
  // Coverage adds a COVG section and a FLET flag, but the guest-visible
  // sections must be what a cov-off run produces: restoring a cov-on blob
  // with coverage stripped is byte-equal to the cov-off blob's guest state.
  // Cheap proxy pinning the same property: fingerprints after restore match
  // the cov-off run's.
  auto covered = MakeCovFleet("producer-consumer", 1, true);
  auto plain = MakeCovFleet("producer-consumer", 1, false);
  covered->Run(2 * cost::kCoreHz);
  plain->Run(2 * cost::kCoreHz);
  std::vector<uint8_t> blob;
  covered->Snapshot(blob);
  auto restored = Fleet::Restore(
      blob, [](int) { return BuildImage("producer-consumer"); }, 1);
  restored->Run(cost::kCoreHz);
  plain->Run(cost::kCoreHz);
  EXPECT_EQ(restored->Fingerprints(), plain->Fingerprints());
}

// --- The seeded over-privileged image ---------------------------------------

json::Value SeededCoverage() {
  auto fleet = MakeCovFleet("cov-overprivileged", 1, true);
  fleet->Run(2 * cost::kCoreHz);
  return cov::CoverageJson("cov-overprivileged", fleet->CovRecorders());
}

TEST(CovTest, ReportFlagsDeadImportAndUntouchedMmioOnSeededImage) {
  const json::Value report =
      cov::LeastPrivilegeJson(AuditOf("cov-overprivileged"), SeededCoverage());
  // Exactly the two seeded over-grants warn: the never-called import of
  // actuator.diag and the untouched ethernet window. Everything else —
  // never-invoked export, the allocator's own revoker window, the partially
  // touched led window — is info.
  ASSERT_TRUE(report.Has("findings"));
  int warnings = 0;
  bool dead_import = false;
  bool untouched_mmio = false;
  for (const auto& f : report["findings"].AsArray()) {
    if (f["severity"].AsString() != "warning") {
      continue;
    }
    ++warnings;
    const std::string subject = f["subject"].AsString();
    dead_import |= subject.find("actuator.diag") != std::string::npos;
    untouched_mmio |= subject.find("ethernet") != std::string::npos;
  }
  EXPECT_EQ(warnings, 2);
  EXPECT_TRUE(dead_import);
  EXPECT_TRUE(untouched_mmio);
  // The text rendering carries the ImageBuilder-level fix.
  const std::string text = cov::LeastPrivilegeText(report);
  EXPECT_NE(text.find("actuator.diag"), std::string::npos);
  EXPECT_NE(text.find("ethernet"), std::string::npos);
}

TEST(CovTest, Cl010FlagsSeededImageAndStaysQuietOnShippedImages) {
  const json::Value seeded = SeededCoverage();
  const auto flagged = Cl010Findings("cov-overprivileged", seeded);
  int warnings = 0;
  for (const auto& f : flagged) {
    if (f.severity == "warning") {
      ++warnings;
      EXPECT_FALSE(f.fix.empty()) << f.subject;
    }
  }
  EXPECT_EQ(warnings, 2);

  // Zero false positives on a shipped image, with real evidence: fleet-node
  // exercises the network stack, and every unexercised grant it still holds
  // is service-owner linkage (info at most).
  auto fleet = MakeCovFleet("fleet-node", 1, true);
  fleet->Run(4 * cost::kCoreHz);
  fleet->PublishMqtt("leds", {'o', 'n'});
  fleet->Run(cost::kCoreHz);
  const json::Value coverage =
      cov::CoverageJson(BuildImage("fleet-node").name, fleet->CovRecorders());
  for (const auto& f : Cl010Findings("fleet-node", coverage)) {
    EXPECT_NE(f.severity, "warning") << f.subject << ": " << f.message;
    EXPECT_NE(f.severity, "error") << f.subject << ": " << f.message;
  }

  // fleet-node's evidence handed to the seeded image: CL010 evaluates no
  // grant and says so once, naming the command that records fresh evidence.
  const auto stale = Cl010Findings("cov-overprivileged", coverage);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].severity, "info");
  EXPECT_NE(stale[0].message.find("fleet-node"), std::string::npos);
  EXPECT_EQ(stale[0].fix, "re-run cheriot cov on this image");
}

TEST(CovTest, StaleEvidenceYieldsOneInfoFindingAndNoDiff) {
  // Coverage recorded for a different image must not produce grant findings
  // against this image — one info finding says the evidence is stale.
  const json::Value seeded = SeededCoverage();
  const auto findings = Cl010Findings("quickstart", seeded);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, "info");
  EXPECT_NE(findings[0].message.find("cov-overprivileged"), std::string::npos);
  EXPECT_EQ(findings[0].fix, "re-run cheriot cov on this image");

  const json::Value report =
      cov::LeastPrivilegeJson(AuditOf("quickstart"), seeded);
  ASSERT_TRUE(report.Has("findings"));
  ASSERT_EQ(report["findings"].size(), 1u);
  EXPECT_EQ(report["findings"][size_t{0}]["kind"].AsString(),
            "stale_evidence");
  EXPECT_EQ(report["findings"][size_t{0}]["suggestion"].AsString(),
            "re-run cheriot cov on this image");
}

TEST(CovTest, NoEvidenceDisablesCl010Entirely) {
  LintOptions options;  // coverage defaults to null
  for (const auto& f : analysis::RunLints(AuditOf("cov-overprivileged"),
                                          options)) {
    EXPECT_NE(f.rule, "CL010");
  }
}

// --- Recorder unit behavior --------------------------------------------------

TEST(CovTest, RecorderCapturesEdgesMmioAndQuotaUse) {
  Board board(BuildImage("cov-overprivileged"), {});
  cov::CovRecorder* rec = board.EnableCoverage();
  board.Boot();
  board.StepTo(kHorizon);

  // sensor.main ran: its thread-entry edge and its call into actuator.set
  // are both recorded, with cycle stamps and depth.
  bool saw_actuator_set = false;
  for (const auto& [key, stats] : rec->call_edges()) {
    const auto [caller, callee, export_index] = key;
    EXPECT_GT(stats.count, 0u);
    EXPECT_LE(stats.first_cycle, stats.last_cycle);
    if (rec->CompartmentName(caller) == "sensor" &&
        rec->CompartmentName(callee) == "actuator" &&
        rec->ExportName(callee, export_index) == "set") {
      saw_actuator_set = true;
      EXPECT_GE(stats.peak_depth, 2u);
    }
  }
  EXPECT_TRUE(saw_actuator_set);

  // The led grant was touched exactly once (one store to register 0): one
  // granule of its window, write-only. The ethernet grant stayed untouched.
  bool saw_led = false;
  bool saw_ethernet = false;
  for (const auto& g : rec->mmio_grants()) {
    if (g.device == "led" && rec->CompartmentName(g.compartment) == "sensor") {
      saw_led = true;
      EXPECT_EQ(g.writes, 1u);
      EXPECT_EQ(g.reads, 0u);
      EXPECT_EQ(g.granules_touched(), 1u);
      EXPECT_GT(g.granules_total(), 1u);
    }
    if (g.device == "ethernet") {
      saw_ethernet = true;
      EXPECT_EQ(g.reads + g.writes, 0u);
      EXPECT_EQ(g.granules_touched(), 0u);
    }
  }
  EXPECT_TRUE(saw_led);
  EXPECT_TRUE(saw_ethernet);
}

TEST(CovTest, ExerciseIndexDigestsTheExportedDocument) {
  const json::Value doc = SeededCoverage();
  const cov::ExerciseIndex idx = cov::BuildExerciseIndex(doc);
  ASSERT_TRUE(idx.valid);
  EXPECT_EQ(idx.image, "cov-overprivileged");
  EXPECT_EQ(idx.boards, kBoards);
  EXPECT_TRUE(idx.calls.count({"sensor", "actuator.set"}));
  EXPECT_FALSE(idx.calls.count({"sensor", "actuator.diag"}));
  EXPECT_TRUE(idx.called_exports.count("actuator.set"));
  EXPECT_TRUE(idx.active.count("sensor"));
  // actuator only *received* calls; it exercised none of its own grants, so
  // it is not active (the CL010 severity gate).
  EXPECT_FALSE(idx.active.count("actuator"));
}

}  // namespace
}  // namespace cheriot
