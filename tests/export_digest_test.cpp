// Byte pins for every JSON exporter and for the CHERSNAP snapshot container.
// Each document below is rendered from a fixed, deterministic run and reduced
// to a 64-bit FNV-1a digest; the expected digests were recorded before the
// code that writes them was last rewritten, so a change to src/json, to any
// exporter or to a snapshot codec that moves a single output byte fails here,
// in tier-1, rather than only in the benchmark's digest.
//
// If an exporter changes its output on purpose, re-record the digest it
// prints on failure and say why in the commit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/lint.h"
#include "src/audit/report.h"
#include "src/base/costs.h"
#include "src/cov/report.h"
#include "src/flow/flow.h"
#include "src/health/monitor.h"
#include "src/json/json.h"
#include "src/mc/explorer.h"
#include "src/rtos.h"
#include "src/sim/fleet.h"
#include "src/trace/export.h"
#include "tools/targets.h"

namespace cheriot {
namespace {

std::string Fnv(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// The fleet pins are bytes of the default (fast-forward) barrier schedule.
// With CHERIOT_FLEET_FAST_FORWARD=0 the barriers land elsewhere, so the
// trace's idle spans and the barrier-sampled metrics differ; fingerprints do
// not (tests/fleet_test.cpp).
bool FastForwardForcedOff() {
  const char* env = std::getenv("CHERIOT_FLEET_FAST_FORWARD");
  return env != nullptr && std::string(env) == "0";
}

// 4 fleet-node boards on 2 host workers with every recorder on, driven the
// way `cheriot cov` drives a fleet: a control publish partway through so
// the boards' subscription path and the gateway fan-out both carry flows.
std::unique_ptr<sim::Fleet> RecordedFleet() {
  const tools::Target* t = tools::FindTarget("fleet-node");
  EXPECT_NE(t, nullptr);
  sim::FleetOptions o;
  o.host_threads = 2;
  o.trace = true;
  o.flow = true;
  o.cov = true;
  o.forensics = true;
  auto fleet = std::make_unique<sim::Fleet>(o);
  for (int i = 0; i < 4; ++i) {
    fleet->AddBoard(t->build());
  }
  fleet->Boot();
  fleet->Run(4 * cost::kCoreHz);
  fleet->PublishMqtt("leds", {'o', 'n'});
  fleet->Run(cost::kCoreHz);
  return fleet;
}

TEST(ExportDigest, RecordedFleetExportsAreBytePinned) {
  if (FastForwardForcedOff()) {
    GTEST_SKIP() << "fast-forward forced off by environment";
  }
  auto fleet = RecordedFleet();
  json::Array metrics;
  for (trace::TraceRecorder* tr : fleet->TraceRecorders()) {
    std::vector<trace::ThreadStackStats> threads;
    if (tr->board_index() >= 0) {
      sim::Board& b = fleet->board(static_cast<size_t>(tr->board_index()));
      for (const GuestThread& t : b.system().threads()) {
        threads.push_back({t.name, t.stack_size, t.peak_stack_bytes,
                           t.compartment_calls});
      }
    }
    metrics.push_back(trace::MetricsSnapshot(*tr, threads));
  }
  const json::Value trace = trace::MergedChromeTrace(fleet->TraceRecorders());
  const flow::FlowRecorder* fr = fleet->flow_recorder();
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->flow_count(), 108u);
  EXPECT_EQ(fr->deliveries(), 88u);
  const json::Value cov =
      cov::CoverageJson("fleet-node", fleet->CovRecorders());

  EXPECT_EQ(trace["traceEvents"].size(), 3214u);
  EXPECT_EQ(Fnv(trace.Dump(2)), "4e5dac32ce50f070") << "trace.json";
  EXPECT_EQ(Fnv(trace.Dump(-1)), "39f0dc18b2e6f2d8") << "trace.json compact";
  EXPECT_EQ(Fnv(json::Value(std::move(metrics)).Dump(2)), "9ff59675ab79468a")
      << "metrics.json";
  EXPECT_EQ(Fnv(fr->FlowTableJson().Dump(2)), "114b53dcfc032902")
      << "flow_table.json";
  EXPECT_EQ(Fnv(fr->HistogramsJson().Dump(2)), "b51974d304bc421f")
      << "flow_histograms.json";
  EXPECT_EQ(Fnv(fr->MetricsJson().Dump(2)), "e066426e4fd7e89f")
      << "flow_metrics.json";
  EXPECT_EQ(Fnv(cov.Dump(2)), "42633ec40b0aac01") << "cov.json";
  EXPECT_EQ(Fnv(cov.Dump(-1)), "c53876cf23da8f8b") << "cov.json compact";
  EXPECT_EQ(Fnv(health::FleetHealthReport(*fleet).Dump(2)),
            "2585fd913cc36cbc")
      << "health report";
}

// CHERSNAP bytes: a whole-fleet snapshot (options, fabric, every embedded
// board with its recorder rings, the control log) and a standalone board
// snapshot with every recorder on. Both are also restored and re-snapshotted,
// which must reproduce the pinned bytes.
TEST(ExportDigest, FleetSnapshotIsBytePinned) {
  auto fleet = RecordedFleet();
  std::vector<uint8_t> blob;
  fleet->Snapshot(blob);
  if (!FastForwardForcedOff()) {
    const std::string bytes(blob.begin(), blob.end());
    EXPECT_EQ(Fnv(bytes), "f3445a6abfe6b747") << "fleet CHERSNAP";
  }

  const tools::Target* t = tools::FindTarget("fleet-node");
  ASSERT_NE(t, nullptr);
  auto restored = sim::Fleet::Restore(blob, [t](int) { return t->build(); }, 2);
  std::vector<uint8_t> again;
  restored->Snapshot(again);
  EXPECT_EQ(again, blob);
}

TEST(ExportDigest, BoardSnapshotIsBytePinned) {
  const tools::Target* t = tools::FindTarget("fleet-node");
  ASSERT_NE(t, nullptr);
  sim::Board board(t->build(), sim::BoardOptions{});
  board.EnableTrace();
  health::ForensicsOptions fo;
  fo.capture_crash_scene = true;
  board.EnableForensics(fo);
  board.EnableCoverage();
  board.Boot();
  board.StepTo(cost::kCoreHz / 2);
  std::vector<uint8_t> blob;
  board.Snapshot(blob);
  const std::string bytes(blob.begin(), blob.end());
  EXPECT_EQ(Fnv(bytes), "939f9c513545cffd") << "board CHERSNAP";

  auto restored = sim::Board::Restore(blob, t->build());
  std::vector<uint8_t> again;
  restored->Snapshot(again);
  EXPECT_EQ(again, blob);
}

TEST(ExportDigest, McReportIsBytePinned) {
  const tools::Target* t = tools::FindTarget("seeded-lost-wake");
  ASSERT_NE(t, nullptr);
  mc::McOptions o;
  o.max_schedules = 64;
  o.cycles = 2'000'000;
  const mc::McReport report = mc::Explore(t->name, t->build, o);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(Fnv(report.ToJson().Dump(2)), "953a8251d856906b");
}

// Every registry image's report under the `cheriot mc` defaults, without and
// with fault injection, so nothing about how the explorer returns its board
// to the root between schedules can move a report unseen. A registry image
// without a pin fails the test.
TEST(ExportDigest, McReportOfEveryImageIsBytePinned) {
  struct Pin {
    const char* image;
    bool inject_faults;
    const char* digest;
  };
  const Pin kPins[] = {
      {"cov-overprivileged", false, "7f8b86b694dc181a"},
      {"cov-overprivileged", true, "8e4b91671bd68ac3"},
      {"fault-tolerance", false, "d97b15618e8b6140"},
      {"fault-tolerance", true, "bd82a38086648401"},
      {"fleet-node", false, "8c380038af872d64"},
      {"fleet-node", true, "3ef9ee9f1e17311a"},
      {"http-firmware", false, "b81f41ef102ed604"},
      {"http-firmware", true, "0c09af0e4346aead"},
      {"http-firmware-backdoored", false, "fc2be4e0dee9ae3b"},
      {"http-firmware-backdoored", true, "f8010b1a5f1db090"},
      {"iot-mqtt-app", false, "ac03acaf1af5349c"},
      {"iot-mqtt-app", true, "3341301db678cf42"},
      {"producer-consumer", false, "f4c725dde339b759"},
      {"producer-consumer", true, "b84ff6f4afe92e4e"},
      {"quickstart", false, "6f4d47247e43921d"},
      {"quickstart", true, "19146bac40b80fba"},
      {"seeded-lost-wake", false, "7611a6116b37f524"},
      {"seeded-lost-wake", true, "fa0691e0211a5d3f"},
      {"seeded-quota-race", false, "bb14264bcc327e0e"},
      {"seeded-quota-race", true, "48b973ebc6829314"},
      {"seeded-uaf", false, "b97c14a6df1eaf4d"},
      {"seeded-uaf", true, "9623705f75247a10"},
      {"seeded-wake-order", false, "4cd01f9484854c33"},
      {"seeded-wake-order", true, "e585f811a44fb96a"},
  };
  for (const tools::Target& t : tools::Targets()) {
    for (const bool inject : {false, true}) {
      const std::string label =
          t.name + (inject ? " --inject-faults" : "");
      const Pin* pin = nullptr;
      for (const Pin& p : kPins) {
        if (t.name == p.image && inject == p.inject_faults) {
          pin = &p;
        }
      }
      ASSERT_NE(pin, nullptr) << "no McReport pin for " << label;
      mc::McOptions o;
      o.inject_faults = inject;
      const mc::McReport report = mc::Explore(t.name, t.build, o);
      EXPECT_EQ(Fnv(report.ToJson().Dump(2)), pin->digest) << label;
    }
  }
}

TEST(ExportDigest, LintFindingsAreBytePinned) {
  const tools::Target* t = tools::FindTarget("http-firmware-backdoored");
  ASSERT_NE(t, nullptr);
  Machine machine;
  System sys(machine, t->build());
  sys.Boot();
  const json::Value report = audit::BuildReport(sys.boot());
  const auto findings = analysis::RunLints(report, {});
  EXPECT_FALSE(findings.empty());
  EXPECT_EQ(Fnv(report.Dump(2)), "a94cdf81f2b14af1") << "audit report";
  EXPECT_EQ(Fnv(analysis::FindingsToJson(report, findings).Dump(2)),
            "becb4c0332318f04")
      << "lint findings";
}

}  // namespace
}  // namespace cheriot
