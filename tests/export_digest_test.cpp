// Byte pins for every JSON exporter. Each document below is rendered from a
// fixed, deterministic run and reduced to a 64-bit FNV-1a digest; the
// expected digests were recorded before the JSON layer was last rewritten,
// so a change to src/json or to any exporter that moves a single output byte
// fails here, in tier-1, rather than only in the benchmark's digest.
//
// If an exporter changes its output on purpose, re-record the digest it
// prints on failure and say why in the commit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
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
  EXPECT_GT(fr->flow_count(), 0u);
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
