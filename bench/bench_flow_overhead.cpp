// Host-side cost of cheriot-flow (DESIGN.md §13): wall-clock time to run the
// same 4-board fleet-node fleet (a) with flow recording off, (b) with the
// flow recorder on, and (c) with recording on plus a full flow-table /
// histogram / metrics export. Flow ids are assigned in all three modes —
// only recording is gated — so every board's guest cycles are identical by
// construction, and this bench hard-asserts that by comparing all four
// fingerprints before reporting any number. What flow tracing costs is host
// time only, and BENCH_flow_overhead.json records how much.
#include <benchmark/benchmark.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/flow/flow.h"
#include "src/sim/fleet.h"
#include "tools/targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;
constexpr int kBoards = 4;
constexpr int kControlPublishes = 3;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

enum class Mode { kOff, kFlow, kExport };

struct Result {
  double seconds = 0;
  uint64_t flows = 0;
  uint64_t deliveries = 0;
  std::vector<sim::Board::Fingerprint> fingerprints;
};

Result RunOnce(const tools::Target& target, Mode mode) {
  sim::FleetOptions fopts;
  fopts.flow = mode != Mode::kOff;
  sim::Fleet fleet(fopts);
  for (int i = 0; i < kBoards; ++i) {
    fleet.AddBoard(target.build());
  }
  const auto t0 = std::chrono::steady_clock::now();
  fleet.Boot();
  const Cycles chunk = kRunCycles / (kControlPublishes + 1);
  for (int i = 0; i <= kControlPublishes; ++i) {
    fleet.Run(chunk);
    if (i < kControlPublishes) {
      fleet.PublishMqtt("leds", {'c', 'm', 'd', static_cast<uint8_t>('0' + i)});
    }
  }
  std::string exported;
  if (mode == Mode::kExport) {
    flow::FlowRecorder* fr = fleet.flow_recorder();
    exported = fr->FlowTableJson().Dump(2);
    exported += fr->HistogramsJson().Dump(2);
    exported += fr->MetricsJson().Dump(2);
  }
  Result r;
  r.seconds = SecondsSince(t0);
  if (flow::FlowRecorder* fr = fleet.flow_recorder()) {
    r.flows = fr->flow_count();
    r.deliveries = fr->deliveries();
  }
  r.fingerprints = fleet.Fingerprints();
  benchmark::DoNotOptimize(exported);
  return r;
}

Result Best(const tools::Target& target, Mode mode, int runs) {
  Result best = RunOnce(target, mode);
  for (int i = 1; i < runs; ++i) {
    Result r = RunOnce(target, mode);
    if (r.seconds < best.seconds) {
      best = r;
    }
  }
  return best;
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const char* json_path = "BENCH_flow_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  // Reach steady-state CPU frequency before timing anything.
  {
    volatile uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (SecondsSince(t0) < 0.5) {
      for (int i = 0; i < 4096; ++i) {
        sink += i;
      }
    }
  }

  const tools::Target* target = tools::FindTarget("fleet-node");
  if (!target) {
    std::fprintf(stderr, "registry target 'fleet-node' missing\n");
    return 1;
  }

  std::printf(
      "=== cheriot-flow host overhead (%s x%d, %llu guest cycles) ===\n",
      target->name.c_str(), kBoards,
      static_cast<unsigned long long>(kRunCycles));
  const Result off = Best(*target, Mode::kOff, 5);
  const Result flow = Best(*target, Mode::kFlow, 5);
  const Result full = Best(*target, Mode::kExport, 5);

  // The whole point of the recorder is that it never moves a guest cycle.
  // If any board diverges the numbers below are meaningless — abort loudly.
  for (int b = 0; b < kBoards; ++b) {
    if (!(off.fingerprints[b] == flow.fingerprints[b]) ||
        !(off.fingerprints[b] == full.fingerprints[b])) {
      std::fprintf(stderr,
                   "FATAL: flow recording changed board %d's fingerprint; "
                   "cycle-model invariance is broken\n",
                   b);
      return 2;
    }
  }

  const double flow_overhead = flow.seconds / off.seconds - 1.0;
  const double full_overhead = full.seconds / off.seconds - 1.0;
  std::printf("  off:         %.4f s\n", off.seconds);
  std::printf("  flow on:     %.4f s  (+%.1f%%, %llu flows, %llu deliveries)\n",
              flow.seconds, 100.0 * flow_overhead,
              static_cast<unsigned long long>(flow.flows),
              static_cast<unsigned long long>(flow.deliveries));
  std::printf("  full export: %.4f s  (+%.1f%%)\n", full.seconds,
              100.0 * full_overhead);

  FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write '%s': %s\n", json_path,
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "{\n%s", bench::ProvenanceJson().c_str());
  std::fprintf(f, "  \"bench\": \"flow_overhead\",\n");
  std::fprintf(f, "  \"unit\": \"host seconds for %llu guest cycles\",\n",
               static_cast<unsigned long long>(kRunCycles));
  std::fprintf(f, "  \"image\": \"%s\",\n", target->name.c_str());
  std::fprintf(f, "  \"boards\": %d,\n", kBoards);
  std::fprintf(f, "  \"flows\": %llu,\n",
               static_cast<unsigned long long>(flow.flows));
  std::fprintf(f, "  \"deliveries\": %llu,\n",
               static_cast<unsigned long long>(flow.deliveries));
  std::fprintf(f, "  \"off_seconds\": %.6f,\n", off.seconds);
  std::fprintf(f, "  \"flow_seconds\": %.6f,\n", flow.seconds);
  std::fprintf(f, "  \"export_seconds\": %.6f,\n", full.seconds);
  std::fprintf(f, "  \"flow_overhead\": %.4f,\n", flow_overhead);
  std::fprintf(f, "  \"export_overhead\": %.4f,\n", full_overhead);
  std::fprintf(f, "  \"fingerprint_invariant\": true\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
