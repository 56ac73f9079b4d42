// Host-side cost of cheriot-trace (DESIGN.md §8): wall-clock time to run the
// same firmware image (a) untraced, (b) with the flight recorder + profiler
// on, and (c) with tracing on plus a full Chrome-trace/metrics/profile
// export. Guest cycles are identical in all three modes by construction —
// the cycle-model-invariance contract — and this bench hard-asserts that by
// comparing fingerprints before reporting any number. What tracing costs is
// host time only, and BENCH_trace_overhead.json records how much.
#include <benchmark/benchmark.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/provenance.h"
#include "src/sim/board.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "tools/targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

enum class Mode { kOff, kRing, kExport };

struct Result {
  double seconds = 0;
  uint64_t emitted = 0;
  sim::Board::Fingerprint fingerprint;
};

Result RunOnce(const tools::Target& target, Mode mode) {
  sim::Board board(target.build(), sim::BoardOptions{});
  trace::TraceRecorder* rec = nullptr;
  if (mode != Mode::kOff) {
    rec = board.EnableTrace({});
  }
  const auto t0 = std::chrono::steady_clock::now();
  board.Boot();
  board.StepTo(kRunCycles);
  std::string exported;
  if (mode == Mode::kExport) {
    exported = trace::ChromeTrace(*rec).Dump(2);
    exported += trace::MetricsSnapshot(*rec).Dump(2);
    exported += trace::ProfileText(*rec);
    exported += trace::CollapsedStacksText(*rec);
  }
  Result r;
  r.seconds = SecondsSince(t0);
  r.emitted = rec ? rec->emitted() : 0;
  r.fingerprint = board.fingerprint();
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
  const char* json_path = "BENCH_trace_overhead.json";
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

  std::printf("=== cheriot-trace host overhead (%s, %llu guest cycles) ===\n",
              target->name.c_str(),
              static_cast<unsigned long long>(kRunCycles));
  const Result off = Best(*target, Mode::kOff, 5);
  const Result ring = Best(*target, Mode::kRing, 5);
  const Result full = Best(*target, Mode::kExport, 5);

  // The whole point of the recorder is that it never moves a guest cycle.
  // If these ever diverge the numbers below are meaningless — abort loudly.
  if (!(off.fingerprint == ring.fingerprint) ||
      !(off.fingerprint == full.fingerprint)) {
    std::fprintf(stderr,
                 "FATAL: tracing changed the guest fingerprint; "
                 "cycle-model invariance is broken\n");
    return 2;
  }

  const double ring_overhead = ring.seconds / off.seconds - 1.0;
  const double full_overhead = full.seconds / off.seconds - 1.0;
  std::printf("  off:         %.4f s\n", off.seconds);
  std::printf("  ring on:     %.4f s  (+%.1f%%, %llu events)\n", ring.seconds,
              100.0 * ring_overhead,
              static_cast<unsigned long long>(ring.emitted));
  std::printf("  full export: %.4f s  (+%.1f%%)\n", full.seconds,
              100.0 * full_overhead);

  FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write '%s': %s\n", json_path,
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "{\n%s", bench::ProvenanceJson().c_str());
  std::fprintf(f, "  \"bench\": \"trace_overhead\",\n");
  std::fprintf(f, "  \"unit\": \"host seconds for %llu guest cycles\",\n",
               static_cast<unsigned long long>(kRunCycles));
  std::fprintf(f, "  \"image\": \"%s\",\n", target->name.c_str());
  std::fprintf(f, "  \"events_emitted\": %llu,\n",
               static_cast<unsigned long long>(ring.emitted));
  std::fprintf(f, "  \"off_seconds\": %.6f,\n", off.seconds);
  std::fprintf(f, "  \"ring_seconds\": %.6f,\n", ring.seconds);
  std::fprintf(f, "  \"export_seconds\": %.6f,\n", full.seconds);
  std::fprintf(f, "  \"ring_overhead\": %.4f,\n", ring_overhead);
  std::fprintf(f, "  \"export_overhead\": %.4f,\n", full_overhead);
  std::fprintf(f, "  \"fingerprint_invariant\": true\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
