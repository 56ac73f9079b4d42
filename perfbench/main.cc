// cheriot_perfbench: host-time benchmark of the simulator (see README.md).
//
//   cheriot_perfbench --workload fleet_busy|fleet_idle|mc_explore|observe
//                     --seed N --seconds S --trace 0|1 --out DIR
//                     [--expect-digest HEX]
//
// Prints a human-readable report, then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones that the workload
// exercises; run.py checks both against BENCHMARK.json.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cheriot_perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --out DIR [--expect-digest HEX]\n",
               why);
  std::exit(2);
}

// Makes glibc keep the memory a repetition frees for the next one, instead
// of unmapping it and faulting it back in. Every repetition builds Boards
// (and mc_explore one Machine per schedule) whose buffers are past glibc's
// default 128 KiB mmap threshold. Returning them to the kernel makes each
// repetition pay page faults and munmaps, and on a shared VM their cost
// swings up to 10x with the other guests' memory traffic: mc_explore spent
// more time in the kernel than in the simulator during such spells
// (README.md, "Sizing and noise"). This measures the simulator's own code.
void KeepFreedMemory() {
  constexpr int kMaxMmapThreshold = 32 << 20;  // the most mallopt accepts
  if (mallopt(M_MMAP_THRESHOLD, kMaxMmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, 1 << 30) != 1) {
    std::fprintf(stderr, "mallopt failed; repetitions will page-fault\n");
  }
}

bool EmitMetrics(const Outcome& out, std::string& json) {
  json += "{";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return false;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}";
  return true;
}

int Main(int argc, char** argv) {
  KeepFreedMemory();
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + arg).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--out") {
      cfg.out_dir = v;
    } else if (arg == "--expect-digest") {
      cfg.expect_digest = std::strtoull(v, &end, 16);
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + arg).c_str());
    }
  }
  if (!IsWorkload(cfg.workload)) {
    Usage("--workload must be fleet_busy, fleet_idle, mc_explore or observe");
  }
  if (cfg.out_dir.empty() || !(cfg.seconds > 0)) {
    Usage("--out and a positive --seconds are required");
  }

  Outcome out = RunWorkload(cfg);
  if (cfg.trace) {
    out.Add("failed_frac",
            out.attempted ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 0.0,
            "ratio");
  }
  for (size_t i = 0; i < out.errors.size() && i < 20; ++i) {
    std::printf("FAILED: %s\n", out.errors[i].c_str());
  }
  std::printf("%s: digest %016llx, failed %llu of %llu attempted\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(out.digest),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::string metrics;
  if (!EmitMetrics(out, metrics)) {
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cheriot_perfbench: %s\n", e.what());
    return 1;
  }
}
