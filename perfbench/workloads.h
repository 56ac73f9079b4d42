// The benchmark's workloads and layer probes. Every workload is a batch run
// of a fixed amount of simulated work, repeated until the requested host
// time is used up; README.md says why each exists and what it bypasses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // The guest digest recorded for this workload at the default seed; unset
  // for other seeds, where correctness is checked by cross-runs instead.
  std::optional<uint64_t> expect_digest;
  std::string out_dir;  // exports, spans and the Chrome trace land here
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;              // the default-seed digest of this run
  std::vector<std::string> errors;  // one line per failed operation
  std::vector<Metric> metrics;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

bool IsWorkload(const std::string& name);
Outcome RunWorkload(const RunConfig& config);

// Layer probes: host ns/op of public calls timed from outside, next to the
// guest cycles/op the model charges. Appended to `out` as per-layer metrics.
void RunProbes(SpanLog* spans, Outcome& out);

double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
