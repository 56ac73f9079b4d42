#include "hostspeed.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <latch>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

// File names like the tools write, 12000 of them: each is formatted, matched
// against a pattern, counted in a map, and the whole list is sorted.
uint64_t Reference() {
  static const std::regex kName("([a-z]+)_([0-9]+)\\.(json|txt)");
  std::map<std::string, int> counts;
  std::vector<std::string> names;
  uint64_t h = 0;
  char buf[64];
  for (int i = 0; i < 12000; ++i) {
    std::snprintf(buf, sizeof buf, "%s_%d.%s", i % 3 ? "trace" : "metrics",
                  (i * 7919) % 10007, i & 1 ? "json" : "txt");
    names.emplace_back(buf);
    counts[names.back()] += i;
    std::smatch m;
    if (std::regex_match(names.back(), m, kName)) {
      h += static_cast<uint64_t>(m[2].length());
    }
  }
  std::sort(names.begin(), names.end());
  for (const auto& [name, n] : counts) {
    h = h * 31 + static_cast<uint64_t>(n) + name.size();
  }
  return h + names.front().size();
}

// Where the passes' results go, so that they cannot be optimised away.
std::atomic<uint64_t> sink{0};

}  // namespace

double HostSpeed::Slowdown() {
  // Every thread warms up, then all start the timed pass together.
  std::latch warm(threads_);
  auto pass = [&] {
    sink += Reference();
    warm.arrive_and_wait();
    sink += Reference();
  };
  std::vector<std::thread> others;
  for (int i = 1; i < threads_; ++i) {
    others.emplace_back(pass);
  }
  sink += Reference();
  warm.arrive_and_wait();
  const auto t0 = std::chrono::steady_clock::now();
  sink += Reference();
  for (std::thread& t : others) {
    t.join();
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return s / kNominalPassSeconds;
}

}  // namespace perfbench
