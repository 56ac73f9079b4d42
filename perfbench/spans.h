// Host-time spans recorded from outside the simulator: the benchmark opens a
// span around each call it makes into a layer's public functions, so a
// layer's self time is the host time spent inside those calls minus the part
// covered by nested spans. Spans stay in memory and are written out when the
// workload ends (JSON, plus a Chrome trace that loads in Perfetto).
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;   // e.g. "fleet.run", "probe.mem.load_word"
  std::string layer;  // the src/ module the call lands in
  double start_s = 0;
  double end_s = 0;
  int parent = -1;    // index of the enclosing span, -1 for a root
};

class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  // Opens a span nested in the innermost open one; returns its index.
  int Begin(std::string name, std::string layer);
  void End(int id);

  // Per-layer self-time table over the subtree of `root`. The root's own
  // self time is printed as "unattributed"; the rows sum to its duration.
  std::string SelfTimeTable(int root) const;

  bool WriteJson(const std::string& path) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  double Now() const;
  double Duration(int id) const;
  // Duration minus the union of the direct children's intervals.
  double SelfTime(int id) const;
  // Indices of `id` and every span nested in it.
  std::vector<int> Subtree(int id) const;

  std::string workload_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer)
      : log_(log), id_(log ? log->Begin(std::move(name), std::move(layer))
                          : -1) {}
  ~ScopedSpan() {
    if (log_) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
