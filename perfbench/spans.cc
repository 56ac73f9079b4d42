#include "spans.h"

#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)),
      origin_(std::chrono::steady_clock::now()) {}

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::Begin(std::string name, std::string layer) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = Now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = Now();
  // Spans close innermost first (ScopedSpan is the only caller).
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

double SpanLog::Duration(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end_s - s.start_s;
}

double SpanLog::SelfTime(int id) const {
  // Children are opened and closed one after another on one thread, so their
  // intervals never overlap and the union is their sum.
  double self = Duration(id);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) {
      self -= Duration(static_cast<int>(i));
    }
  }
  return self;
}

std::vector<int> SpanLog::Subtree(int id) const {
  std::vector<int> out = {id};
  std::vector<bool> member(spans_.size(), false);
  member[static_cast<size_t>(id)] = true;
  // Parents precede children in spans_, so one forward pass suffices.
  for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && member[static_cast<size_t>(parent)]) {
      member[i] = true;
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::string SpanLog::SelfTimeTable(int root) const {
  struct Row {
    double self_s = 0;
    int spans = 0;
  };
  std::map<std::string, Row> rows;
  for (int id : Subtree(root)) {
    const std::string layer =
        id == root ? std::string("unattributed") : spans_[id].layer;
    rows[layer].self_s += SelfTime(id);
    ++rows[layer].spans;
  }
  const double total = Duration(root);
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "  %-14s %10s %7s %6s\n", "layer",
                "self_s", "share", "spans");
  out += line;
  double sum = 0;
  for (const auto& [layer, row] : rows) {
    std::snprintf(line, sizeof line, "  %-14s %10.6f %6.2f%% %6d\n",
                  layer.c_str(), row.self_s,
                  total > 0 ? 100.0 * row.self_s / total : 0.0, row.spans);
    out += line;
    sum += row.self_s;
  }
  std::snprintf(line, sizeof line, "  %-14s %10.6f (span '%s' = %.6f s)\n",
                "sum", sum, spans_[root].name.c_str(), total);
  out += line;
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    return false;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", workload_.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d, "
                 "\"workload\": \"%s\"}",
                 i ? "," : "", i, s.name.c_str(), s.layer.c_str(), s.start_s,
                 s.end_s, s.parent, workload_.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  std::fprintf(f,
               "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"perfbench %s\"}}",
               workload_.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}",
                 s.name.c_str(), s.layer.c_str(), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
