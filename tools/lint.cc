// cheriot lint: pre-boot static analysis over firmware audit reports.
//
// Loads one or more registry images (or a report JSON from disk), builds the
// authority graph and runs the CL001..CL010 lint passes. Findings can be
// diffed against checked-in baselines so CI fails only on regressions:
// error-level findings always fail; warnings/info not present in the
// baseline are printed as NEW but do not fail the build.
//
// Exit codes: 0 clean (or only baselined/new non-error findings),
//             1 error-level findings present,
//             2 usage or load failure.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/lint.h"
#include "src/json/json.h"
#include "tools/cli.h"

namespace cheriot::tools {
namespace {

constexpr const char kTool[] = "cheriot lint";

struct LintArgs {
  Selection selection;
  std::vector<std::string> report_files;
  bool json_format = false;
  bool fix_suggestions = false;
  bool update_baselines = false;
  std::string baseline_file;  // single-image baseline
  std::string baseline_dir;   // per-image baselines: DIR/<name>.json
  std::string coverage_file;  // CL010 evidence: a `cheriot cov` export
  analysis::LintOptions lint;
};

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: cheriot lint [--all | --target=NAME[,NAME...] |"
               " --report=FILE]\n"
               "                    [options]\n"
               "\n"
               "  --list-targets        list the firmware images\n"
               "  --all                 lint every shipped image\n"
               "  --target=NAME         lint one image (repeatable)\n"
               "  --report=FILE         lint an audit-report JSON from disk\n"
               "  --format=text|json    output format (default text)\n"
               "  --restrict-mmio=A,B   devices only direct importers may\n"
               "                        reach; transitive paths are CL003\n"
               "  --baseline=FILE       known-findings baseline (one image)\n"
               "  --baseline-dir=DIR    per-image baselines, DIR/<name>.json\n"
               "  --update-baselines    rewrite DIR/<name>.json instead of\n"
               "                        checking (requires --baseline-dir)\n"
               "  --fix-suggestions     print the exact ImageBuilder call to\n"
               "                        delete for fixable findings\n"
               "  --coverage=FILE       `cheriot cov` export used as dynamic\n"
               "                        evidence by rule CL010\n"
               "                        (unused-authority); without it the\n"
               "                        rule is silent\n");
}

// Identity of a finding for baseline matching. The path is deliberately not
// part of the key: a refactor that reroutes an authority path but keeps the
// same finding should not churn baselines.
std::string FindingKey(const std::string& rule, const std::string& subject,
                       const std::string& message) {
  return rule + "\x1f" + subject + "\x1f" + message;
}

std::set<std::string> LoadBaseline(const std::string& path, bool* ok) {
  std::set<std::string> keys;
  std::string text;
  *ok = ReadFile(path, &text);
  if (!*ok) {
    return keys;
  }
  try {
    const json::Value doc = json::Parse(text);
    const json::Value& findings = doc["findings"];
    for (size_t i = 0; i < findings.size(); ++i) {
      const json::Value& f = findings[i];
      keys.insert(FindingKey(f["rule"].AsString(), f["subject"].AsString(),
                             f["message"].AsString()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: bad baseline %s: %s\n", kTool, path.c_str(),
                 e.what());
    *ok = false;
  }
  return keys;
}

struct ImageResult {
  std::string name;
  std::vector<analysis::Finding> findings;
  json::Value json;        // FindingsToJson document
  bool has_errors = false;
  int new_findings = 0;    // non-baselined, when a baseline was loaded
};

ImageResult LintOne(const std::string& name, const json::Value& report,
                    const LintArgs& opts) {
  ImageResult r;
  r.name = name;
  r.findings = analysis::RunLints(report, opts.lint);
  r.json = analysis::FindingsToJson(report, r.findings);
  r.has_errors = analysis::HasErrors(r.findings);
  return r;
}

void PrintText(const ImageResult& r, const std::set<std::string>* baseline,
               const LintArgs& opts) {
  std::printf("== %s: %zu finding%s ==\n", r.name.c_str(), r.findings.size(),
              r.findings.size() == 1 ? "" : "s");
  for (const auto& f : r.findings) {
    const bool is_new =
        baseline != nullptr &&
        baseline->count(FindingKey(f.rule, f.subject, f.message)) == 0;
    std::printf("%s", is_new ? "NEW " : "");
    std::printf("[%s] %s %s: %s\n", f.severity.c_str(), f.rule.c_str(),
                f.name.c_str(), f.message.c_str());
    if (!f.path.empty()) {
      std::printf("        path: %s\n",
                  analysis::AuthorityGraph::RenderPath(f.path).c_str());
    }
    if (opts.fix_suggestions && !f.fix.empty()) {
      std::printf("        fix: %s\n", analysis::FixSuggestion(f).c_str());
    }
  }
}

int Lint(const std::vector<std::string>& args) {
  LintArgs opts;
  std::string value;
  for (const std::string& arg : args) {
    if (opts.selection.Parse(arg) ||
        Switch(arg, "--fix-suggestions", &opts.fix_suggestions) ||
        Switch(arg, "--update-baselines", &opts.update_baselines) ||
        Text(arg, "--baseline=", &opts.baseline_file) ||
        Text(arg, "--baseline-dir=", &opts.baseline_dir) ||
        Text(arg, "--coverage=", &opts.coverage_file)) {
    } else if (Text(arg, "--report=", &value)) {
      opts.report_files.push_back(value);
    } else if (Text(arg, "--format=", &value)) {
      if (value != "json" && value != "text") {
        throw UsageError("unknown format " + value);
      }
      opts.json_format = value == "json";
    } else if (Text(arg, "--restrict-mmio=", &value)) {
      for (auto& d : SplitCsv(value)) {
        opts.lint.restricted_mmio.push_back(d);
      }
    } else {
      throw UsageError("unknown option " + arg);
    }
  }

  if (opts.selection.list) {
    PrintTargets();
    return 0;
  }
  const std::vector<const Target*> targets = opts.selection.Resolve();
  if (targets.empty() && opts.report_files.empty()) {
    throw UsageError("no image given (--all, --target=NAME or --report=FILE)");
  }
  if (opts.update_baselines && opts.baseline_dir.empty()) {
    throw UsageError("--update-baselines requires --baseline-dir");
  }
  if (!opts.baseline_file.empty() &&
      targets.size() + opts.report_files.size() > 1) {
    throw UsageError("--baseline applies to a single image; use "
                     "--baseline-dir");
  }

  // CL010 evidence, if supplied; owned here so LintOptions can hold a
  // pointer for the duration of every RunLints call.
  json::Value coverage_doc;
  if (!opts.coverage_file.empty()) {
    std::string text;
    if (!ReadFile(opts.coverage_file, &text)) {
      std::fprintf(stderr, "%s: cannot read %s\n", kTool,
                   opts.coverage_file.c_str());
      return 2;
    }
    try {
      coverage_doc = json::Parse(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: bad coverage %s: %s\n", kTool,
                   opts.coverage_file.c_str(), e.what());
      return 2;
    }
    opts.lint.coverage = &coverage_doc;
  }

  // Gather (name, report) pairs.
  std::vector<std::pair<std::string, json::Value>> reports;
  for (const Target* t : targets) {
    try {
      reports.emplace_back(t->name, AuditReport(*t));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: failed to load %s: %s\n", kTool,
                   t->name.c_str(), e.what());
      return 2;
    }
  }
  for (const auto& file : opts.report_files) {
    std::string text;
    if (!ReadFile(file, &text)) {
      std::fprintf(stderr, "%s: cannot read %s\n", kTool, file.c_str());
      return 2;
    }
    try {
      json::Value report = json::Parse(text);
      std::string name = report["firmware"].is_null()
                             ? file
                             : report["firmware"].AsString();
      reports.emplace_back(std::move(name), std::move(report));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: bad report %s: %s\n", kTool, file.c_str(),
                   e.what());
      return 2;
    }
  }

  bool any_errors = false;
  int total_new = 0;
  json::Array all_json;
  for (const auto& [name, report] : reports) {
    ImageResult r = LintOne(name, report, opts);

    if (opts.update_baselines) {
      const std::string path = opts.baseline_dir + "/" + name + ".json";
      if (!WriteArtifact(kTool, path, r.json.Dump(2) + "\n")) {
        return 2;
      }
      std::fprintf(stderr, "wrote %s (%zu findings)\n", path.c_str(),
                   r.findings.size());
      any_errors = any_errors || r.has_errors;
      continue;
    }

    std::set<std::string> baseline;
    bool have_baseline = false;
    std::string baseline_path = opts.baseline_file;
    if (baseline_path.empty() && !opts.baseline_dir.empty()) {
      baseline_path = opts.baseline_dir + "/" + name + ".json";
    }
    if (!baseline_path.empty()) {
      baseline = LoadBaseline(baseline_path, &have_baseline);
      if (!have_baseline) {
        std::fprintf(stderr, "%s: missing baseline %s\n", kTool,
                     baseline_path.c_str());
        return 2;
      }
    }
    for (const auto& f : r.findings) {
      if (have_baseline &&
          baseline.count(FindingKey(f.rule, f.subject, f.message)) == 0) {
        ++r.new_findings;
      }
    }

    if (opts.json_format) {
      all_json.push_back(r.json);
    } else {
      PrintText(r, have_baseline ? &baseline : nullptr, opts);
    }
    any_errors = any_errors || r.has_errors;
    total_new += r.new_findings;
  }

  if (opts.update_baselines) {
    return any_errors ? 1 : 0;
  }
  if (opts.json_format) {
    // One document per image keeps single-image output stable; --all wraps
    // the documents in an array.
    if (all_json.size() == 1) {
      std::printf("%s\n", all_json[0].Dump(2).c_str());
    } else {
      std::printf("%s\n", json::Value(std::move(all_json)).Dump(2).c_str());
    }
  }
  if (total_new > 0) {
    std::fprintf(stderr, "%s: %d finding%s not in baseline\n", kTool,
                 total_new, total_new == 1 ? "" : "s");
  }
  return any_errors ? 1 : 0;
}

}  // namespace

Command LintCommand() { return {"lint", Usage, Lint}; }

}  // namespace cheriot::tools
