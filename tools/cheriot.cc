// cheriot: the one developer/CI tool. Every subcommand runs images from the
// same registry (tools/targets.h) with the same flag grammar:
//
//   cheriot lint    pre-boot static analysis of the §4 audit report
//   cheriot trace   flight recorder: Perfetto trace, cycle profile, metrics
//   cheriot health  crash forensics: health report, crash dump, scenes
//   cheriot flow    cross-board causal flows, histograms, fleet metrics
//   cheriot cov     authority coverage and the least-privilege report
//   cheriot snap    save/restore/inspect/diff machine snapshots
//   cheriot mc      systematic schedule exploration for races and deadlocks
//
// `cheriot <subcommand> --help` prints the subcommand's options.
#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "src/audit/report.h"
#include "src/kernel/system.h"
#include "tools/cli.h"

namespace cheriot::tools {

bool Switch(const std::string& arg, const char* flag, bool* out) {
  if (arg != flag) {
    return false;
  }
  *out = true;
  return true;
}

bool Text(const std::string& arg, const char* prefix, std::string* out) {
  const size_t n = std::strlen(prefix);
  if (arg.compare(0, n, prefix) != 0) {
    return false;
  }
  *out = arg.substr(n);
  return true;
}

uint64_t ParseCount(const std::string& arg, size_t prefix_len, uint64_t max) {
  const std::string v = arg.substr(prefix_len);
  errno = 0;
  const unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE || n > max) {
    throw UsageError(arg + ": expected a non-negative integer");
  }
  return n;
}

bool Selection::Parse(const std::string& arg) {
  std::string csv;
  if (Text(arg, "--target=", &csv)) {
    for (auto& name : SplitCsv(csv)) {
      names.push_back(std::move(name));
    }
    return true;
  }
  return Switch(arg, "--list-targets", &list) || Switch(arg, "--all", &all);
}

std::vector<const Target*> Selection::Resolve() const {
  std::vector<const Target*> out;
  for (const auto& name : names) {
    const Target* t = FindTarget(name);
    if (t == nullptr) {
      throw UsageError("unknown target '" + name + "' (--list-targets)");
    }
    out.push_back(t);
  }
  if (all) {
    for (const auto& t : Targets()) {
      if (!t.seeded) {
        out.push_back(&t);
      }
    }
  }
  return out;
}

void PrintTargets() {
  for (const auto& t : Targets()) {
    std::printf("%-26s %s%s\n", t.name.c_str(), t.seeded ? "[seeded] " : "",
                t.description.c_str());
  }
}

int ForEachTarget(const std::string& tool, const Selection& selection,
                  const std::function<bool(const Target&)>& run) {
  if (selection.list) {
    PrintTargets();
    return 0;
  }
  const std::vector<const Target*> targets = selection.Resolve();
  if (targets.empty()) {
    throw UsageError("no target given (--all or --target=NAME)");
  }
  bool ok = true;
  for (const Target* t : targets) {
    try {
      ok = run(*t) && ok;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s failed: %s\n", tool.c_str(),
                   t->name.c_str(), e.what());
      return 2;
    }
  }
  return ok ? 0 : 1;
}

json::Value AuditReport(const Target& target) {
  Machine machine;
  System sys(machine, target.build());
  sys.Boot();
  return audit::BuildReport(sys.boot());
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool WriteArtifact(const std::string& tool, const std::string& path,
                   const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) {
    out << bytes;
  }
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool.c_str(), path.c_str());
    return false;
  }
  return true;
}

std::string FormatFingerprint(const sim::Board::Fingerprint& f) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "now=%llu accesses=%llu cap=%llu/%llu traps=%llu idle=%llu"
                " uart=%llu/%016llx reboots=%u",
                static_cast<unsigned long long>(f.now),
                static_cast<unsigned long long>(f.accesses),
                static_cast<unsigned long long>(f.cap_loads),
                static_cast<unsigned long long>(f.cap_stores),
                static_cast<unsigned long long>(f.traps),
                static_cast<unsigned long long>(f.idle_cycles),
                static_cast<unsigned long long>(f.uart_bytes),
                static_cast<unsigned long long>(f.uart_hash), f.reboots);
  return buf;
}

}  // namespace cheriot::tools

namespace {

void Usage(std::FILE* out,
           const std::vector<cheriot::tools::Command>& commands) {
  std::fprintf(out, "usage: cheriot <");
  for (size_t i = 0; i < commands.size(); ++i) {
    std::fprintf(out, "%s%s", i == 0 ? "" : "|", commands[i].name.c_str());
  }
  std::fprintf(out,
               "> [options]\n"
               "\n"
               "`cheriot <subcommand> --help` lists a subcommand's options.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cheriot::tools;
  std::vector<Command> commands = {LintCommand()};
  for (Command& c : RecorderCommands()) {
    commands.push_back(std::move(c));
  }
  commands.push_back(SnapCommand());
  commands.push_back(McCommand());

  const std::string name = argc >= 2 ? argv[1] : "";
  if (name == "--help" || name == "-h") {
    Usage(stdout, commands);
    return 0;
  }
  for (const Command& c : commands) {
    if (c.name != name) {
      continue;
    }
    const std::vector<std::string> args(argv + 2, argv + argc);
    for (const auto& arg : args) {
      if (arg == "--help" || arg == "-h") {
        c.usage(stdout);
        return 0;
      }
    }
    try {
      return c.run(args);
    } catch (const UsageError& e) {
      std::fprintf(stderr, "cheriot %s: %s\n", name.c_str(), e.what());
      c.usage(stderr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cheriot %s: %s\n", name.c_str(), e.what());
    }
    return 2;
  }
  if (!name.empty()) {
    std::fprintf(stderr, "cheriot: unknown subcommand '%s'\n", name.c_str());
  }
  Usage(stderr, commands);
  return 2;
}
