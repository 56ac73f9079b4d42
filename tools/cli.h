// The `cheriot` command line: one executable whose subcommands (lint, trace,
// health, flow, cov, snap, mc) share this header's flag parsing, target
// selection over the one image registry (tools/targets.h), artifact writing
// and exit-code contract: 0 ok, 1 a check failed (or, for lint/mc, findings),
// 2 usage or load failure.
#ifndef TOOLS_CLI_H_
#define TOOLS_CLI_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/json/json.h"
#include "src/sim/board.h"
#include "tools/targets.h"

namespace cheriot::tools {

// A malformed command line. main() prints the message and the subcommand's
// usage and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// One subcommand. `run` gets the arguments after the subcommand name and
// returns the exit code.
struct Command {
  std::string name;
  std::function<void(std::FILE*)> usage;
  std::function<int(const std::vector<std::string>&)> run;
};

Command LintCommand();
Command SnapCommand();
Command McCommand();
// trace, health, flow and cov: the rows of the recorder table (record.cc).
std::vector<Command> RecorderCommands();

// Flag matchers: each returns true when `arg` is the named flag and stores
// its value. Count accepts only a plain non-negative decimal integer that
// fits T; anything else ("abc", "5x", "-3") is a UsageError.
bool Switch(const std::string& arg, const char* flag, bool* out);
bool Text(const std::string& arg, const char* prefix, std::string* out);
// The value after `prefix` as a count no larger than `max`.
uint64_t ParseCount(const std::string& arg, size_t prefix_len, uint64_t max);
template <typename T>
bool Count(const std::string& arg, const char* prefix, T* out) {
  const size_t n = std::char_traits<char>::length(prefix);
  if (arg.compare(0, n, prefix) != 0) {
    return false;
  }
  *out = static_cast<T>(ParseCount(arg, n, std::numeric_limits<T>::max()));
  return true;
}

// --list-targets, --all and --target=NAME[,NAME...].
struct Selection {
  bool list = false;
  bool all = false;
  std::vector<std::string> names;

  // True when `arg` was one of the selection flags.
  bool Parse(const std::string& arg);
  // The --target names in order, then every shipped image for --all. An
  // unknown name is a UsageError.
  std::vector<const Target*> Resolve() const;
};

// Prints the registry, one image per line, seeded ones marked.
void PrintTargets();

// The standard per-target loop: --list-targets prints the registry (exit 0),
// an empty selection is a UsageError, and `run` is called per target. A
// false return marks a failure (every target still runs, then exit 1); an
// exception is a load failure (exit 2).
int ForEachTarget(const std::string& tool, const Selection& selection,
                  const std::function<bool(const Target&)>& run);

// The image's §4 audit report: boots it on a throwaway machine far enough
// to run the loader (no guest instruction executes) and serializes the
// grant table.
json::Value AuditReport(const Target& target);

// "a,b,c" -> {"a", "b", "c"}; empty items are dropped.
std::vector<std::string> SplitCsv(const std::string& s);

bool ReadFile(const std::string& path, std::string* out);
// On failure prints "<tool>: cannot write <path>" and returns false.
bool WriteArtifact(const std::string& tool, const std::string& path,
                   const std::string& bytes);

// "now=... accesses=... cap=L/S traps=... idle=... uart=N/HASH reboots=..."
std::string FormatFingerprint(const sim::Board::Fingerprint& f);

}  // namespace cheriot::tools

#endif  // TOOLS_CLI_H_
