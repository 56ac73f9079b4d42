// cheriot mc: systematic concurrency exploration over a firmware image
// (src/mc/explorer.h). Boots the image once, snapshots the board, then
// explores the schedule space by restore-and-replay under a recording
// arbiter — quantum preemptions, IRQ delivery slots, futex wake order,
// multiwaiter completion order and (with --inject-faults) allocation
// failures and NIC frame loss are all branch points. Partial-order
// reduction prunes preemptions whose footprints cannot conflict. Failing
// schedules are reported with a minimal reproduction recipe (the frontier
// is explored in non-default-choice order, so the first hit is minimal).
//
// The CI gate runs the shipped images (--all) expecting clean and the
// seeded-bug images (tools/targets.cc) expecting failures.
//
// Per-target artifact: mc_<name>.json — byte-stable (integers only, sorted
// keys), so reports diff cleanly across runs and machines.
//
// Exit codes: 0 all targets clean, 1 at least one failure found, 2 usage
// or load failure.
#include <cstdio>
#include <string>
#include <vector>

#include "src/mc/explorer.h"
#include "tools/cli.h"

namespace cheriot::tools {
namespace {

constexpr const char kTool[] = "cheriot mc";

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: cheriot mc [--all | --target=NAME[,NAME...]]"
               " [options]\n"
               "\n"
               "  --list-targets      list firmware images (shipped + seeded)\n"
               "  --all               explore every shipped image\n"
               "  --target=NAME       explore one image (repeatable; seeded\n"
               "                      bug images are addressed by name)\n"
               "  --max-schedules=N   schedule budget per image (default "
               "256)\n"
               "  --preempt-bound=K   max non-default preemption choices per\n"
               "                      schedule (default 2)\n"
               "  --inject-faults     also branch on allocation failure and\n"
               "                      NIC frame loss\n"
               "  --cycles=N          guest cycles per schedule (default "
               "2000000)\n"
               "  --out-dir=DIR       where to write mc_<name>.json "
               "(default .)\n");
}

// Explores one target; returns false when the explorer found failures.
bool ExploreTarget(const Target& target, const mc::McOptions& options,
                   const std::string& out_dir) {
  const mc::McReport report = mc::Explore(target.name, target.build, options);
  if (!WriteArtifact(kTool, out_dir + "/mc_" + target.name + ".json",
                     report.ToJson().Dump(2) + "\n")) {
    return false;
  }
  std::printf("%-26s %4d schedules %3d branch points %3d%% pruned  %s\n",
              target.name.c_str(), report.schedules_explored,
              report.branch_points, report.pruned_pct(),
              report.clean() ? "clean" : "FAILURES");
  for (const auto& f : report.failures) {
    std::printf("  [%s] schedule %d (%zu forced choice%s): %s\n",
                f.kind.c_str(), f.schedule, f.repro.size(),
                f.repro.size() == 1 ? "" : "s", f.detail.c_str());
    for (const auto& r : f.repro) {
      std::printf("    force decision %d (%s, subject %u) -> choice %d\n",
                  r.index, DecisionKindName(r.kind), r.subject, r.chosen);
    }
  }
  return report.clean();
}

int Mc(const std::vector<std::string>& args) {
  Selection selection;
  mc::McOptions options;
  std::string out_dir = ".";
  for (const std::string& arg : args) {
    const bool parsed =
        selection.Parse(arg) ||
        Switch(arg, "--inject-faults", &options.inject_faults) ||
        Count(arg, "--max-schedules=", &options.max_schedules) ||
        Count(arg, "--preempt-bound=", &options.preempt_bound) ||
        Count(arg, "--cycles=", &options.cycles) ||
        Text(arg, "--out-dir=", &out_dir);
    if (!parsed) {
      throw UsageError("unknown option " + arg);
    }
  }
  return ForEachTarget(kTool, selection, [&](const Target& t) {
    return ExploreTarget(t, options, out_dir);
  });
}

}  // namespace

Command McCommand() { return {"mc", Usage, Mc}; }

}  // namespace cheriot::tools
