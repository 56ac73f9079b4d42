// cheriot snap: save, restore, inspect and compare deterministic machine
// snapshots (DESIGN.md §10) of the registry images. A snapshot records everything the simulation is a function
// of — SRAM + tag bitmaps, kernel/scheduler/allocator state, device queues
// and the replay log of external inputs — so `restore` rebuilds the exact
// machine (Restore self-verifies byte-for-byte) and can keep running it.
//
//   save     run a target for --cycles and write the snapshot blob
//   restore  rebuild a board (or fleet) from a blob, optionally run further
//   info     print a blob's header, flags and section sizes
//   diff     byte-compare two blobs section by section
//
// Exit codes: 0 ok (diff: identical), 1 snapshots differ or verify failed,
// 2 usage or load failure.
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "src/snap/diff.h"
#include "src/snap/snapshot.h"
#include "tools/cli.h"

namespace cheriot::tools {
namespace {

constexpr const char kTool[] = "cheriot snap";

struct SnapArgs {
  std::string target;
  std::string in_path;
  std::string out_path;
  std::string a_path;
  std::string b_path;
  Cycles cycles = 0;
  int fleet = 0;         // 0 = single board
  int host_threads = 1;  // fleet restore worker threads
  bool trace = false;
  bool forensics = false;
};

void Usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: cheriot snap <command> [options]\n"
      "\n"
      "commands:\n"
      "  save     --target=NAME --out=FILE [--cycles=N] [--fleet=N]\n"
      "           [--trace] [--forensics]\n"
      "  restore  --target=NAME --in=FILE [--cycles=N] [--host-threads=N]\n"
      "  info     --in=FILE\n"
      "  diff     --a=FILE --b=FILE\n"
      "  list-targets\n"
      "\n"
      "  --target=NAME      a registry image (see list-targets)\n"
      "  --cycles=N         save: cycles to run before snapshotting\n"
      "                     restore: extra cycles to run after restoring\n"
      "                     (default 20000000 / 0)\n"
      "  --fleet=N          snapshot a fleet of N boards of the image\n"
      "  --host-threads=N   fleet restore worker threads (default 1; the\n"
      "                     restored state is identical for any value)\n"
      "  --trace/--forensics  attach recorders before boot (save only)\n");
}

bool ReadBlob(const std::string& path, std::vector<uint8_t>& out) {
  std::string bytes;
  if (!ReadFile(path, &bytes)) {
    std::fprintf(stderr, "%s: cannot read %s\n", kTool, path.c_str());
    return false;
  }
  out.assign(bytes.begin(), bytes.end());
  return true;
}

void PrintFingerprint(const char* label, const sim::Board::Fingerprint& f) {
  std::printf("%s %s\n", label, FormatFingerprint(f).c_str());
}

const Target& NeedTarget(const std::string& name) {
  const Target* t = FindTarget(name);
  if (t == nullptr) {
    throw UsageError("unknown target '" + name + "' (list-targets)");
  }
  return *t;
}

std::string FlagNames(uint32_t flags) {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) {
      out += ",";
    }
    out += name;
  };
  if (flags & snap::kColdRestorable) add("cold-restorable");
  if (flags & snap::kHasReplayLog) add("replay-log");
  if (flags & snap::kHasTrace) add("trace");
  if (flags & snap::kHasForensics) add("forensics");
  if (flags & snap::kEmbedded) add("embedded");
  return out.empty() ? "none" : out;
}

const char* KindName(uint8_t kind) {
  switch (kind) {
    case snap::kBoard: return "board";
    case snap::kFleet: return "fleet";
    case snap::kScene: return "crash-scene";
  }
  return "unknown";
}

int CmdSave(const SnapArgs& opts) {
  if (opts.out_path.empty()) {
    throw UsageError("save needs --out");
  }
  const Target& t = NeedTarget(opts.target);
  std::vector<uint8_t> blob;
  if (opts.fleet > 0) {
    sim::FleetOptions fopts;
    fopts.trace = opts.trace;
    fopts.forensics = opts.forensics;
    sim::Fleet fleet(fopts);
    for (int i = 0; i < opts.fleet; ++i) {
      fleet.AddBoard(t.build());
    }
    fleet.Boot();
    fleet.Run(opts.cycles);
    fleet.Snapshot(blob);
    std::printf("%s: fleet of %d at cycle %llu -> %s (%zu bytes)\n",
                opts.target.c_str(), opts.fleet,
                static_cast<unsigned long long>(fleet.Now()),
                opts.out_path.c_str(), blob.size());
  } else {
    sim::Board board(t.build(), {});
    if (opts.trace) {
      board.EnableTrace();
    }
    if (opts.forensics) {
      board.EnableForensics();
    }
    board.Boot();
    if (opts.cycles > 0) {
      board.StepTo(opts.cycles);
    }
    board.Snapshot(blob);
    PrintFingerprint("saved state:", board.fingerprint());
    std::printf("%s: board at cycle %llu -> %s (%zu bytes)\n",
                opts.target.c_str(),
                static_cast<unsigned long long>(board.Now()),
                opts.out_path.c_str(), blob.size());
  }
  return WriteArtifact(kTool, opts.out_path,
                       std::string(blob.begin(), blob.end()))
             ? 0
             : 2;
}

int CmdRestore(const SnapArgs& opts) {
  if (opts.in_path.empty()) {
    throw UsageError("restore needs --in");
  }
  const Target& t = NeedTarget(opts.target);
  std::vector<uint8_t> blob;
  if (!ReadBlob(opts.in_path, blob)) {
    return 2;
  }
  const snap::Container c = snap::Container::Parse(blob);
  if (c.kind == snap::kFleet) {
    auto fleet = sim::Fleet::Restore(
        blob, [&](int) { return t.build(); }, opts.host_threads);
    std::printf("restored fleet of %zu at cycle %llu (verified)\n",
                fleet->size(),
                static_cast<unsigned long long>(fleet->Now()));
    if (opts.cycles > 0) {
      fleet->Run(opts.cycles);
    }
    for (const auto& f : fleet->Fingerprints()) {
      PrintFingerprint("  board:", f);
    }
  } else {
    auto board = sim::Board::Restore(blob, t.build());
    std::printf("restored board at cycle %llu (verified, %s)\n",
                static_cast<unsigned long long>(board->Now()),
                (c.flags & snap::kColdRestorable) ? "cold path"
                                                  : "replay path");
    if (opts.cycles > 0) {
      board->StepTo(board->Now() + opts.cycles);
    }
    PrintFingerprint("restored state:", board->fingerprint());
  }
  return 0;
}

int CmdInfo(const SnapArgs& opts) {
  if (opts.in_path.empty()) {
    throw UsageError("info needs --in");
  }
  std::vector<uint8_t> blob;
  if (!ReadBlob(opts.in_path, blob)) {
    return 2;
  }
  const snap::Container c = snap::Container::Parse(blob);
  std::printf("%s: %s snapshot, flags [%s], %zu sections, %zu bytes\n",
              opts.in_path.c_str(), KindName(c.kind),
              FlagNames(c.flags).c_str(), c.sections.size(), blob.size());
  for (const auto& s : c.sections) {
    std::printf("  %-4s %12zu bytes\n", snap::SectionName(s.id).c_str(),
                s.body.size());
  }
  return 0;
}

int CmdDiff(const SnapArgs& opts) {
  if (opts.a_path.empty() || opts.b_path.empty()) {
    throw UsageError("diff needs --a and --b");
  }
  std::vector<uint8_t> ab;
  std::vector<uint8_t> bb;
  if (!ReadBlob(opts.a_path, ab) || !ReadBlob(opts.b_path, bb)) {
    return 2;
  }
  const snap::BlobDiff d = snap::DiffBlobs(ab, bb);
  if (d.header_differs) {
    std::printf("header differs: %s\n", d.header_detail.c_str());
  }
  for (const snap::SectionDiff& sd : d.divergent) {
    if (sd.only_in_a || sd.only_in_b) {
      std::printf("  %-4s only in %s\n", sd.name.c_str(),
                  sd.only_in_a ? "A" : "B");
    } else {
      std::printf(
          "  %-4s differs at body byte %zu (abs %zu vs %zu; %zu vs %zu "
          "bytes)\n",
          sd.name.c_str(), sd.first_diff_offset, sd.abs_offset_a,
          sd.abs_offset_b, sd.size_a, sd.size_b);
    }
  }
  if (d.equal) {
    std::printf("snapshots identical\n");
  } else {
    std::printf("first divergence: %s\n", d.summary.c_str());
  }
  return d.equal ? 0 : 1;
}

int Snap(const std::vector<std::string>& args) {
  const std::string command = args.empty() ? "" : args[0];
  SnapArgs opts;
  // save runs the image first; restore by default only rebuilds and
  // verifies.
  opts.cycles = command == "restore" ? 0 : 20'000'000;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool parsed = Text(arg, "--target=", &opts.target) ||
                        Text(arg, "--in=", &opts.in_path) ||
                        Text(arg, "--out=", &opts.out_path) ||
                        Text(arg, "--a=", &opts.a_path) ||
                        Text(arg, "--b=", &opts.b_path) ||
                        Count(arg, "--cycles=", &opts.cycles) ||
                        Count(arg, "--fleet=", &opts.fleet) ||
                        Count(arg, "--host-threads=", &opts.host_threads) ||
                        Switch(arg, "--trace", &opts.trace) ||
                        Switch(arg, "--forensics", &opts.forensics);
    if (!parsed) {
      throw UsageError("unknown option " + arg);
    }
  }
  try {
    if (command == "list-targets") {
      PrintTargets();
      return 0;
    }
    if (command == "save") {
      return CmdSave(opts);
    }
    if (command == "restore") {
      return CmdRestore(opts);
    }
    if (command == "info") {
      return CmdInfo(opts);
    }
    if (command == "diff") {
      return CmdDiff(opts);
    }
  } catch (const snap::SnapshotError& e) {
    std::fprintf(stderr, "%s: %s\n", kTool, e.what());
    return 1;
  }
  throw UsageError(command.empty() ? "no command given"
                                   : "unknown command " + command);
}

}  // namespace

Command SnapCommand() { return {"snap", Usage, Snap}; }

}  // namespace cheriot::tools
