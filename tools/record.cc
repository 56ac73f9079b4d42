// cheriot trace | health | flow | cov: run registry images with one recorder
// on and export what it saw. The four subcommands are rows of one table:
// each row says how to turn its recorder on (for a single Board and for a
// Fleet), which artifacts to write and what summary to print. Everything
// else — flags, the run schedule and --check — is shared:
//
//   --fleet=0 runs one Board; --fleet=N runs N boards under the fabric on
//   the chunked control-publish schedule (with --publishes=0 that is one
//   Fleet::Run). trace/health default to a board, flow/cov to 2 boards with
//   3 publishes (their recorders span a fleet, so they have no board mode).
//
//   --check re-runs with the recorder off and fails unless EVERY board's
//   fingerprint is unchanged (recorders cost zero guest cycles); for a fleet
//   it also re-runs at 1, 2 and 4 host workers and fails unless every
//   artifact is byte-identical. A row may add its own check (trace: each
//   board's attributed cycles equal its cycle counter).
#include <string>
#include <utility>
#include <vector>

#include "src/cov/coverage.h"
#include "src/cov/report.h"
#include "src/flow/flow.h"
#include "src/health/forensics.h"
#include "src/health/monitor.h"
#include "src/json/json.h"
#include "src/kernel/system.h"
#include "src/sim/fleet.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "tools/cli.h"

namespace cheriot::tools {
namespace {

struct Options {
  int fleet = 0;  // 0 = one board
  int host_threads = 1;
  int publishes = 0;
  Cycles cycles = 20'000'000;
  bool check = false;
  // Test hook: corrupt the last board's recorder-on fingerprint before the
  // --check comparison, so the mismatch path stays covered for every board.
  bool inject_check_failure = false;
  std::string out_dir = ".";
  // Row-specific; a row only accepts the flags in its `flags` mask.
  size_t ring = 0;
  bool scenes = false;
  Cycles metrics_interval = 1'000'000;
  bool no_granules = false;
  bool report = false;
};

enum Flag : unsigned {
  kRing = 1 << 0,
  kScenes = 1 << 1,
  kPublishes = 1 << 2,
  kMetricsInterval = 1 << 3,
  kNoGranules = 1 << 4,
  kReport = 1 << 5,
};

// What one run leaves behind.
struct Run {
  std::vector<sim::Board::Fingerprint> fingerprints;  // one per board
  std::vector<std::pair<std::string, std::string>> artifacts;  // file, bytes
  std::string summary;                     // printed after a recorder-on run
  std::vector<std::string> check_errors;   // the row's own --check failures
  std::string check_note;                  // appended to "check ok"
};

struct Recorder {
  const char* name;
  int default_fleet;
  int default_publishes;
  size_t default_ring;
  unsigned flags;
  const char* usage;  // the row's own options and its artifacts
  // Board mode; null for fleet-only recorders.
  void (*enable_board)(sim::Board&, const Options&);
  void (*collect_board)(const Target&, sim::Board&, const Options&, Run&);
  void (*enable_fleet)(sim::FleetOptions&, const Options&);
  void (*collect_fleet)(const Target&, sim::Fleet&, const Options&, Run&);
};

// printf of `name` and counts into a string.
template <typename... Counts>
std::string Line(const char* fmt, const std::string& name, Counts... n) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, name.c_str(),
                static_cast<unsigned long long>(n)...);
  return buf;
}

// --- trace ---------------------------------------------------------------

std::vector<trace::ThreadStackStats> StatsFor(System& sys) {
  std::vector<trace::ThreadStackStats> out;
  for (const GuestThread& t : sys.threads()) {
    out.push_back({t.name, t.stack_size, t.peak_stack_bytes,
                   t.compartment_calls});
  }
  return out;
}

// The profiler's invariant is per board: every guest cycle lands in exactly
// one bucket, so the attributed cycles must equal the board's counter.
void Attribute(size_t board, Cycles now, trace::TraceRecorder& tr,
               Cycles* counter, Cycles* attributed, Run& run) {
  *counter += now;
  *attributed += tr.attributed_cycles();
  if (tr.attributed_cycles() != now) {
    run.check_errors.push_back(
        "board " + std::to_string(board) + " attributed " +
        std::to_string(tr.attributed_cycles()) + " != cycle counter " +
        std::to_string(now));
  }
}

void TraceSummary(const std::string& name, Cycles now, uint64_t events,
                  uint64_t dropped, Cycles counter, Cycles attributed,
                  Run& run) {
  run.summary = Line("%-26s %12llu cycles %8llu events (%llu dropped)\n",
                     name, now, events, dropped);
  run.check_note = ", " + std::to_string(attributed) + "/" +
                   std::to_string(counter) + " cycles attributed";
}

void TraceBoard(const Target& t, sim::Board& board, const Options&,
                Run& run) {
  trace::TraceRecorder& tr = *board.trace_recorder();
  Cycles counter = 0;
  Cycles attributed = 0;
  Attribute(0, board.Now(), tr, &counter, &attributed, run);
  run.artifacts = {
      {"trace_" + t.name + ".json", trace::ChromeTrace(tr).Dump(2) + "\n"},
      {"metrics_" + t.name + ".json",
       trace::MetricsSnapshot(tr, StatsFor(board.system())).Dump(2) + "\n"},
      {"profile_" + t.name + ".txt",
       trace::ProfileText(tr) + "\n" + trace::CollapsedStacksText(tr)},
  };
  TraceSummary(t.name, board.Now(), tr.emitted(), tr.dropped(), counter,
               attributed, run);
}

void TraceFleet(const Target& t, sim::Fleet& fleet, const Options&,
                Run& run) {
  json::Array metrics;
  std::string profiles;
  uint64_t events = 0;
  uint64_t dropped = 0;
  Cycles counter = 0;
  Cycles attributed = 0;
  for (trace::TraceRecorder* tr : fleet.TraceRecorders()) {
    std::vector<trace::ThreadStackStats> stats;
    if (tr->board_index() >= 0) {
      const auto i = static_cast<size_t>(tr->board_index());
      sim::Board& b = fleet.board(i);
      stats = StatsFor(b.system());
      Attribute(i, b.Now(), *tr, &counter, &attributed, run);
    }
    events += tr->emitted();
    dropped += tr->dropped();
    metrics.push_back(trace::MetricsSnapshot(*tr, stats));
    profiles += trace::ProfileText(*tr) + "\n";
    profiles += trace::CollapsedStacksText(*tr) + "\n";
  }
  run.artifacts = {
      {"trace_" + t.name + ".json",
       trace::MergedChromeTrace(fleet.TraceRecorders()).Dump(2) + "\n"},
      {"metrics_" + t.name + ".json",
       json::Value(std::move(metrics)).Dump(2) + "\n"},
      {"profile_" + t.name + ".txt", std::move(profiles)},
  };
  TraceSummary(t.name, fleet.Now(), events, dropped, counter, attributed,
               run);
}

// --- health --------------------------------------------------------------

// Both modes: `report` plus every board's crash dump, crash scenes and
// health tally. A fleet separates the dumps with a blank line and prefixes
// scene names with the board index.
void Health(const Target& t, const std::vector<sim::Board*>& boards,
            const json::Value& report, Cycles now, const Options& opts,
            Run& run) {
  const bool fleet = opts.fleet > 0;
  uint64_t records = 0;
  uint64_t anomalies = 0;
  uint64_t scenes = 0;
  bool healthy = true;
  std::string crash_txt;
  for (size_t i = 0; i < boards.size(); ++i) {
    const health::BoardHealth h = health::AssessBoard(*boards[i]);
    records += h.crash_records;
    anomalies += h.anomalies.size();
    healthy = healthy && h.healthy;
    const health::ForensicsRecorder& fr = *boards[i]->forensics_recorder();
    crash_txt += health::CrashDumpText(fr) + (fleet ? "\n" : "");
    for (const auto& rec : fr.Records()) {
      if (!rec.scene.empty()) {
        ++scenes;
        run.artifacts.emplace_back(
            "scene_" + t.name + "_" +
                (fleet ? "b" + std::to_string(i) + "_" : "") +
                std::to_string(rec.seq) + ".snap",
            std::string(rec.scene.begin(), rec.scene.end()));
      }
    }
  }
  run.artifacts.emplace_back("health_" + t.name + ".json",
                             report.Dump(2) + "\n");
  run.artifacts.emplace_back("crash_" + t.name + ".txt", std::move(crash_txt));
  if (opts.scenes) {
    run.summary = Line("%-26s %llu crash scene(s) dumped\n", t.name, scenes);
  }
  run.summary += Line("%-26s %12llu cycles %5llu crash records %3llu "
                      "anomalies  ",
                      t.name, now, records, anomalies) +
                 (healthy ? "healthy\n" : "UNHEALTHY\n");
}

void HealthBoard(const Target& t, sim::Board& board, const Options& opts,
                 Run& run) {
  Health(t, {&board}, health::HealthReport(board), board.Now(), opts, run);
}

void HealthFleet(const Target& t, sim::Fleet& fleet, const Options& opts,
                 Run& run) {
  std::vector<sim::Board*> boards;
  for (size_t i = 0; i < fleet.size(); ++i) {
    boards.push_back(&fleet.board(i));
  }
  Health(t, boards, health::FleetHealthReport(fleet), fleet.Now(), opts, run);
}

// --- flow ----------------------------------------------------------------

void FlowFleet(const Target& t, sim::Fleet& fleet, const Options&, Run& run) {
  const flow::FlowRecorder& fr = *fleet.flow_recorder();
  run.artifacts = {
      {"flow_" + t.name + ".json", fr.FlowTableJson().Dump(2) + "\n"},
      {"flowhist_" + t.name + ".json", fr.HistogramsJson().Dump(2) + "\n"},
      {"fleetmetrics_" + t.name + ".json", fr.MetricsJson().Dump(2) + "\n"},
  };
  run.summary = Line(
      "%-26s %12llu cycles %6llu flows %6llu delivered %4llu dropped\n",
      t.name, fleet.Now(), fr.flow_count(), fr.deliveries(), fr.drops());
}

// --- cov -----------------------------------------------------------------

void CovFleet(const Target& t, sim::Fleet& fleet, const Options& opts,
              Run& run) {
  const std::vector<const cov::CovRecorder*> boards = fleet.CovRecorders();
  const std::string cov_json =
      cov::CoverageJson(fleet.board(0).system().boot().image.name, boards)
          .Dump(2) +
      "\n";
  uint64_t calls = 0;
  for (const cov::CovRecorder* r : boards) {
    calls += r->calls_recorded();
  }
  run.artifacts = {{"cov_" + t.name + ".json", cov_json}};
  run.summary = Line("%-26s %12llu cycles %8llu calls", t.name, fleet.Now(),
                     calls);
  if (opts.report) {
    const json::Value report =
        cov::LeastPrivilegeJson(AuditReport(t), json::Parse(cov_json));
    run.artifacts.emplace_back("covreport_" + t.name + ".json",
                               report.Dump(2) + "\n");
    run.artifacts.emplace_back("covreport_" + t.name + ".txt",
                               cov::LeastPrivilegeText(report));
    run.summary += "  " +
                   std::to_string(report["summary"]["warnings"].AsInt()) +
                   " warning(s)";
  }
  run.summary += "\n";
}

// --- the table -----------------------------------------------------------

const Recorder kRecorders[] = {
    {"trace", 0, 0, 1 << 16, kRing,
     "  --ring=N             ring capacity in events (default 65536)\n"
     "  --check              also: attributed cycles == each board's cycle\n"
     "                       counter\n"
     "\n"
     "artifacts (per target): trace_<name>.json  (Perfetto)\n"
     "                        profile_<name>.txt (table + stacks)\n"
     "                        metrics_<name>.json (schema v1)\n",
     [](sim::Board& b, const Options& o) {
       trace::TraceOptions t;
       t.ring_capacity = o.ring;
       b.EnableTrace(t);
     },
     TraceBoard,
     [](sim::FleetOptions& f, const Options& o) {
       f.trace = true;
       f.trace_options.ring_capacity = o.ring;
     },
     TraceFleet},
    {"health", 0, 0, 256, kRing | kScenes,
     "  --ring=N             crash-record ring capacity (default 256)\n"
     "  --scenes             capture a full machine-state scene at each\n"
     "                       crash and dump the blobs (inspect them with\n"
     "                       cheriot snap info/diff)\n"
     "\n"
     "artifacts (per target): health_<name>.json (schema v1)\n"
     "                        crash_<name>.txt   (crash dump)\n"
     "                        scene_<name>_*.snap (with --scenes)\n",
     [](sim::Board& b, const Options& o) {
       health::ForensicsOptions f;
       f.ring_capacity = o.ring;
       f.capture_crash_scene = o.scenes;
       b.EnableForensics(f);
     },
     HealthBoard,
     [](sim::FleetOptions& f, const Options& o) {
       f.forensics = true;
       f.forensics_options.ring_capacity = o.ring;
       f.forensics_options.capture_crash_scene = o.scenes;
     },
     HealthFleet},
    {"flow", 2, 3, 0, kPublishes | kMetricsInterval,
     "  --publishes=N        control MQTT publishes spread across the run\n"
     "                       (default 3)\n"
     "  --metrics-interval=N metrics sampling cadence in cycles\n"
     "                       (default 1000000)\n"
     "\n"
     "artifacts (per target): flow_<name>.json        (flow table)\n"
     "                        flowhist_<name>.json    (histograms)\n"
     "                        fleetmetrics_<name>.json (series)\n",
     nullptr, nullptr,
     [](sim::FleetOptions& f, const Options& o) {
       f.flow = true;
       f.flow_options.metrics_interval = o.metrics_interval;
     },
     FlowFleet},
    {"cov", 2, 3, 0, kPublishes | kNoGranules | kReport,
     "  --publishes=N        control MQTT publishes spread across the run\n"
     "                       (default 3)\n"
     "  --no-granules        disable per-granule MMIO bitmaps\n"
     "  --report             also emit the least-privilege report (static\n"
     "                       grants vs dynamic exercise)\n"
     "\n"
     "artifacts (per target): cov_<name>.json        (coverage)\n"
     "                        covreport_<name>.json  (--report)\n"
     "                        covreport_<name>.txt   (--report)\n",
     nullptr, nullptr,
     [](sim::FleetOptions& f, const Options& o) {
       f.cov = true;
       f.cov_options.mmio_granules = !o.no_granules;
     },
     CovFleet},
};

void Usage(const Recorder& rec, std::FILE* out) {
  std::fprintf(
      out,
      "usage: cheriot %s [--all | --target=NAME[,NAME...]] [options]\n"
      "\n"
      "  --list-targets       list the firmware images (shipped + seeded)\n"
      "  --all                run every shipped image\n"
      "  --target=NAME        run one image (repeatable; seeded images are\n"
      "                       addressed by name)\n"
      "  --cycles=N           guest cycles to run (default 20000000)\n"
      "  --fleet=N            boards under the fabric (default %d%s)\n"
      "  --host-threads=N     fleet worker threads (default 1; artifacts are\n"
      "                       identical for any value)\n"
      "  --out-dir=DIR        where to write artifacts (default .)\n"
      "  --check              verify the recorder moved no guest cycle on\n"
      "                       any board and, for a fleet, that the artifacts\n"
      "                       are byte-identical at 1/2/4 worker threads\n"
      "  --inject-check-failure  test hook: corrupt the last board's\n"
      "                       fingerprint so --check must fail\n"
      "%s",
      rec.name, rec.default_fleet,
      rec.enable_board != nullptr ? "; 0 = one board" : "", rec.usage);
}

Run RunOnce(const Recorder& rec, const Target& t, const Options& opts,
            bool on, int host_threads) {
  Run run;
  if (opts.fleet == 0) {
    sim::Board board(t.build(), {});
    if (on) {
      rec.enable_board(board, opts);
    }
    board.Boot();
    board.StepTo(opts.cycles);
    run.fingerprints.push_back(board.fingerprint());
    if (on) {
      rec.collect_board(t, board, opts, run);
    }
    return run;
  }
  sim::FleetOptions fopts;
  fopts.host_threads = host_threads;
  if (on) {
    rec.enable_fleet(fopts, opts);
  }
  sim::Fleet fleet(fopts);
  for (int i = 0; i < opts.fleet; ++i) {
    fleet.AddBoard(t.build());
  }
  fleet.Boot();
  // The same chunked schedule, with control publishes at fixed chunk
  // boundaries, whatever the recorder or worker count: every comparison is
  // like with like.
  const Cycles chunks = static_cast<Cycles>(opts.publishes) + 1;
  const Cycles chunk = opts.cycles / chunks;
  for (Cycles i = 0; i < chunks; ++i) {
    fleet.Run(i + 1 == chunks ? opts.cycles - chunk * (chunks - 1) : chunk);
    if (i + 1 < chunks) {
      const std::string payload = "cmd" + std::to_string(i);
      fleet.PublishMqtt("leds", net::Bytes(payload.begin(), payload.end()));
    }
  }
  run.fingerprints = fleet.Fingerprints();
  if (on) {
    rec.collect_fleet(t, fleet, opts, run);
  }
  return run;
}

// The generic --check over a recorder-on run; false on any failure.
bool Check(const std::string& tool, const Recorder& rec, const Target& t,
           const Options& opts, Run on) {
  if (opts.inject_check_failure) {
    ++on.fingerprints.back().uart_hash;
  }
  bool ok = true;
  for (const std::string& e : on.check_errors) {
    std::fprintf(stderr, "%s: %s: %s\n", tool.c_str(), t.name.c_str(),
                 e.c_str());
    ok = false;
  }
  const Run off = RunOnce(rec, t, opts, false, opts.host_threads);
  for (size_t b = 0; b < on.fingerprints.size(); ++b) {
    if (!(on.fingerprints[b] == off.fingerprints[b])) {
      std::fprintf(stderr,
                   "%s: %s: the recorder changed board %zu's fingerprint\n"
                   "  recorder on:  %s\n  recorder off: %s\n",
                   tool.c_str(), t.name.c_str(), b,
                   FormatFingerprint(on.fingerprints[b]).c_str(),
                   FormatFingerprint(off.fingerprints[b]).c_str());
      ok = false;
    }
  }
  if (opts.fleet > 0) {
    for (int threads : {1, 2, 4}) {
      if (threads != opts.host_threads &&
          RunOnce(rec, t, opts, true, threads).artifacts != on.artifacts) {
        std::fprintf(stderr,
                     "%s: %s: artifacts differ between %d and %d worker "
                     "threads\n",
                     tool.c_str(), t.name.c_str(), opts.host_threads,
                     threads);
        ok = false;
      }
    }
  }
  if (ok) {
    std::printf("%-26s check ok: fingerprints invariant on %zu board(s)%s%s\n",
                t.name.c_str(), on.fingerprints.size(),
                opts.fleet > 0 ? ", artifacts identical at 1/2/4 workers" : "",
                on.check_note.c_str());
  }
  return ok;
}

int RunRecorder(const Recorder& rec, const std::vector<std::string>& args) {
  const std::string tool = std::string("cheriot ") + rec.name;
  Options opts;
  opts.fleet = rec.default_fleet;
  opts.publishes = rec.default_publishes;
  opts.ring = rec.default_ring;
  Selection selection;
  for (const std::string& arg : args) {
    const bool parsed =
        selection.Parse(arg) || Switch(arg, "--check", &opts.check) ||
        Switch(arg, "--inject-check-failure", &opts.inject_check_failure) ||
        Count(arg, "--cycles=", &opts.cycles) ||
        Count(arg, "--fleet=", &opts.fleet) ||
        Count(arg, "--host-threads=", &opts.host_threads) ||
        Text(arg, "--out-dir=", &opts.out_dir) ||
        ((rec.flags & kRing) && Count(arg, "--ring=", &opts.ring)) ||
        ((rec.flags & kScenes) && Switch(arg, "--scenes", &opts.scenes)) ||
        ((rec.flags & kPublishes) &&
         Count(arg, "--publishes=", &opts.publishes)) ||
        ((rec.flags & kMetricsInterval) &&
         Count(arg, "--metrics-interval=", &opts.metrics_interval)) ||
        ((rec.flags & kNoGranules) &&
         Switch(arg, "--no-granules", &opts.no_granules)) ||
        ((rec.flags & kReport) && Switch(arg, "--report", &opts.report));
    if (!parsed) {
      throw UsageError("unknown option " + arg);
    }
  }
  if (opts.fleet == 0 && rec.enable_board == nullptr && !selection.list) {
    throw UsageError(std::string(rec.name) +
                     " records across boards: --fleet must be at least 1");
  }
  return ForEachTarget(tool, selection, [&](const Target& t) {
    Run on = RunOnce(rec, t, opts, true, opts.host_threads);
    for (const auto& [file, bytes] : on.artifacts) {
      if (!WriteArtifact(tool, opts.out_dir + "/" + file, bytes)) {
        return false;
      }
    }
    std::printf("%s", on.summary.c_str());
    return !opts.check || Check(tool, rec, t, opts, std::move(on));
  });
}

}  // namespace

std::vector<Command> RecorderCommands() {
  std::vector<Command> out;
  for (const Recorder& rec : kRecorders) {
    out.push_back({rec.name,
                   [&rec](std::FILE* f) { Usage(rec, f); },
                   [&rec](const std::vector<std::string>& args) {
                     return RunRecorder(rec, args);
                   }});
  }
  return out;
}

}  // namespace cheriot::tools
