#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "src/base/costs.h"
#include "src/cov/report.h"
#include "src/flow/flow.h"
#include "src/mc/explorer.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"
#include "src/trace/export.h"
#include "hostspeed.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

using cheriot::Cycles;
namespace sim = cheriot::sim;
namespace mc = cheriot::mc;
using Clock = std::chrono::steady_clock;

constexpr Cycles kHz = cheriot::cost::kCoreHz;
// Set-up samples per repetition. One fleet set-up lasts ~10-50 ms, the
// explorer's root well under 1 ms, so mc takes more samples.
constexpr int kSetupSamples = 5;
constexpr int kMcSetupSamples = 20;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  return v[std::clamp<size_t>(static_cast<size_t>(rank), 1, v.size()) - 1];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// 64-bit FNV-1a, the digest every workload reports.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      AddByte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Add(const std::string& bytes) {
    for (unsigned char c : bytes) {
      AddByte(c);
    }
  }
  uint64_t value() const { return h_; }

 private:
  void AddByte(uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  uint64_t h_ = 1469598103934665603ull;
};

// splitmix64: the only source of randomness in workload inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  uint64_t Uniform(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }

 private:
  uint64_t s_;
};

// --- Fleet workloads -------------------------------------------------------

struct FleetSpec {
  int host_threads = 1;   // the timed configuration
  int check_threads = 1;  // worker count of the recorders-off cross-check
  Cycles horizon = 0;     // simulated time every run covers
  Cycles slice = 0;       // traced-mode fleet.run slice (divides horizon)
  bool recorders = false;
  std::vector<sim::FleetAppOptions> apps;  // generated from the seed
};

// The seed assigns a fixed multiset of per-board values to the boards: `n`
// evenly spaced values over [lo, hi], shuffled. Which board publishes how
// much (or polls how often) changes with the seed; the total work does not,
// so work per host second compares across seeds.
std::vector<uint64_t> Shuffled(uint64_t seed, int n, uint64_t lo,
                               uint64_t hi) {
  std::vector<uint64_t> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(lo + (hi - lo) * static_cast<uint64_t>(i) /
                         static_cast<uint64_t>(n - 1));
  }
  Rng rng(seed);
  for (size_t i = v.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(v[i], v[rng.Uniform(0, i)]);
  }
  return v;
}

// 32 boards on 2 workers, each publishing a burst of 1500..2500 MQTT
// messages. With every board at 2500 the last one finishes at 1.34 guest s,
// so the 1.5 s horizon covers every assignment.
FleetSpec BusySpec(uint64_t seed) {
  FleetSpec s;
  s.host_threads = 2;
  s.check_threads = 1;
  s.horizon = 3 * kHz / 2;
  s.slice = s.horizon / 150;
  const std::vector<uint64_t> publishes = Shuffled(seed, 32, 1500, 2500);
  for (int i = 0; i < 32; ++i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    app.busy_publishes = static_cast<int>(publishes[i]);
    s.apps.push_back(app);
  }
  return s;
}

// 128 boards on 1 worker at telemetry cadence: a 2..6 guest-second poll
// interval each, run for 10 guest minutes. The scratch prototype ran 30; a
// third of that keeps one repetition near a host second, so a run's median
// rests on a dozen or more repetitions rather than 4-5.
FleetSpec IdleSpec(uint64_t seed) {
  FleetSpec s;
  s.host_threads = 1;
  s.check_threads = 2;
  s.horizon = 600 * kHz;
  s.slice = 10 * kHz;
  const std::vector<uint64_t> polls = Shuffled(seed, 128, 2 * kHz, 6 * kHz);
  for (int i = 0; i < 128; ++i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    app.poll_timeout = polls[i];
    s.apps.push_back(app);
  }
  return s;
}

// A smaller fleet_busy (16 boards, 225..375 publishes, done by 0.44 guest s)
// with every recorder on. Not sliced when traced: the flow recorder samples
// metrics at the first barrier after each interval, so extra barriers would
// change the flow-metrics export.
FleetSpec ObserveSpec(uint64_t seed) {
  FleetSpec s;
  s.host_threads = 2;
  s.check_threads = 1;
  s.horizon = kHz / 2;
  s.slice = 0;
  s.recorders = true;
  const std::vector<uint64_t> publishes = Shuffled(seed, 16, 225, 375);
  for (int i = 0; i < 16; ++i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    app.busy_publishes = static_cast<int>(publishes[i]);
    s.apps.push_back(app);
  }
  return s;
}

// Every per-layer count, read from public getters. Guest counts are summed
// over boards; fleet, fabric and gateway counts are fleet-wide.
#define PERFBENCH_COUNTERS(X)                                              \
  X(cycles) X(idle_cycles) X(accesses) X(cap_loads) X(cap_stores) X(traps) \
  X(calls) X(futex_waits) X(allocations) X(quota_denials)                  \
  X(revoker_epochs) X(barriers) X(frames) X(boards_stepped)                \
  X(boards_skipped) X(fabric_switched) X(fabric_flooded) X(publishes)      \
  X(guest_frames) X(tcp_drops) X(dhcp_acks)

struct Counters {
#define PERFBENCH_FIELD(n) uint64_t n = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD
};

Counters Delta(const Counters& after, const Counters& before) {
  Counters d;
#define PERFBENCH_SUB(n) d.n = after.n - before.n;
  PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

Counters Harvest(sim::Fleet& fleet) {
  Counters c;
  for (size_t i = 0; i < fleet.size(); ++i) {
    sim::Board& b = fleet.board(i);
    cheriot::System& sys = b.system();
    cheriot::Memory& mem = b.machine().memory();
    c.cycles += b.Now();
    c.idle_cycles += sys.sched().idle_cycles();
    c.accesses += mem.access_count();
    c.cap_loads += mem.cap_load_count();
    c.cap_stores += mem.cap_store_count();
    c.traps += sys.switcher().trap_count();
    for (const cheriot::GuestThread& t : sys.threads()) {
      c.calls += t.compartment_calls;
    }
    c.futex_waits += sys.sched().futex_waits();
    c.allocations += sys.alloc().allocation_count();
    c.quota_denials += sys.alloc().quota_denials();
    c.revoker_epochs += b.machine().revoker().epoch();
  }
  c.barriers = fleet.barriers();
  c.frames = fleet.frames_exchanged();
  c.boards_stepped = fleet.boards_stepped();
  c.boards_skipped = fleet.boards_skipped();
  c.fabric_switched = fleet.fabric().frames_switched();
  c.fabric_flooded = fleet.fabric().frames_flooded();
  const cheriot::net::Gateway& gw = fleet.gateway();
  c.publishes = gw.mqtt_publishes_received();
  c.guest_frames = gw.frames_from_guest();
  c.tcp_drops = gw.tcp_segments_dropped();
  c.dhcp_acks = gw.dhcp_acks_sent();
  return c;
}

struct LiveFleet {
  std::unique_ptr<sim::Fleet> fleet;
  std::vector<std::shared_ptr<sim::FleetAppState>> states;
};

LiveFleet BuildFleet(const FleetSpec& spec, int host_threads, bool recorders) {
  LiveFleet lf;
  sim::FleetOptions options;
  options.host_threads = host_threads;
  options.trace = recorders;
  options.forensics = recorders;
  options.flow = recorders;
  options.cov = recorders;
  lf.fleet = std::make_unique<sim::Fleet>(options);
  for (const sim::FleetAppOptions& app : spec.apps) {
    auto state = std::make_shared<sim::FleetAppState>();
    lf.fleet->AddBoard(sim::BuildFleetAppImage(state, app));
    lf.states.push_back(std::move(state));
  }
  lf.fleet->Boot();
  return lf;
}

struct ExportStat {
  std::string family;
  double seconds = 0;
  uint64_t bytes = 0;
};

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.close();
  if (!f) {
    throw std::runtime_error("cannot write " + path);
  }
}

using Files = std::vector<std::pair<std::string, std::string>>;

// Everything the trace, flow and cov tools write for a fleet, each family
// timed as one span. The files' bytes are appended to `written` so the caller
// can digest them outside the timed region.
std::vector<ExportStat> ExportAll(LiveFleet& lf, SpanLog* spans,
                                  const std::string& dir,
                                  std::vector<std::string>& written) {
  sim::Fleet& fleet = *lf.fleet;
  std::vector<ExportStat> stats;
  auto family = [&](const std::string& name, auto&& produce) {
    ScopedSpan span(spans, "export." + name, "export");
    const Clock::time_point t0 = Clock::now();
    ExportStat st;
    st.family = name;
    for (auto& [file, bytes] : produce()) {
      WriteFile(dir + "/" + file, bytes);
      st.bytes += bytes.size();
      written.push_back(std::move(bytes));
    }
    st.seconds = SecondsSince(t0);
    stats.push_back(st);
  };
  family("trace", [&] {
    Files out;
    out.emplace_back(
        "trace.json",
        cheriot::trace::MergedChromeTrace(fleet.TraceRecorders()).Dump(2));
    cheriot::json::Array metrics;
    for (cheriot::trace::TraceRecorder* tr : fleet.TraceRecorders()) {
      std::vector<cheriot::trace::ThreadStackStats> threads;
      if (tr->board_index() >= 0) {
        sim::Board& b = fleet.board(static_cast<size_t>(tr->board_index()));
        for (const cheriot::GuestThread& t : b.system().threads()) {
          threads.push_back({t.name, t.stack_size, t.peak_stack_bytes,
                             t.compartment_calls});
        }
      }
      metrics.push_back(cheriot::trace::MetricsSnapshot(*tr, threads));
    }
    out.emplace_back("metrics.json",
                     cheriot::json::Value(std::move(metrics)).Dump(2));
    return out;
  });
  family("flow", [&] {
    cheriot::flow::FlowRecorder* fr = fleet.flow_recorder();
    return Files{{"flow_table.json", fr->FlowTableJson().Dump(2)},
                 {"flow_histograms.json", fr->HistogramsJson().Dump(2)},
                 {"flow_metrics.json", fr->MetricsJson().Dump(2)}};
  });
  family("cov", [&] {
    return Files{
        {"cov.json",
         cheriot::cov::CoverageJson("fleet-node", fleet.CovRecorders())
             .Dump(2)}};
  });
  return stats;
}

struct FleetRep {
  double setup_s = 0;
  double run_s = 0;
  double export_s = 0;
  int region_span = -1;
  Counters delta;
  uint64_t fingerprint_digest = 0;  // per-board Fingerprints, board order
  uint64_t digest = 0;              // fingerprints + export bytes
  std::vector<bool> goal_met;       // per board
  std::vector<double> slice_s;      // traced: host time of each fleet.run
  std::vector<uint64_t> slice_barriers;
  std::vector<ExportStat> exports;
  uint64_t trace_events = 0;
  uint64_t flows = 0;

  double region_s() const { return run_s + export_s; }
};

// One construct + Boot + run-to-horizon (+ exports when recording).
FleetRep RunFleetRep(const FleetSpec& spec, int host_threads, bool recorders,
                     bool sliced, SpanLog* spans, const std::string& out_dir) {
  FleetRep rep;
  const Clock::time_point t0 = Clock::now();
  LiveFleet lf;
  {
    ScopedSpan span(spans, "setup", "loader");
    lf = BuildFleet(spec, host_threads, recorders);
  }
  rep.setup_s = SecondsSince(t0);
  sim::Fleet& fleet = *lf.fleet;
  Counters before;
  {
    ScopedSpan span(spans, "harvest", "bench");
    before = Harvest(fleet);
  }
  std::vector<std::string> exported;
  {
    ScopedSpan region(spans, "region", "bench");
    rep.region_span = region.id();
    const Clock::time_point t1 = Clock::now();
    if (sliced) {
      for (Cycles done = 0; done < spec.horizon; done += spec.slice) {
        const uint64_t b0 = fleet.barriers();
        const Clock::time_point ts = Clock::now();
        {
          ScopedSpan span(spans, "fleet.run", "sim");
          fleet.Run(spec.slice);
        }
        rep.slice_s.push_back(SecondsSince(ts));
        rep.slice_barriers.push_back(fleet.barriers() - b0);
      }
    } else {
      ScopedSpan span(spans, "fleet.run", "sim");
      fleet.Run(spec.horizon);
    }
    rep.run_s = SecondsSince(t1);
    if (recorders) {
      const Clock::time_point t2 = Clock::now();
      rep.exports = ExportAll(lf, spans, out_dir, exported);
      rep.export_s = SecondsSince(t2);
    }
  }
  {
    ScopedSpan span(spans, "harvest", "bench");
    rep.delta = Delta(Harvest(fleet), before);
  }
  for (size_t i = 0; i < lf.states.size(); ++i) {
    const sim::FleetAppState& st = *lf.states[i];
    rep.goal_met.push_back(st.connected && !st.failed &&
                           st.publishes == 1 + spec.apps[i].busy_publishes);
  }
  Digest d;
  for (const sim::Board::Fingerprint& fp : fleet.Fingerprints()) {
    for (uint64_t v : {fp.now, fp.accesses, fp.cap_loads, fp.cap_stores,
                       fp.traps, fp.idle_cycles, fp.uart_bytes, fp.uart_hash,
                       static_cast<uint64_t>(fp.reboots)}) {
      d.Add(v);
    }
  }
  rep.fingerprint_digest = d.value();
  if (recorders) {
    for (const std::string& bytes : exported) {
      d.Add(bytes);
    }
    for (cheriot::trace::TraceRecorder* tr : fleet.TraceRecorders()) {
      rep.trace_events += tr->emitted();
    }
    rep.flows = fleet.flow_recorder()->flow_count();
  }
  rep.digest = d.value();
  return rep;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Failures of one repetition: every board that missed its goal, and a digest
// that differs from the recorded one (default seed) or from the first
// repetition's (any seed).
void CheckDigest(const RunConfig& cfg, uint64_t digest, uint64_t first,
                 Outcome& out) {
  if (cfg.expect_digest) {
    out.Check(digest == *cfg.expect_digest,
              "guest digest " + Hex(digest) + " != recorded " +
                  Hex(*cfg.expect_digest));
  } else {
    out.Check(digest == first, "guest digest " + Hex(digest) +
                                   " differs from the first repetition's " +
                                   Hex(first));
  }
}

void CheckGoals(const FleetRep& rep, Outcome& out) {
  for (size_t i = 0; i < rep.goal_met.size(); ++i) {
    out.Check(rep.goal_met[i], "board " + std::to_string(i) +
                                   " missed its goal");
  }
}

// Ends a traced invocation: the overhead metric, both self-time tables and
// the span files.
void ReportTrace(const SpanLog& log, int region, const std::string& region_what,
                 int all, double traced_s, double plain_s,
                 const RunConfig& cfg, Outcome& out) {
  const double overhead = traced_s / plain_s - 1.0;
  out.Add("tracing.overhead", overhead, "ratio");
  std::printf("%s traced region (%s), per-layer self time:\n%s",
              cfg.workload.c_str(), region_what.c_str(),
              log.SelfTimeTable(region).c_str());
  std::printf("%s whole traced invocation:\n%s", cfg.workload.c_str(),
              log.SelfTimeTable(all).c_str());
  std::printf("tracing overhead: traced %.4f s vs plain %.4f s (%+.2f%%)\n",
              traced_s, plain_s, 100.0 * overhead);
  if (!log.WriteJson(cfg.out_dir + "/spans_" + cfg.workload + ".json") ||
      !log.WriteChromeTrace(cfg.out_dir + "/spans_" + cfg.workload +
                            ".trace.json")) {
    throw std::runtime_error("cannot write the span files");
  }
}

void RunFleetWorkload(const FleetSpec& spec, const RunConfig& cfg,
                      Outcome& out) {
  const size_t boards = spec.apps.size();
  const double nboards = static_cast<double>(boards);
  if (!cfg.trace) {
    std::vector<double> setup, cycles_rate, schedules_rate;
    uint64_t first = 0;
    uint64_t first_fingerprints = 0;
    // Warm-up: one repetition, checked but not timed, so the timed ones
    // start with a warm heap (see KeepFreedMemory in main.cc) and caches.
    {
      const FleetRep warm = RunFleetRep(spec, spec.host_threads,
                                        spec.recorders, false, nullptr,
                                        cfg.out_dir);
      first = warm.digest;
      first_fingerprints = warm.fingerprint_digest;
      out.digest = warm.digest;
      CheckGoals(warm, out);
      CheckDigest(cfg, warm.digest, first, out);
    }
    HostSpeed host(spec.host_threads);
    std::vector<double> host_cycles_rate;  // uncorrected, for the report
    const Clock::time_point start = Clock::now();
    do {
      const double before = host.Slowdown();
      const FleetRep rep = RunFleetRep(spec, spec.host_threads, spec.recorders,
                                       false, nullptr, cfg.out_dir);
      std::vector<double> rep_setup = {rep.setup_s};
      // Set-up is short, so take more samples of it than of the run.
      for (int i = 1; i < kSetupSamples; ++i) {
        const Clock::time_point t0 = Clock::now();
        const LiveFleet extra =
            BuildFleet(spec, spec.host_threads, spec.recorders);
        rep_setup.push_back(SecondsSince(t0));
      }
      const double slow = HostSpeed::Around(before, host.Slowdown());
      CheckGoals(rep, out);
      CheckDigest(cfg, rep.digest, first, out);
      const double cycles = static_cast<double>(rep.delta.cycles);
      const double region_ref_s = rep.region_s() / slow;
      cycles_rate.push_back(cycles / region_ref_s);
      schedules_rate.push_back(nboards / region_ref_s);
      host_cycles_rate.push_back(cycles / rep.region_s());
      for (double s : rep_setup) {
        setup.push_back(s / slow);
      }
      std::printf("  rep %zu: region %.4f s (run %.4f + export %.4f), "
                  "setup %.4f s; host slowdown %.3f, so region %.4f ref s\n",
                  cycles_rate.size(), rep.region_s(), rep.run_s,
                  rep.export_s, rep.setup_s, slow, region_ref_s);
    } while (SecondsSince(start) < cfg.seconds);
    // Worker-count (and, on observe, recorders-off) cross-check.
    const FleetRep check = RunFleetRep(spec, spec.check_threads, false, false,
                                       nullptr, cfg.out_dir);
    CheckGoals(check, out);
    out.Check(check.fingerprint_digest == first_fingerprints,
              "fingerprints differ between " +
                  std::to_string(spec.check_threads) + " and " +
                  std::to_string(spec.host_threads) + " workers" +
                  (spec.recorders ? " (recorders off vs on)" : ""));
    std::printf("%s: %zu timed repetitions of %zu boards; sim_cycles_per_s "
                "median %.6g per ref s, %.6g per host s\n",
                cfg.workload.c_str(), cycles_rate.size(), boards,
                Median(cycles_rate), Median(host_cycles_rate));
    out.Add("sim_cycles_per_s", Median(cycles_rate), "1/s");
    out.Add("schedules_per_s", Median(schedules_rate), "1/s");
    out.Add("setup_s", Median(setup), "s");
    return;
  }

  // Traced: one plain repetition, the same repetition with spans (sliced on
  // fleet_busy / fleet_idle), then the cross-check runs and the probes.
  SpanLog log(cfg.workload);
  HostSpeed host(spec.host_threads);
  const double before = host.Slowdown();
  const FleetRep plain = RunFleetRep(spec, spec.host_threads, spec.recorders,
                                     false, nullptr, cfg.out_dir);
  out.Add("host.slowdown", HostSpeed::Around(before, host.Slowdown()),
          "ratio");
  out.digest = plain.digest;
  CheckGoals(plain, out);
  CheckDigest(cfg, plain.digest, plain.digest, out);
  int all = -1;
  FleetRep traced;
  {
    ScopedSpan top(&log, cfg.workload, "bench");
    all = top.id();
    traced = RunFleetRep(spec, spec.host_threads, spec.recorders,
                         spec.slice != 0, &log, cfg.out_dir);
    RunProbes(&log, out);
  }
  out.Check(traced.digest == plain.digest,
            "tracing/slicing moved the guest digest: " + Hex(traced.digest) +
                " != " + Hex(plain.digest));
  const FleetRep check = RunFleetRep(spec, spec.check_threads, false, false,
                                     nullptr, cfg.out_dir);
  CheckGoals(check, out);
  out.Check(check.fingerprint_digest == plain.fingerprint_digest,
            "fingerprints differ across worker counts or recorders on/off");
  // Recorders off at the timed worker count: plain itself, except on observe.
  const FleetRep off = spec.recorders
                           ? RunFleetRep(spec, spec.host_threads, false, false,
                                         nullptr, cfg.out_dir)
                           : plain;
  out.Check(off.fingerprint_digest == plain.fingerprint_digest,
            "fingerprints differ with recorders off");

  const Counters& c = plain.delta;
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.Add("fleet.barriers", d(c.barriers), "count");
  out.Add("fleet.frames", d(c.frames), "count");
  out.Add("fleet.boards_stepped", d(c.boards_stepped), "count");
  out.Add("fleet.boards_skipped", d(c.boards_skipped), "count");
  out.Add("fleet.park_ratio",
          ratio(d(c.boards_skipped), d(c.boards_stepped + c.boards_skipped)),
          "ratio");
  out.Add("fleet.us_per_board_step", 1e6 * ratio(plain.run_s, d(c.boards_stepped)),
          "us");
  std::vector<double> per_barrier;
  for (size_t i = 0; i < traced.slice_s.size(); ++i) {
    per_barrier.push_back(1e6 * traced.slice_s[i] /
                          d(traced.slice_barriers[i]));
  }
  if (per_barrier.empty()) {  // unsliced: the whole run is one sample
    per_barrier.push_back(1e6 * ratio(traced.run_s, d(traced.delta.barriers)));
  }
  out.Add("fleet.us_per_barrier_p50", Percentile(per_barrier, 0.5), "us");
  out.Add("fleet.us_per_barrier_p90", Percentile(per_barrier, 0.9), "us");
  out.Add("fleet.slices", d(per_barrier.size()), "count");
  const FleetRep& one = spec.host_threads == 1 ? off : check;
  const FleetRep& two = spec.host_threads == 1 ? check : off;
  out.Add("fleet.worker_speedup", ratio(one.run_s, two.run_s), "ratio");
  out.Add("fabric.frames_switched", d(c.fabric_switched), "count");
  out.Add("fabric.frames_flooded", d(c.fabric_flooded), "count");
  out.Add("sched.idle_frac", ratio(d(c.idle_cycles), d(c.cycles)), "ratio");
  out.Add("sched.futex_waits", d(c.futex_waits), "count");
  out.Add("switcher.calls", d(c.calls), "count");
  out.Add("switcher.traps", d(c.traps), "count");
  out.Add("mem.accesses", d(c.accesses), "count");
  out.Add("mem.cap_loads", d(c.cap_loads), "count");
  out.Add("mem.cap_stores", d(c.cap_stores), "count");
  out.Add("mem.ns_per_access", 1e9 * ratio(plain.run_s, d(c.accesses)), "ns");
  out.Add("net.publishes", d(c.publishes), "count");
  out.Add("net.guest_frames", d(c.guest_frames), "count");
  out.Add("net.tcp_drops", d(c.tcp_drops), "count");
  out.Add("net.dhcp_acks", d(c.dhcp_acks), "count");
  out.Add("alloc.allocations", d(c.allocations), "count");
  out.Add("alloc.quota_denials", d(c.quota_denials), "count");
  out.Add("revoker.epochs", d(c.revoker_epochs), "count");
  out.Add("boot.ms_per_board", 1e3 * plain.setup_s / nboards, "ms");
  out.Add("sim.guest_cycles", d(c.cycles), "cycles");
  if (spec.recorders) {
    out.Add("rec.slowdown", ratio(plain.run_s, off.run_s), "ratio");
    out.Add("rec.trace_events", d(plain.trace_events), "count");
    out.Add("rec.flows", d(plain.flows), "count");
    for (const ExportStat& e : plain.exports) {
      out.Add("export." + e.family + ".s", e.seconds, "s");
      out.Add("export." + e.family + ".bytes", d(e.bytes), "bytes");
      out.Add("export." + e.family + ".mb_per_s",
              ratio(d(e.bytes) / 1e6, e.seconds), "MB/s");
    }
  }
  ReportTrace(log, traced.region_span,
              spec.recorders ? "fleet.run + exports" : "fleet.run", all,
              traced.run_s, plain.run_s, cfg, out);
}

// --- mc_explore ------------------------------------------------------------

// Fixed inputs (the seed is not used): the shipped fleet-node image, fault
// injection on so the default settings explore more than one schedule.
mc::McOptions ExploreOptions() {
  mc::McOptions o;
  o.max_schedules = 512;
  o.inject_faults = true;
  return o;
}

cheriot::FirmwareImage FleetNodeImage() {
  return sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(), {});
}

// The explorer's root: construct + Boot + Snapshot of the explored image.
double ExplorerSetup(SpanLog* spans) {
  ScopedSpan span(spans, "setup", "loader");
  const Clock::time_point t0 = Clock::now();
  sim::Board board(FleetNodeImage(), {});
  board.Boot();
  std::vector<uint8_t> blob;
  board.Snapshot(blob);
  return SecondsSince(t0);
}

struct McRep {
  std::vector<double> setup_s;  // kMcSetupSamples samples
  double explore_s = 0;
  mc::McReport report;
  uint64_t digest = 0;
};

McRep RunMcRep(SpanLog* spans) {
  McRep rep;
  for (int i = 0; i < kMcSetupSamples; ++i) {
    rep.setup_s.push_back(ExplorerSetup(spans));
  }
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(spans, "mc.explore", "mc");
    rep.report = mc::Explore("fleet-node", FleetNodeImage, ExploreOptions());
  }
  rep.explore_s = SecondsSince(t0);
  Digest d;
  d.Add(rep.report.ToJson().Dump(2));
  rep.digest = d.value();
  return rep;
}

void CheckMcRep(const McRep& rep, const RunConfig& cfg, uint64_t first,
                Outcome& out) {
  const uint64_t schedules =
      static_cast<uint64_t>(rep.report.schedules_explored);
  out.attempted += schedules;
  out.failed += rep.report.failures.size();
  for (const mc::Failure& f : rep.report.failures) {
    out.errors.push_back("mc " + f.kind + " on schedule " +
                         std::to_string(f.schedule) + ": " + f.detail);
  }
  CheckDigest(cfg, rep.digest, first, out);
}

void RunMcWorkload(const RunConfig& cfg, Outcome& out) {
  const double cycles_per_schedule =
      static_cast<double>(ExploreOptions().cycles);
  if (!cfg.trace) {
    std::vector<double> setup, schedules_rate, cycles_rate;
    // Warm-up, as on the fleets: checked, not timed.
    const McRep warm = RunMcRep(nullptr);
    const uint64_t first = warm.digest;
    out.digest = warm.digest;
    CheckMcRep(warm, cfg, first, out);
    HostSpeed host(1);
    std::vector<double> host_schedules_rate;  // uncorrected, for the report
    const Clock::time_point start = Clock::now();
    do {
      const double before = host.Slowdown();
      const McRep rep = RunMcRep(nullptr);
      const double slow = HostSpeed::Around(before, host.Slowdown());
      CheckMcRep(rep, cfg, first, out);
      const double n = rep.report.schedules_explored;
      for (double s : rep.setup_s) {
        setup.push_back(s / slow);
      }
      const double explore_ref_s = rep.explore_s / slow;
      schedules_rate.push_back(n / explore_ref_s);
      cycles_rate.push_back(n * cycles_per_schedule / explore_ref_s);
      host_schedules_rate.push_back(n / rep.explore_s);
      std::printf("  rep %zu: explore %.4f s, setup %.6f s; host slowdown "
                  "%.3f, so explore %.4f ref s\n",
                  cycles_rate.size(), rep.explore_s, Median(rep.setup_s), slow,
                  explore_ref_s);
    } while (SecondsSince(start) < cfg.seconds);
    std::printf("mc_explore: %zu timed repetitions of %d schedules; "
                "schedules_per_s median %.6g per ref s, %.6g per host s\n",
                cycles_rate.size(), ExploreOptions().max_schedules,
                Median(schedules_rate), Median(host_schedules_rate));
    out.Add("sim_cycles_per_s", Median(cycles_rate), "1/s");
    out.Add("schedules_per_s", Median(schedules_rate), "1/s");
    out.Add("setup_s", Median(setup), "s");
    return;
  }

  SpanLog log(cfg.workload);
  HostSpeed host(1);
  const double before = host.Slowdown();
  const McRep plain = RunMcRep(nullptr);
  out.Add("host.slowdown", HostSpeed::Around(before, host.Slowdown()),
          "ratio");
  out.digest = plain.digest;
  CheckMcRep(plain, cfg, plain.digest, out);
  int all = -1;
  int region = -1;
  McRep traced;
  {
    ScopedSpan top(&log, cfg.workload, "bench");
    all = top.id();
    {
      ScopedSpan r(&log, "region", "bench");
      region = r.id();
      traced = RunMcRep(&log);
    }
    RunProbes(&log, out);
  }
  out.Check(traced.digest == plain.digest,
            "tracing moved the mc report digest");
  const mc::McReport& r = plain.report;
  const double n = r.schedules_explored;
  out.Add("mc.schedules", n, "count");
  out.Add("mc.branch_points", r.branch_points, "count");
  out.Add("mc.pruned", static_cast<double>(r.alternatives_pruned), "count");
  out.Add("mc.ms_per_schedule", n > 0 ? 1e3 * plain.explore_s / n : 0, "ms");
  out.Add("boot.ms_per_board", 1e3 * Median(plain.setup_s), "ms");
  out.Add("sim.guest_cycles", n * cycles_per_schedule, "cycles");
  ReportTrace(log, region, "setup samples + mc.explore", all,
              traced.explore_s, plain.explore_s, cfg, out);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "fleet_busy" || name == "fleet_idle" ||
         name == "mc_explore" || name == "observe";
}

Outcome RunWorkload(const RunConfig& cfg) {
  Outcome out;
  if (cfg.workload == "fleet_busy") {
    RunFleetWorkload(BusySpec(cfg.seed), cfg, out);
  } else if (cfg.workload == "fleet_idle") {
    RunFleetWorkload(IdleSpec(cfg.seed), cfg, out);
  } else if (cfg.workload == "observe") {
    RunFleetWorkload(ObserveSpec(cfg.seed), cfg, out);
  } else {
    RunMcWorkload(cfg, out);
  }
  if (!cfg.trace) {
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  return out;
}

}  // namespace perfbench
