#include "src/trace/export.h"

#include <algorithm>
#include <cstdio>

#include "src/mem/trap.h"

// Exhaustiveness guard (satellite of the health PR): exporter switches over
// EventType carry no `default:` and are compiled with switch warnings
// promoted to errors, so adding an event kind without an exporter mapping
// fails the build instead of silently dropping the new kind from traces.
#pragma GCC diagnostic error "-Wswitch"

namespace cheriot::trace {

namespace {

// Pseudo-track ids inside a board's process; chosen far above any plausible
// guest thread id so they never collide.
constexpr int kTidRevoker = 9990;
constexpr int kTidNic = 9991;
constexpr int kTidFabric = 9992;
// The fabric recorder has no board; give it a process id of its own.
constexpr int kPidFabric = 9999;

int PidFor(const TraceRecorder& r) {
  return r.board_index() >= 0 ? r.board_index() : kPidFabric;
}

// Flow-id rendering; mirrors flow::FlowId::Label()/key() without a src/flow
// dependency (the trace layer stores raw integers).
std::string FlowLabel(int32_t origin, uint32_t seq) {
  if (origin == -1) {
    return "gw#" + std::to_string(seq);
  }
  return "b" + std::to_string(origin) + "#" + std::to_string(seq);
}

std::string FlowKey(int32_t origin, uint32_t seq) {
  return std::to_string(
      (static_cast<uint64_t>(static_cast<uint16_t>(origin)) << 32) | seq);
}

json::Value Meta(int pid, int tid, const char* what, const std::string& name) {
  json::Object o;
  o["args"] = json::Object{{"name", name}};
  o["name"] = what;
  o["ph"] = "M";
  o["pid"] = pid;
  if (tid >= 0) {
    o["tid"] = tid;
  }
  return o;
}

// One Chrome event. Members are added in key order (args, name, ph, pid, s,
// tid, ts), so each lands at the end of the flat object; `scope` is the
// instant-event "s" member and empty `args` are left out.
json::Object Chrome(const char* ph, int pid, int tid, Cycles ts,
                    std::string name, const char* scope = nullptr,
                    json::Object args = {}) {
  json::Object o;
  o.reserve(8);  // the most members any Chrome event here carries
  if (!args.empty()) {
    o["args"] = std::move(args);
  }
  o["name"] = std::move(name);
  o["ph"] = ph;
  o["pid"] = pid;
  if (scope != nullptr) {
    o["s"] = scope;
  }
  o["tid"] = tid;
  o["ts"] = static_cast<uint64_t>(ts);
  return o;
}

// Translates one recorded event into zero or more Chrome trace events.
void AppendChromeEvents(TraceRecorder& r, const Event& e,
                        std::vector<json::Value>* out) {
  const int pid = PidFor(r);
  switch (e.type) {
    case EventType::kBootDone:
      out->push_back(Chrome("i", pid, 0, e.at, "boot_done", "p"));
      break;
    case EventType::kCompartmentCall:
      out->push_back(Chrome(
          "B", pid, e.thread, e.at,
          r.CompartmentName(e.b) + "." +
              r.ExportName(e.b, static_cast<int>(e.c)),
          nullptr,
          {{"caller", r.CompartmentName(e.a)}, {"depth", e.d}}));
      break;
    case EventType::kCompartmentReturn:
      out->push_back(
          Chrome("E", pid, e.thread, e.at, r.CompartmentName(e.a)));
      break;
    case EventType::kLibraryCall:
      out->push_back(Chrome("i", pid, e.thread, e.at,
                            "lib:" + r.LibraryName(e.a), "t",
                            {{"export", e.b}}));
      break;
    case EventType::kTrap:
      out->push_back(Chrome("i", pid, e.thread, e.at,
                            "trap:" + std::to_string(e.a), "t",
                            {{"compartment", r.CompartmentName(e.b)}}));
      break;
    case EventType::kContextSwitch:
      out->push_back(Chrome(
          "i", pid, e.b >= 0 ? e.b : e.a, e.at,
          "switch:" + r.ThreadName(e.a) + ">" + r.ThreadName(e.b), "t"));
      break;
    case EventType::kThreadWake:
      out->push_back(Chrome("i", pid, e.a, e.at, "wake", "t"));
      break;
    case EventType::kThreadBlock:
      out->push_back(
          Chrome("i", pid, e.a, e.at, "block", "t", {{"futex", e.d}}));
      break;
    case EventType::kThreadSleep:
      out->push_back(
          Chrome("i", pid, e.a, e.at, "sleep", "t", {{"wake_at", e.d}}));
      break;
    case EventType::kHeapAlloc:
    case EventType::kHeapFree:
      out->push_back(Chrome("C", pid, 0, e.at, "heap_live_bytes", nullptr,
                            {{"bytes", e.d}}));
      break;
    case EventType::kQuotaExhausted:
      out->push_back(Chrome("i", pid, e.thread, e.at, "quota_exhausted", "t",
                            {{"compartment", r.CompartmentName(e.a)},
                             {"quota", e.b},
                             {"requested", e.c}}));
      break;
    case EventType::kSweepBegin:
      out->push_back(Chrome("B", pid, kTidRevoker, e.at, "sweep", nullptr,
                            {{"epoch", e.d}}));
      break;
    case EventType::kSweepEnd:
      out->push_back(Chrome("E", pid, kTidRevoker, e.at, "sweep"));
      out->push_back(Chrome("i", pid, kTidRevoker, e.at,
                            "revocation_epoch:" + std::to_string(e.d), "t",
                            {{"granules", e.c}}));
      break;
    case EventType::kNicTx:
    case EventType::kNicRx: {
      const bool tx = e.type == EventType::kNicTx;
      const bool has_flow = e.a != kNoFlowOrigin;
      json::Object args{{"bytes", e.c}};
      if (has_flow) {
        args["flow"] = FlowLabel(e.a, static_cast<uint32_t>(e.d));
      }
      out->push_back(Chrome("i", pid, kTidNic, e.at, tx ? "nic_tx" : "nic_rx",
                            "t", std::move(args)));
      if (has_flow) {
        // Perfetto flow arrow binding this tx to the matching rx on another
        // board's track: an "s" (start) at the transmit and an "f" with
        // bp:"e" (bind to enclosing slice end) at each receive, all sharing
        // the flow key as id.
        json::Object arrow = Chrome(tx ? "s" : "f", pid, kTidNic, e.at, "flow");
        arrow["cat"] = "flow";
        arrow["id"] = FlowKey(e.a, static_cast<uint32_t>(e.d));
        if (!tx) {
          arrow["bp"] = "e";
        }
        out->push_back(std::move(arrow));
      }
      break;
    }
    case EventType::kFabricFrame: {
      json::Object args{{"src_port", e.a}, {"dst_port", e.b}, {"bytes", e.c}};
      const auto origin = static_cast<int32_t>(
          static_cast<int16_t>(static_cast<uint16_t>(e.d >> 32)));
      if (origin != kNoFlowOrigin) {
        args["flow"] = FlowLabel(origin, static_cast<uint32_t>(e.d));
      }
      out->push_back(Chrome("i", pid, kTidFabric, e.at, "fabric_frame", "t",
                            std::move(args)));
      break;
    }
    case EventType::kFrameDrop: {
      json::Object args{{"bytes", e.c},
                        {"reason", e.b == 0 ? "nic_loss" : "gateway_tcp"}};
      if (e.a != kNoFlowOrigin) {
        args["flow"] = FlowLabel(e.a, static_cast<uint32_t>(e.d));
      }
      out->push_back(Chrome("i", pid,
                            r.board_index() >= 0 ? kTidNic : kTidFabric, e.at,
                            "frame_drop", "t", std::move(args)));
      break;
    }
    case EventType::kCrashRecord:
      out->push_back(Chrome(
          "i", pid, e.thread, e.at,
          std::string("crash:") + TrapCodeName(static_cast<TrapCode>(e.a)),
          "t",
          {{"compartment", r.CompartmentName(e.b)},
           {"fault_address", e.c},
           {"record_seq", e.d}}));
      break;
    case EventType::kIdleFastForward: {
      // Rendered as a completed span ending at the jump target, so the
      // skipped stretch shows up as one solid "idle (ff)" block instead of
      // empty space.
      json::Object o = Chrome("X", pid, 0, e.at - static_cast<Cycles>(e.c),
                              "idle_fast_forward", nullptr,
                              {{"span_cycles", e.c}});
      o["dur"] = static_cast<uint64_t>(e.c);
      out->push_back(std::move(o));
      break;
    }
  }
}

void AppendMetadata(TraceRecorder& r, std::vector<json::Value>* out) {
  const int pid = PidFor(r);
  out->push_back(Meta(pid, -1, "process_name",
                      r.label().empty() ? "board" : r.label()));
  for (size_t t = 0; t < r.thread_count(); ++t) {
    out->push_back(Meta(pid, static_cast<int>(t), "thread_name",
                        r.ThreadName(static_cast<int>(t))));
  }
  if (r.board_index() >= 0) {
    out->push_back(Meta(pid, kTidRevoker, "thread_name", "revoker"));
    out->push_back(Meta(pid, kTidNic, "thread_name", "nic"));
  } else {
    out->push_back(Meta(pid, kTidFabric, "thread_name", "fabric"));
  }
}

// Chrome events AppendChromeEvents emits for `e`. Only sizes the final
// array's reservation; a miscount costs a reallocation, not output bytes.
size_t ChromeEventCount(const Event& e) {
  switch (e.type) {
    case EventType::kSweepEnd:
      return 2;
    case EventType::kNicTx:
    case EventType::kNicRx:
      return e.a != kNoFlowOrigin ? 2 : 1;
    default:
      return 1;
  }
}

}  // namespace

json::Value MergedChromeTrace(const std::vector<TraceRecorder*>& recorders) {
  // Interleave by guest cycle. The per-recorder order is already
  // deterministic, and std::stable_sort keeps the recorder order for ties,
  // so the merged stream is byte-identical for any host worker count.
  // Sorting the source events is enough: the Chrome events one event
  // expands to share its cycle and stay adjacent, so each is built once,
  // straight into the final array.
  struct Stamped {
    Cycles at;
    TraceRecorder* recorder;
    const Event* event;
  };
  std::vector<std::vector<Event>> recorded;
  recorded.reserve(recorders.size());
  size_t count = 0;
  for (TraceRecorder* r : recorders) {
    recorded.push_back(r->Events());
    count += recorded.back().size();
  }
  std::vector<Stamped> timeline;
  timeline.reserve(count);
  size_t chrome_count = 0;
  for (size_t i = 0; i < recorders.size(); ++i) {
    for (const Event& e : recorded[i]) {
      timeline.push_back({e.at, recorders[i], &e});
      chrome_count += ChromeEventCount(e);
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Stamped& a, const Stamped& b) {
                     return a.at < b.at;
                   });
  json::Array events;
  for (TraceRecorder* r : recorders) {
    AppendMetadata(*r, &events);
  }
  events.reserve(events.size() + chrome_count);
  for (const Stamped& s : timeline) {
    AppendChromeEvents(*s.recorder, *s.event, &events);
  }
  json::Object doc;
  doc["displayTimeUnit"] = "ns";
  doc["traceEvents"] = std::move(events);
  return doc;
}

json::Value ChromeTrace(TraceRecorder& recorder) {
  return MergedChromeTrace({&recorder});
}

json::Value MetricsSnapshot(TraceRecorder& recorder,
                            const std::vector<ThreadStackStats>& threads) {
  json::Object doc;
  doc["schema_version"] = kMetricsSchemaVersion;
  doc["label"] = recorder.label();
  doc["board"] = recorder.board_index();
  doc["now"] = static_cast<uint64_t>(recorder.now());

  json::Object ev;
  ev["emitted"] = recorder.emitted();
  ev["recorded"] = static_cast<uint64_t>(recorder.event_count());
  ev["dropped"] = recorder.dropped();
  json::Object by_type;
  for (size_t t = 0; t < kEventTypeCount; ++t) {
    const auto type = static_cast<EventType>(t);
    if (recorder.events_of_type(type) > 0) {
      by_type[EventTypeName(type)] = recorder.events_of_type(type);
    }
  }
  ev["by_type"] = std::move(by_type);
  doc["events"] = std::move(ev);

  json::Object prof;
  prof["boot_cycles"] = static_cast<uint64_t>(recorder.boot_cycles());
  prof["idle_cycles"] = static_cast<uint64_t>(recorder.idle_cycles());
  prof["attributed_cycles"] =
      static_cast<uint64_t>(recorder.attributed_cycles());
  json::Array comps;
  for (const auto& [id, p] : recorder.Profile()) {
    json::Object c;
    c["id"] = id;
    c["name"] = recorder.CompartmentName(id);
    c["self"] = static_cast<uint64_t>(p.self);
    c["total"] = static_cast<uint64_t>(p.total);
    c["calls"] = p.calls;
    comps.push_back(std::move(c));
  }
  prof["compartments"] = std::move(comps);
  doc["profile"] = std::move(prof);

  doc["heap"] = json::Object{{"live_bytes", recorder.heap_live_bytes()},
                             {"allocs", recorder.heap_allocs()},
                             {"frees", recorder.heap_frees()}};
  doc["revoker"] = json::Object{{"sweeps", recorder.sweeps_completed()},
                                {"granules_scanned",
                                 recorder.granules_scanned()}};
  doc["nic"] = json::Object{{"tx_frames", recorder.nic_tx_frames()},
                            {"tx_bytes", recorder.nic_tx_bytes()},
                            {"rx_frames", recorder.nic_rx_frames()},
                            {"rx_bytes", recorder.nic_rx_bytes()},
                            {"dropped_frames", recorder.frames_dropped()}};

  json::Array ts;
  for (const auto& t : threads) {
    json::Object o;
    o["name"] = t.name;
    o["stack_size"] = t.stack_size;
    o["peak_stack_bytes"] = t.peak_stack_bytes;
    o["compartment_calls"] = t.compartment_calls;
    ts.push_back(std::move(o));
  }
  doc["threads"] = std::move(ts);
  return doc;
}

std::string CollapsedStacksText(TraceRecorder& recorder) {
  std::string out;
  for (const auto& [key, cycles] : recorder.CollapsedStacks()) {
    std::string line;
    if (key.size() == 1) {
      // Boot/idle pseudo-stacks have no owning thread.
      line = recorder.CompartmentName(key[0]);
    } else {
      line = recorder.ThreadName(key[0]);
      for (size_t i = 1; i < key.size(); ++i) {
        line += ";";
        line += recorder.CompartmentName(key[i]);
      }
    }
    line += " " + std::to_string(static_cast<uint64_t>(cycles)) + "\n";
    out += line;
  }
  return out;
}

std::string ProfileText(TraceRecorder& recorder) {
  const Cycles now = recorder.now();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# %s: %llu cycles (boot %llu, idle %llu, attributed %llu)\n",
                recorder.label().empty() ? "trace" : recorder.label().c_str(),
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(recorder.boot_cycles()),
                static_cast<unsigned long long>(recorder.idle_cycles()),
                static_cast<unsigned long long>(recorder.attributed_cycles()));
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-24s %10s %14s %14s %7s\n", "compartment",
                "calls", "self", "total", "self%");
  out += buf;
  // Rows sorted by self cycles (descending), then id, for stable output.
  std::vector<std::pair<int, TraceRecorder::CompartmentProfile>> rows(
      recorder.Profile().begin(), recorder.Profile().end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second.self != b.second.self) {
                       return a.second.self > b.second.self;
                     }
                     return a.first < b.first;
                   });
  for (const auto& [id, p] : rows) {
    const double pct = now > 0 ? 100.0 * static_cast<double>(p.self) /
                                     static_cast<double>(now)
                               : 0.0;
    std::snprintf(buf, sizeof(buf), "%-24s %10llu %14llu %14llu %6.2f%%\n",
                  recorder.CompartmentName(id).c_str(),
                  static_cast<unsigned long long>(p.calls),
                  static_cast<unsigned long long>(p.self),
                  static_cast<unsigned long long>(p.total), pct);
    out += buf;
  }
  return out;
}

}  // namespace cheriot::trace
