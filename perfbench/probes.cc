// Layer probes: each times one layer's public calls from outside the
// simulator and reports host ns/op next to the guest cycles/op the model
// charges for the same operation.
#include <chrono>
#include <cstdio>
#include <memory>

#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sim/fleet_app.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cheriot;
using Clock = std::chrono::steady_clock;

// EXPERIMENTS.md, Fig. 6a: an empty cross-compartment call.
constexpr double kPaperEmptyCallCycles = 209;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct OpCost {
  double host_ns = 0;
  double guest_cycles = 0;
};

// Times `ops` calls of `op(i)` on a bare Machine's memory.
template <typename Op>
OpCost TimeMemoryOp(SpanLog* spans, const char* name, Machine& machine,
                    int ops, Op&& op) {
  for (int i = 0; i < ops / 16; ++i) {  // warm the touched lines
    op(i);
  }
  const Cycles c0 = machine.clock().now();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(spans, name, "mem");
    for (int i = 0; i < ops; ++i) {
      op(i);
    }
  }
  const double s = SecondsSince(t0);
  return {1e9 * s / ops,
          static_cast<double>(machine.clock().now() - c0) / ops};
}

void MemoryProbes(SpanLog* spans, Outcome& out) {
  constexpr int kOps = 1 << 21;
  constexpr Address kWindow = 64 * 1024;  // fits the host's L2
  Machine machine;
  Memory& mem = machine.memory();
  const Address base = mem.sram_base();
  const Capability root =
      Capability::RootReadWrite(base, base + mem.sram_size());
  const Capability value = root.WithBounds(base, 0x40);
  const Capability uart =
      Capability::RootReadWrite(kUartMmioBase, kUartMmioBase + kMmioRegionSize);
  volatile Word sink = 0;
  const auto word_at = [&](int i) {
    return base + ((static_cast<Address>(i) * 4) % kWindow);
  };
  const auto cap_at = [&](int i) {
    return base + ((static_cast<Address>(i) * 8) % kWindow);
  };
  const OpCost store_word =
      TimeMemoryOp(spans, "probe.mem.store_word", machine, kOps, [&](int i) {
        mem.StoreWord(root, word_at(i), static_cast<Word>(i));
      });
  const OpCost load_word =
      TimeMemoryOp(spans, "probe.mem.load_word", machine, kOps,
                   [&](int i) { sink = sink + mem.LoadWord(root, word_at(i)); });
  const OpCost store_cap =
      TimeMemoryOp(spans, "probe.mem.store_cap", machine, kOps,
                   [&](int i) { mem.StoreCap(root, cap_at(i), value); });
  const OpCost load_cap =
      TimeMemoryOp(spans, "probe.mem.load_cap", machine, kOps, [&](int i) {
        sink = sink + mem.LoadCap(root, cap_at(i)).tag();
      });
  const OpCost mmio =
      TimeMemoryOp(spans, "probe.mem.mmio_poll", machine, kOps / 4, [&](int) {
        sink = sink + mem.LoadWord(uart, kUartMmioBase + 4);  // status poll
      });
  out.Add("mem.load_word_ns", load_word.host_ns, "ns");
  out.Add("mem.load_word_cycles", load_word.guest_cycles, "cycles");
  out.Add("mem.store_word_ns", store_word.host_ns, "ns");
  out.Add("mem.store_word_cycles", store_word.guest_cycles, "cycles");
  out.Add("mem.load_cap_ns", load_cap.host_ns, "ns");
  out.Add("mem.load_cap_cycles", load_cap.guest_cycles, "cycles");
  out.Add("mem.store_cap_ns", store_cap.host_ns, "ns");
  out.Add("mem.store_cap_cycles", store_cap.guest_cycles, "cycles");
  out.Add("mem.mmio_ns", mmio.host_ns, "ns");
  out.Add("mem.mmio_cycles", mmio.guest_cycles, "cycles");
}

// Guest-side tally a probe image writes and the host reads after the run.
struct GuestTally {
  Cycles cycles = 0;
  uint64_t ops = 0;
};

// Boots `image` on a Board and steps it until every thread has exited; the
// host time of that StepTo is the probe's span.
double StepToExit(SpanLog* spans, const char* name, const char* layer,
                  FirmwareImage image) {
  sim::Board board(std::move(image), {});
  board.Boot();
  const Clock::time_point t0 = Clock::now();
  System::RunResult r;
  {
    ScopedSpan span(spans, name, layer);
    r = board.StepTo(~0ull >> 1);
  }
  const double s = SecondsSince(t0);
  if (r != System::RunResult::kAllExited) {
    std::fprintf(stderr, "probe %s did not run to completion\n", name);
  }
  return s;
}

// An empty cross-compartment call, measured the way bench_call_latency does
// (one warm-up call, then timed calls bracketed by the guest clock).
void SwitcherProbe(SpanLog* spans, Outcome& out) {
  constexpr int kCalls = 50'000;
  auto tally = std::make_shared<GuestTally>();
  ImageBuilder b("probe-call");
  b.Compartment("callee").Globals(32).Export(
      "nop", [](CompartmentCtx&, const std::vector<Capability>&) {
        return StatusCap(Status::kOk);
      });
  b.Compartment("caller")
      .Globals(32)
      .ImportCompartment("callee.nop")
      .Export("main", [tally](CompartmentCtx& ctx,
                              const std::vector<Capability>&) {
        ctx.Call("callee.nop", {WordCap(0)});
        for (int i = 0; i < kCalls; ++i) {
          const Cycles t0 = ctx.Now();
          ctx.Call("callee.nop", {WordCap(0)});
          tally->cycles += ctx.Now() - t0;
          ++tally->ops;
        }
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 2, 8192, 8, "caller.main");
  const double s = StepToExit(spans, "probe.switcher.call", "switcher", b.Build());
  const double ops = static_cast<double>(tally->ops);
  const double cycles = ops > 0 ? static_cast<double>(tally->cycles) / ops : 0;
  out.Check(tally->ops == kCalls, "switcher probe completed " +
                                      std::to_string(tally->ops) + " of " +
                                      std::to_string(kCalls) + " calls");
  out.Add("switcher.call_ns", ops > 0 ? 1e9 * s / ops : 0, "ns");
  out.Add("switcher.call_cycles", cycles, "cycles");
  out.Add("switcher.call_cycles_err_pct",
          100.0 * (cycles - kPaperEmptyCallCycles) / kPaperEmptyCallCycles,
          "%");
}

// Two equal-priority threads hand one futex word back and forth: every
// handoff is a wake, a wait and a scheduler pick + fiber swap.
void FutexProbe(SpanLog* spans, Outcome& out) {
  constexpr Word kRounds = 20'000;
  auto tally = std::make_shared<GuestTally>();
  // Thread `parity` waits for the word to reach 2i + parity, then bumps it
  // and wakes the other thread.
  const auto player = [tally](Word parity) {
    return [tally, parity](CompartmentCtx& ctx,
                           const std::vector<Capability>&) {
      const Capability w = ctx.globals();
      const Cycles t0 = ctx.Now();
      for (Word i = 0; i < kRounds; ++i) {
        for (Word v = ctx.LoadWord(w, 0); v != 2 * i + parity;
             v = ctx.LoadWord(w, 0)) {
          ctx.FutexWait(w, v);
        }
        ctx.StoreWord(w, 0, 2 * i + parity + 1);
        ctx.FutexWake(w, 1);
        ++tally->ops;
      }
      if (parity == 0) {
        tally->cycles = ctx.Now() - t0;
      }
      return StatusCap(Status::kOk);
    };
  };
  ImageBuilder b("probe-futex");
  b.Compartment("pp")
      .Globals(16)
      .ImportCompartment("sched.futex_timed_wait")
      .ImportCompartment("sched.futex_wake")
      .Export("ping", player(0))
      .Export("pong", player(1));
  b.Thread("ping", 2, 2048, 4, "pp.ping");
  b.Thread("pong", 2, 2048, 4, "pp.pong");
  const double s =
      StepToExit(spans, "probe.sched.futex_pingpong", "sched", b.Build());
  const double handoffs = static_cast<double>(tally->ops);
  out.Check(tally->ops == 2 * kRounds, "futex probe completed " +
                                           std::to_string(tally->ops) +
                                           " of " +
                                           std::to_string(2 * kRounds) +
                                           " handoffs");
  out.Add("sched.switch_ns", handoffs > 0 ? 1e9 * s / handoffs : 0, "ns");
  out.Add("sched.switch_cycles",
          handoffs > 0 ? static_cast<double>(tally->cycles) / handoffs : 0,
          "cycles");
}

// Snapshot and both restore paths on the shipped fleet-node image; each is
// the median of several runs (every restore includes its byte-for-byte
// verify).
void SnapshotProbe(SpanLog* spans, Outcome& out) {
  const auto image = [] {
    return sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(), {});
  };
  sim::Board board(image(), {});
  board.Boot();
  std::vector<uint8_t> cold;
  board.Snapshot(cold);
  board.StepTo(2'000'000);
  std::vector<uint8_t> blob;
  const auto timed = [&](const char* name, int runs, auto&& fn) {
    std::vector<double> ms;
    for (int i = 0; i < runs; ++i) {
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(spans, name, "snap");
        fn();
      }
      ms.push_back(1e3 * SecondsSince(t0));
    }
    return Median(ms);
  };
  const double snapshot_ms =
      timed("snap.snapshot", 5, [&] { board.Snapshot(blob); });
  const double cold_ms = timed("snap.cold_restore", 5, [&] {
    std::unique_ptr<sim::Board> b = sim::Board::Restore(cold, image());
  });
  const double replay_ms = timed("snap.replay_restore", 3, [&] {
    std::unique_ptr<sim::Board> b = sim::Board::Restore(blob, image());
  });
  out.Add("snap.snapshot_ms", snapshot_ms, "ms");
  out.Add("snap.cold_restore_ms", cold_ms, "ms");
  out.Add("snap.replay_restore_ms", replay_ms, "ms");
  out.Add("snap.blob_bytes", static_cast<double>(blob.size()), "bytes");
}

}  // namespace

void RunProbes(SpanLog* spans, Outcome& out) {
  MemoryProbes(spans, out);
  SwitcherProbe(spans, out);
  FutexProbe(spans, out);
  SnapshotProbe(spans, out);
}

}  // namespace perfbench
