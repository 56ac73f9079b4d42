#include "tools/targets.h"

#include <algorithm>
#include <cstdio>

#include "src/compat/posix_shim.h"
#include "src/js/minivm.h"
#include "src/net/netstack.h"
#include "src/rtos.h"
#include "src/sim/fleet_app.h"
#include "src/sync/sync.h"

namespace cheriot::tools {

namespace {

EntryFn Nop() {
  return [](CompartmentCtx&, const std::vector<Capability>&) {
    return Capability();
  };
}

// examples/quickstart.cpp
FirmwareImage Quickstart() {
  ImageBuilder b("quickstart");
  b.Compartment("adder").Globals(64).Export("add", Nop());
  b.Compartment("app").ImportCompartment("adder.add").Export("main", Nop());
  b.Thread("main", 1, 4096, 8, "app.main");
  return b.Build();
}

// examples/audit_firmware.cpp and tests/audit_test.cpp (Fig. 4 image)
FirmwareImage HttpClient(bool backdoored) {
  ImageBuilder b(backdoored ? "http-firmware-BACKDOORED" : "http-firmware");
  b.Compartment("NetAPI")
      .CodeSize(4096)
      .Export("network_socket_connect_tcp", Nop(), 512)
      .ImportMmio("ethernet", kEthernetMmioBase, kMmioRegionSize, true);
  b.Compartment("http_client")
      .CodeSize(8192)
      .AllocCap("http_quota", 16 * 1024)
      .ImportCompartment("NetAPI.network_socket_connect_tcp")
      .Export("fetch", Nop(), 1024);
  auto compressor = b.Compartment("compressor");
  compressor.CodeSize(20 * 1024).Export("decompress", Nop(), 512);
  if (backdoored) {
    compressor.ImportCompartment("NetAPI.network_socket_connect_tcp");
  }
  b.Thread("main", 1, 2048, 4, "http_client.fetch");
  return b.Build();
}

// examples/producer_consumer.cpp
FirmwareImage ProducerConsumer() {
  ImageBuilder b("producer-consumer");
  b.Compartment("producer")
      .Globals(32)
      .AllocCap("pq", 8 * 1024)
      .Export("main", Nop())
      .Export("get_queue", Nop());
  b.Compartment("consumer")
      .ImportCompartment("producer.get_queue")
      .Export("main", Nop());
  sync::UseQueueCompartment(b, "producer");
  sync::UseQueueCompartment(b, "consumer");
  sync::UseScheduler(b, "producer");
  sync::UseScheduler(b, "consumer");
  sync::UseAllocator(b, "producer");
  b.Thread("consumer", 3, 8192, 8, "consumer.main");
  b.Thread("producer", 2, 8192, 8, "producer.main");
  return b.Build();
}

// examples/fault_tolerance.cpp
FirmwareImage FaultTolerance() {
  ImageBuilder b("fault-tolerance");
  b.Compartment("self_healing").Globals(64).Export("read_config", Nop());
  b.Compartment("counter")
      .Globals(32)
      .AllocCap("cq", 4096)
      .Export("serve", Nop());
  sync::UseAllocator(b, "counter");
  b.Compartment("app")
      .ImportCompartment("self_healing.read_config")
      .ImportCompartment("counter.serve")
      .Export("main", Nop());
  b.Thread("main", 1, 8192, 8, "app.main");
  return b.Build();
}

// examples/iot_mqtt_app.cpp (§5.3.3 case study)
FirmwareImage IotMqttApp() {
  ImageBuilder b("iot-mqtt-app");
  b.Compartment("js_app")
      .Globals(128)
      .AllocCap("app_quota", 33 * 1024)
      .ImportMmio("led", kLedMmioBase, kMmioRegionSize, true)
      .ImportLibrary("minivm.interpreter")
      .Export("main", Nop());
  js::RegisterMiniVmLibrary(b);
  net::UseNetwork(b, "js_app");
  sync::UseAllocator(b, "js_app");
  sync::UseScheduler(b, "js_app");
  compat::UseMalloc(b, "js_app", 8 * 1024);
  b.Thread("app", 3, 16 * 1024, 12, "js_app.main");
  return b.Build();
}

// src/sim/fleet_app.cc — the image every fleet board boots
FirmwareImage FleetNode() {
  return sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(), {});
}

// --- Seeded images -------------------------------------------------------
// Each carries one known defect, so the tool that should find it has a true
// positive: cov-overprivileged for `cheriot cov --report` and lint rule
// CL010, the seeded-* concurrency bugs for `cheriot mc`, which must find
// each within one forced scheduling choice while the default schedule (and
// every other tool) sees the image behave normally.

// Two compartments, four grants, two of them dead. The sensor's entry point
// runs for real (blinks the LED, calls actuator.set), which makes the
// compartment *active* in coverage terms — so its unexercised grants are
// differential evidence and surface as warnings, not info:
//   - ImportCompartment("actuator.diag"): never called (dead import)
//   - ImportMmio("ethernet"): never touched (over-wide device authority)
FirmwareImage CovOverprivileged() {
  ImageBuilder b("cov-overprivileged");
  b.Compartment("actuator")
      .Globals(32)
      .Export("set",
              [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
                ctx.StoreWord(ctx.globals(), 0,
                              args.empty() ? 1u : args[0].word());
                return StatusCap(Status::kOk);
              })
      .Export("diag",
              [](CompartmentCtx&, const std::vector<Capability>&) {
                return Capability();
              });
  b.Compartment("sensor")
      .Globals(64)
      .ImportCompartment("actuator.set")
      .ImportCompartment("actuator.diag")
      .ImportMmio("led", kLedMmioBase, kMmioRegionSize, true)
      .ImportMmio("ethernet", kEthernetMmioBase, kMmioRegionSize, true)
      .Export("main",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability led = ctx.Mmio("led");
                ctx.StoreWord(led, 0, 1);
                ctx.Call("actuator.set", {WordCap(7)});
                return StatusCap(Status::kOk);
              });
  b.Thread("main", 1, 4096, 8, "sensor.main");
  return b.Build();
}

// Check-then-wait with the flag and the futex word in different granules:
// the waiter tests `flag` and then sleeps on `wake_word`, so a signal that
// lands between the test and the sleep is lost — the signaler bumps only
// the flag, the futex compare on `wake_word` still sees the expected value
// and the waiter blocks forever. The default schedule never preempts in
// that window; one forced sync-preempt at the FutexWait entry does.
FirmwareImage SeededLostWake() {
  ImageBuilder b("seeded-lost-wake");
  b.Compartment("app")
      .Globals(64)
      .Export("waiter",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability flag = ctx.globals();
                const Capability wake_word = ctx.globals().AddOffset(4);
                // BUG: the condition lives in `flag` but the wait is keyed
                // on `wake_word`, which nobody ever writes — the atomicity
                // of check+wait rests entirely on not being preempted here.
                while (ctx.LoadWord(flag) == 0) {
                  ctx.FutexWait(wake_word, 0, ~0u);
                }
                return StatusCap(Status::kOk);
              })
      .Export("signaler",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.StoreWord(ctx.globals(), 0, 1);
                ctx.FutexWake(ctx.globals().AddOffset(4), 1);
                return StatusCap(Status::kOk);
              });
  sync::UseScheduler(b, "app");
  // Same priority: the sync-preempt branch round-robins to the signaler.
  b.Thread("waiter", 2, 4096, 8, "app.waiter");
  b.Thread("signaler", 2, 4096, 8, "app.signaler");
  return b.Build();
}

// Two same-priority workers block FIFO on a futex; the main thread wakes
// both at once and then prints the accumulator. The workers' updates do not
// commute (*3 vs +5), so the wake order is guest-visible: FIFO gives
// (0*3)+5 = 5, the flipped order gives (0+5)*3 = 15 on the UART.
FirmwareImage SeededWakeOrder() {
  ImageBuilder b("seeded-wake-order");
  auto worker = [](Word mul, Word add) {
    return [mul, add](CompartmentCtx& ctx, const std::vector<Capability>&) {
      const Capability wake_word = ctx.globals();
      const Capability acc = ctx.globals().AddOffset(4);
      ctx.FutexWait(wake_word, 0, ~0u);
      // BUG: read-modify-write in wake order with non-commutative updates;
      // the result depends on which waiter the kernel pops first.
      ctx.StoreWord(acc, 0, ctx.LoadWord(acc) * mul + add);
      return StatusCap(Status::kOk);
    };
  };
  b.Compartment("app")
      .Globals(64)
      .ImportMmio("uart", kUartMmioBase, kMmioRegionSize, true)
      .Export("w1", worker(3, 0))
      .Export("w2", worker(1, 5))
      .Export("main",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability wake_word = ctx.globals();
                ctx.StoreWord(wake_word, 0, 1);
                ctx.FutexWake(wake_word, 2);
                const Word g = ctx.LoadWord(ctx.globals(), 4);
                const Capability uart = ctx.Mmio("uart");
                char buf[16];
                int n = std::snprintf(buf, sizeof(buf), "acc=%u\n",
                                      static_cast<unsigned>(g));
                for (int i = 0; i < n; ++i) {
                  ctx.StoreWord(uart, 0, static_cast<uint8_t>(buf[i]));
                }
                return StatusCap(Status::kOk);
              });
  sync::UseScheduler(b, "app");
  // Workers outrank main so both are parked on the futex before the wake;
  // equal worker priorities make the ready order follow the pop order.
  b.Thread("w1", 2, 4096, 8, "app.w1");
  b.Thread("w2", 2, 4096, 8, "app.w2");
  b.Thread("main", 1, 4096, 8, "app.main");
  return b.Build();
}

// TOCTOU across the allocator boundary: the racer checks the quota, a rival
// drains it in the preemption window, and the racer stores through the
// unchecked HeapAllocate result — an untagged status capability — and traps.
// The quota (600) fits exactly one 512-byte allocation (charged 512+16).
FirmwareImage SeededQuotaRace() {
  ImageBuilder b("seeded-quota-race");
  b.Compartment("app")
      .Globals(64)
      .AllocCap("q", 600)
      .Export("racer",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability q = ctx.SealedImport("q");
                if (ctx.HeapQuotaRemaining(q) >= 512 + 16) {
                  const Capability p = ctx.HeapAllocate(q, 512, 0);
                  // BUG: no tag check — the quota probe above is stale the
                  // moment another thread allocates against the same quota.
                  ctx.StoreWord(p, 0, 42);
                }
                return StatusCap(Status::kOk);
              })
      .Export("rival",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability q = ctx.SealedImport("q");
                const Capability p = ctx.HeapAllocate(q, 512, 0);
                if (p.tag()) {
                  ctx.StoreWord(p, 0, 7);  // held, never freed
                }
                return StatusCap(Status::kOk);
              });
  sync::UseAllocator(b, "app");
  sync::UseScheduler(b, "app");
  // Same priority: the sync-preempt branch at the racer's HeapAllocate
  // entry round-robins to the rival, which drains the quota and exits.
  b.Thread("racer", 2, 8192, 8, "app.racer");
  b.Thread("rival", 2, 8192, 8, "app.rival");
  return b.Build();
}

std::vector<Target> MakeTargets() {
  std::vector<Target> t = {
      {"fault-tolerance", "micro-reboot / error-handler example image", false,
       FaultTolerance},
      {"fleet-node", "fleet simulation board firmware (src/sim/fleet_app)",
       false, FleetNode},
      {"http-firmware", "Fig. 4 auditing example image (clean)", false,
       [] { return HttpClient(false); }},
      {"http-firmware-backdoored",
       "Fig. 4 image with the liblzma-style backdoored compressor", false,
       [] { return HttpClient(true); }},
      {"iot-mqtt-app", "§5.3.3 MQTT-over-TLS case-study image", false,
       IotMqttApp},
      {"producer-consumer", "hardened message-queue example image", false,
       ProducerConsumer},
      {"quickstart", "two-compartment quickstart image", false, Quickstart},
      {"cov-overprivileged",
       "seeded image with a dead call import and an untouched MMIO grant",
       true, CovOverprivileged},
      {"seeded-lost-wake",
       "check-then-wait lost-wake bug; one preemption deadlocks it", true,
       SeededLostWake},
      {"seeded-quota-race",
       "quota check/allocate TOCTOU; one preemption traps it", true,
       SeededQuotaRace},
      {"seeded-wake-order",
       "non-commutative updates in wake order; flipped pop order diverges",
       true, SeededWakeOrder},
  };
  std::sort(t.begin(), t.end(), [](const Target& a, const Target& b) {
    return a.name < b.name;
  });
  return t;
}

}  // namespace

const std::vector<Target>& Targets() {
  static const std::vector<Target> kTargets = MakeTargets();
  return kTargets;
}

const Target* FindTarget(const std::string& name) {
  for (const auto& t : Targets()) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

}  // namespace cheriot::tools
