// One observer interface for every board-level event (DESIGN.md §8.1).
//
// The switcher, kernel, scheduler, allocator, token service, revoker, MMIO
// window and NIC plumbing each report their events at one choke point, as a
// loop over Machine::observers(). With nothing attached the loop runs over
// an empty vector, which is the whole off path. The recorders (trace,
// forensics, coverage) are observers, and so is anything a test attaches.
//
// Contract: an observer only OBSERVES. It never ticks the clock, never
// touches simulated memory through costed paths and never consults host
// state, so attaching one cannot move a guest cycle. Every hook defaults to
// a no-op, so an observer overrides only what it records.
#ifndef SRC_HW_OBSERVER_H_
#define SRC_HW_OBSERVER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/types.h"

namespace cheriot {

class GuestThread;
class Machine;

namespace health {
struct CrashRecord;
}  // namespace health

// The loaded image's name and grant tables, built once by System::Boot from
// native loader state (RawLoadWord for quota headers, so no guest cycles)
// and handed to every observer's OnBoot. Events stay integer-only; each
// observer copies the tables it needs to resolve names at export time.
// Grant tables keep import-table order, so exports stay byte-stable.
struct BootTables {
  struct MmioGrant {
    int compartment = -1;
    std::string device;
    Address base = 0;
    Address size = 0;
    bool writeable = false;
  };
  struct QuotaGrant {
    uint32_t quota_id = 0;
    int compartment = -1;
    std::string name;
    Word limit = 0;
  };
  struct SealingGrant {
    int compartment = -1;
    std::string type_name;
    uint32_t type_id = 0;
  };

  std::vector<std::string> compartments;
  std::vector<std::vector<std::string>> exports;          // per compartment
  std::vector<std::string> libraries;
  std::vector<std::vector<std::string>> library_exports;  // per library
  std::vector<std::string> threads;
  std::vector<MmioGrant> mmio_grants;
  std::vector<QuotaGrant> quota_grants;
  std::vector<SealingGrant> sealing_grants;
  // The kernel's guest threads. The switcher keeps each thread's
  // compartment_stack at its call/return choke points, so an observer reads
  // the running thread's stack here instead of mirroring it. Stable for the
  // life of the System.
  const std::vector<GuestThread>* guest_threads = nullptr;
};

class Observer {
 public:
  virtual ~Observer() = default;

  // --- Wiring ---------------------------------------------------------------
  // Machine::AddObserver, before System::Boot: take the clock, register any
  // clock hook. The observer must outlive the machine's last tick.
  virtual void OnAttach(Machine& machine) {}
  // End of System::Boot, once the TCB and the threads exist.
  virtual void OnBoot(const BootTables& tables) {}

  // --- Switcher -------------------------------------------------------------
  // After the callee is pushed on the thread's compartment_stack. `caller`
  // is -1 for a thread's initial entry; `depth` is the trusted-stack depth.
  virtual void OnCompartmentCall(int thread, int caller, int callee,
                                 int export_index, uint32_t depth) {}
  // After the callee is popped and the return path charged.
  virtual void OnCompartmentReturn(int thread, int callee, int caller) {}
  // `caller` is the compartment the library runs in.
  virtual void OnLibraryCall(int thread, int caller, int library,
                             int export_index) {}
  virtual void OnTrap(int thread, int cause, int compartment) {}
  // Crash filing, in two steps so one sequence number joins every stream:
  // FileCrash offers the record, and an observer that keeps crash records
  // files it and returns its sequence number. If one did, every observer
  // then sees OnCrashFiled with that number.
  virtual std::optional<uint64_t> FileCrash(const health::CrashRecord& record) {
    return std::nullopt;
  }
  virtual void OnCrashFiled(const health::CrashRecord& record, uint64_t seq) {}

  // --- Kernel and scheduler -------------------------------------------------
  // `to` is -1 when the core goes idle.
  virtual void OnContextSwitch(int from, int to) {}
  virtual void OnThreadWake(int thread) {}
  virtual void OnThreadBlock(int thread, Address futex_addr) {}
  virtual void OnThreadSleep(int thread, Cycles wake_at) {}
  virtual void OnMicroReboot(int compartment, Cycles at) {}
  // The idle loop jumped `span` cycles to the next event in one step.
  virtual void OnIdleFastForward(Cycles span) {}

  // --- Allocator and token service ------------------------------------------
  // `compartment` is the executing one (the alloc service inside
  // heap_allocate); quota denials also carry `attributed`, the compartment
  // that asked for the memory.
  virtual void OnHeapAlloc(int thread, int compartment, uint32_t quota,
                           Word bytes) {}
  virtual void OnHeapFree(int thread, int compartment, uint32_t quota,
                          Word bytes) {}
  virtual void OnQuotaDenied(int thread, int compartment, int attributed,
                             uint32_t quota, Word bytes) {}
  virtual void OnSealingUse(int compartment, uint32_t type_id, bool unseal) {}

  // --- Devices --------------------------------------------------------------
  virtual void OnSweepBegin(uint32_t epoch) {}
  virtual void OnSweepEnd(uint32_t epoch, uint64_t granules) {}
  // From Memory's device-window slow path; the SRAM fast path never calls.
  virtual void OnMmioAccess(Address addr, Address size, bool is_store) {}
  // NIC frames carry their host-side flow id (never in guest memory).
  virtual void OnNicTx(size_t bytes, int32_t flow_origin, uint32_t flow_seq) {}
  virtual void OnNicRx(size_t bytes, int32_t flow_origin, uint32_t flow_seq) {}
  // Fault-injected drop: reason 0 = NIC loss, 1 = gateway TCP drop.
  virtual void OnFrameDrop(uint8_t reason, size_t bytes, int32_t flow_origin,
                           uint32_t flow_seq) {}
};

}  // namespace cheriot

#endif  // SRC_HW_OBSERVER_H_
