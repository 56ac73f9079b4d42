// cheriot-cov authority coverage: a deterministic recorder of which static
// grants a firmware image actually *exercises* at runtime (DESIGN.md §14).
//
// The audit report (§4) and the authority graph built from it describe the
// authority firmware *could* use; this recorder measures the authority it
// *does* use, so the two can be diffed into a least-privilege report
// (src/cov/report.h): unused imports, never-called exports, MMIO ranges
// granted but untouched, quota headroom. Per board it records
//   - cross-compartment export invocations as (caller -> callee.export)
//     edges with call count, first/last guest cycle and the peak
//     trusted-stack depth reached through each export,
//   - library-call edges (caller -> library.export),
//   - the MMIO granules each compartment actually touched, per static grant,
//   - sealing keys exercised at the token seal/unseal sites,
//   - allocation-capability use (allocation count, live/peak-live bytes,
//     quota denials) per quota grant.
//
// Determinism contract (same as src/trace and src/health, pinned by
// tests/cov_test.cpp): the recorder only OBSERVES. It never ticks the clock,
// never touches simulated memory through costed paths (boot-time grant
// tables come from native loader state and RawLoadWord), and never consults
// host state, so enabling coverage cannot move a single guest cycle. The
// recorder is an Observer (src/hw/observer.h): every capture site in the
// switcher/kernel/allocator/token service is the machine's observer loop,
// and MMIO touches arrive from Memory's slow (device-window) path, so the
// SRAM fast path is untouched.
#ifndef SRC_COV_COVERAGE_H_
#define SRC_COV_COVERAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/clock.h"
#include "src/base/types.h"
#include "src/hw/observer.h"
#include "src/json/json.h"

namespace cheriot::snap {
class Writer;
}  // namespace cheriot::snap

namespace cheriot::cov {

// Pseudo-compartment ids for accesses made outside any guest thread's
// compartment context (same convention as the trace profiler's attribution
// buckets). Real compartments are >= 0.
inline constexpr int kCompartmentIdle = -1;
inline constexpr int kCompartmentBoot = -2;
inline constexpr int kCompartmentKernel = -3;
// Edge caller id for a thread's initial entry (the switcher's InitialCall
// has no calling compartment).
inline constexpr int kCallerThreadEntry = -1;

struct CovOptions {
  // Track per-granule MMIO touch bitmaps (8-byte granules, matching the
  // revocation granule). Off: only per-grant access counts are kept.
  bool mmio_granules = true;
};

// One dynamic (caller -> callee.export) edge.
struct EdgeStats {
  uint64_t count = 0;
  Cycles first_cycle = 0;
  Cycles last_cycle = 0;
  uint32_t peak_depth = 0;  // trusted-stack frames at the deepest call
};

// One static MMIO grant (import-table slot) with its dynamic touch record.
struct MmioGrantCov : BootTables::MmioGrant {
  uint64_t reads = 0;
  uint64_t writes = 0;
  Cycles first_cycle = 0;
  Cycles last_cycle = 0;
  std::vector<uint64_t> touched{};  // granule bitmap, (size+7)/8 bits

  size_t granules_total() const {
    return static_cast<size_t>((size + kGranuleBytes - 1) / kGranuleBytes);
  }
  size_t granules_touched() const;
};

// One static sealing-key grant with its dynamic exercise counts.
struct SealingGrantCov : BootTables::SealingGrant {
  uint64_t seals = 0;
  uint64_t unseals = 0;
};

// One static allocation-capability grant with its dynamic quota use.
struct QuotaGrantCov : BootTables::QuotaGrant {
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t denials = 0;
  Word live_bytes = 0;       // includes chunk headers (quota accounting unit)
  Word peak_live_bytes = 0;
};

class CovRecorder : public Observer {
 public:
  explicit CovRecorder(CovOptions options = {});

  CovRecorder(const CovRecorder&) = delete;
  CovRecorder& operator=(const CovRecorder&) = delete;

  void SetLabel(std::string label) { label_ = std::move(label); }
  void SetBoardIndex(int index) { board_index_ = index; }

  // --- Observer hooks -------------------------------------------------------
  void OnAttach(Machine& machine) override;
  // Takes the name tables, the static grant tables (declaration order is
  // the import-table order, so exports and snapshots are byte-stable) and
  // the guest threads whose compartment_stack attributes MMIO touches.
  void OnBoot(const BootTables& tables) override;
  void OnContextSwitch(int from, int to) override;
  void OnCompartmentCall(int thread, int caller, int callee, int export_index,
                         uint32_t depth) override;
  void OnLibraryCall(int thread, int caller, int library,
                     int export_index) override;
  // Attributes to the top of the current thread's compartment stack.
  void OnMmioAccess(Address addr, Address size, bool is_store) override;
  void OnSealingUse(int compartment, uint32_t type_id, bool unseal) override;
  void OnHeapAlloc(int thread, int compartment, uint32_t quota,
                   Word bytes) override;
  void OnHeapFree(int thread, int compartment, uint32_t quota,
                  Word bytes) override;
  void OnQuotaDenied(int thread, int compartment, int attributed,
                     uint32_t quota, Word bytes) override;

  // --- Read side (exporters, tests) ----------------------------------------
  using EdgeKey = std::tuple<int, int, int>;  // caller, callee, export
  const std::map<EdgeKey, EdgeStats>& call_edges() const { return calls_; }
  const std::map<EdgeKey, EdgeStats>& library_edges() const { return libs_; }
  // Peak trusted-stack depth per (callee, export), over all callers.
  const std::map<std::pair<int, int>, uint32_t>& peak_depth_by_export() const {
    return peak_depth_;
  }
  const std::vector<MmioGrantCov>& mmio_grants() const { return mmio_; }
  const std::vector<SealingGrantCov>& sealing_grants() const {
    return sealing_;
  }
  const std::vector<QuotaGrantCov>& quota_grants() const { return quotas_; }
  // MMIO touches with no covering grant for the touching compartment
  // (delegated-capability or pseudo-context accesses), keyed by
  // (compartment, granule base address).
  const std::map<std::pair<int, Address>, uint64_t>& unattributed_mmio() const {
    return unattributed_mmio_;
  }
  uint64_t calls_recorded() const { return calls_recorded_; }

  const std::string& label() const { return label_; }
  int board_index() const { return board_index_; }
  Cycles now() const { return clock_ ? clock_->now() : 0; }
  std::string CompartmentName(int id) const;
  std::string ExportName(int compartment, int export_index) const;
  std::string LibraryName(int id) const;
  std::string LibraryExportName(int library, int export_index) const;
  const CovOptions& options() const { return options_; }

  // Per-board coverage document body (one element of the exported "boards"
  // array, schema cov/report.h). Byte-stable: maps iterate in key order and
  // grant tables keep import-table order.
  json::Value Json() const;

  // Snapshot serialization (DESIGN.md §10): serialize-only, like the trace
  // and forensics recorders'. The replay restore path re-enables coverage
  // and re-executes the op log, so the verify step re-serializes and
  // byte-compares the regenerated state.
  void SerializeState(snap::Writer& w) const;

 private:
  int CurrentCompartment() const;

  CovOptions options_;
  const CycleClock* clock_ = nullptr;
  std::string label_;
  int board_index_ = 0;

  // The kernel's guest threads (native compartment stacks).
  const std::vector<GuestThread>* threads_ = nullptr;
  int current_thread_ = kCompartmentBoot;  // thread id, or pseudo id < 0

  std::map<EdgeKey, EdgeStats> calls_;
  std::map<EdgeKey, EdgeStats> libs_;
  std::map<std::pair<int, int>, uint32_t> peak_depth_;
  std::vector<MmioGrantCov> mmio_;
  std::vector<SealingGrantCov> sealing_;
  std::vector<QuotaGrantCov> quotas_;
  std::map<std::pair<int, Address>, uint64_t> unattributed_mmio_;
  uint64_t calls_recorded_ = 0;

  std::vector<std::string> compartment_names_;
  std::vector<std::vector<std::string>> export_names_;
  std::vector<std::string> library_names_;
  std::vector<std::vector<std::string>> library_export_names_;
};

}  // namespace cheriot::cov

#endif  // SRC_COV_COVERAGE_H_
