// Host-speed correction. The benchmark's VM shares its physical cores, caches
// and memory with other guests it cannot see, and for minutes at a time that
// load slows every program on the VM by up to 2-3x (README.md, "Sizing and
// noise"). A run's wall time then measures the neighbours as much as the
// simulator.
//
// HostSpeed times a fixed reference workload right before and right after
// each timed repetition. The reference uses nothing from src/: it formats,
// matches, sorts and maps strings with the standard library, the kind of
// branchy, allocation-heavy C++ the simulator itself is. Each repetition's
// host seconds are divided by how much slower than nominal the reference ran
// around it, which gives *reference seconds*: the time the repetition would
// have taken had the host run the reference in kNominalPassSeconds. A change
// to the simulator moves reference seconds exactly as much as host seconds;
// a busier neighbour moves mostly the latter. A workload that steps its
// fleet on two host workers gets a reference that runs on two threads at
// once and ends when both are done, as the workers meet at each barrier.
#ifndef PERFBENCH_HOSTSPEED_H_
#define PERFBENCH_HOSTSPEED_H_

#include <cstdint>

namespace perfbench {

class HostSpeed {
 public:
  // Host seconds of one reference pass on the quiet 4-core Xeon the
  // benchmark was sized on. A constant, so that reference seconds compare
  // across commits, runs and hosts of the same kind.
  static constexpr double kNominalPassSeconds = 0.016;

  explicit HostSpeed(int threads) : threads_(threads) {}

  // Runs the reference twice on each thread, once to refill what the timed
  // repetition evicted from the caches and once timed, and returns the
  // slowdown of the timed pass (until the last thread is done) over nominal:
  // 1 on the quiet host, 2 at half speed.
  double Slowdown();

  // The slowdown over a repetition bracketed by two Slowdown() calls.
  static double Around(double before, double after) {
    return (before + after) / 2;
  }

 private:
  int threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOSTSPEED_H_
