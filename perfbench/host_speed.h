// Thread CPU clock and host-speed probe.
//
// Passes are timed in thread CPU time.  On a shared virtual machine that is
// not enough: a busy sibling hyperthread, cache and memory contention from
// other guests, or a lower clock slow the same instructions by up to half,
// in episodes of a second or so and in drifts over minutes.  So each pass
// also runs a short, fixed probe between its units of work.  The probe does
// the kind of work the simulator does (an event heap, ordered-map and
// hash-map lookups), so it slows when the host slows the benchmark.  Its
// mean time over a pass gives the pass's host speed, and the reported times
// are scaled to the probe's nominal speed.
//
// The probe is benchmark code: a change under src/ does not change it, so a
// faster program still reads faster.  It never allocates, and it reads its
// whole working set before each timed run, so what the program does to the
// heap and the caches does not change the probe's time either.

#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstdint>

namespace perfbench {

// CPU seconds this thread has used.
double CpuNow();

// Times one pass.  Probe() runs the host-speed probe; its time is kept out of
// Now(), so the probes between units of work cost the pass's timings nothing.
class CpuMeter {
 public:
  CpuMeter();

  // Thread CPU seconds used since construction, probes excluded.
  double Now() const;

  // Runs one probe and records its time.
  void Probe();

  // The probe's nominal time over its mean time in this pass: 1 on a host
  // running at nominal speed, below 1 while the host runs slow.  Multiply a
  // CPU time by it to scale that time to nominal speed.
  double speed() const;

  // Mean probe time in this pass, in microseconds.
  double probe_us() const;

 private:
  double start_ = 0;
  double excluded_s_ = 0;  // Probes, warm-up included.
  double probe_s_ = 0;     // Timed probe runs only.
  uint64_t probes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
