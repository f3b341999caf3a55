// Host-speed probe for the untraced run.
//
// The benchmark runs on shared hosts whose cores slow down and speed up
// as other tenants load them, for seconds to minutes at a time. The
// slowdown is largest on throughput-bound code: a vector multiply-add
// loop swings by up to 1.8x between runs while a pointer chase or a
// serial integer chain moves by 5 %, and the workloads' own calls swing
// by 20-60 % with the former. A run's median alone then reads the host's
// state as much as the program's speed.
//
// HostProbe is a fixed piece of throughput-bound work (an AVX2 integer
// multiply-add loop, a small auto-vectorised int32 GEMM and a loop of
// unpredictable branches) compiled into the benchmark and independent of
// the vitbit libraries, so no change to them can move it. CallTimer runs
// it between timed calls and rescales each call to the probe's reference
// time: scaled = seconds x kProbeRefS / mean(probe before, probe after),
// the call's seconds on a host where one probe takes kProbeRefS.
#pragma once

#include <utility>

#include "spans.h"

namespace perfbench {

// One probe's seconds on the 4-vCPU development VM in a quiet period.
inline constexpr double kProbeRefS = 0.003;

class HostProbe {
 public:
  HostProbe();
  // Seconds for one probe.
  double run();
  // Median seconds of `n` probes back to back, for the single rescaling
  // of set-up, which has no other probes to average over.
  double run_median(int n);
};

// Times calls between probes. Without a probe (traced runs) it reports
// raw seconds.
class CallTimer {
 public:
  explicit CallTimer(HostProbe* probe)
      : probe_(probe), before_s_(probe ? probe->run() : 0.0) {}

  // Runs f and returns its rescaled seconds.
  template <class F>
  double time(F&& f) {
    const auto t0 = now_ns();
    std::forward<F>(f)();
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    raw_s_ += dt;
    if (probe_ == nullptr) return dt;
    const double after_s = probe_->run();
    const double scaled = dt * kProbeRefS / (0.5 * (before_s_ + after_s));
    before_s_ = after_s;
    return scaled;
  }

  // Raw seconds of every call timed so far.
  double raw_s() const { return raw_s_; }

 private:
  HostProbe* probe_;
  double before_s_;
  double raw_s_ = 0.0;
};

}  // namespace perfbench
