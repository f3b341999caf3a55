// Shared types of the benchmark workloads.
//
// No-repeat rule (all workloads): no timed call may repeat an input that
// an earlier call in the same process already saw, except where a
// deployment repeats it too — the same weights across images, the 12
// identical encoder layers, and the tensor-core-only tuner candidate that
// several strategies share. So a process-wide cache can only win where
// real inputs repeat. Repeated set-ups for setup_s run in fresh processes
// (perfbench/run.py) for the same reason.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Stop after set-up and report only setup_s.
  bool setup_only = false;
  // Checkout root (baselines/ lives there).
  std::string root = ".";
  // Self-test hooks: each must make its workload's output check fail.
  bool perturb_calibration = false;  // vit_timing
  bool tamper_logit = false;         // vit_functional
  bool tamper_conservation = false;  // fleet_serve
  std::int64_t start_ns = 0;  // process work start, for setup_s
  // Untraced runs: the host-speed probe (probe.h) that rescales set-up
  // and timed calls, and its seconds just before set-up. Null in traced
  // runs.
  HostProbe* probe = nullptr;
  double setup_probe_s = 0.0;
};

struct Outcome {
  std::int64_t attempted = 0;  // timed calls
  std::int64_t failed = 0;     // timed calls that threw or failed a check
  std::vector<std::string> failures;
  // Set-up seconds, rescaled like the timed calls when a probe is set,
  // and unscaled.
  double setup_s = 0.0;
  double setup_raw_s = 0.0;
  // Untraced run: host seconds of each unit of work, rescaled by the
  // host-speed probe (run.py reports the median as work_scaled_s), and
  // the same units unscaled.
  std::vector<double> units;
  std::vector<double> raw_units;
  // Untraced run: peak_rss_mb. Traced run: this workload's per-layer
  // metrics.
  std::map<std::string, double> metrics;
  // Human-readable summary lines (name, value, unit), printed before the
  // result line.
  std::vector<std::string> summary;

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
  // Marks set-up as done: records setup_s and setup_raw_s from
  // opts.start_ns.
  void setup_done(const Options& opts);
  void note(const std::string& name, double value, const std::string& unit);
};

Outcome run_vit_timing(const Options& opts, Tracer& tracer);
Outcome run_fleet_serve(const Options& opts, Tracer& tracer);
Outcome run_vit_functional(const Options& opts, Tracer& tracer);

double median(std::vector<double> v);
double seconds_since(std::int64_t start_ns);
double span_s(const std::map<std::string, std::int64_t>& self_ns,
              const std::string& name);
// Deterministic 64-bit mix of a seed and up to two stream indices.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b = 0);

}  // namespace perfbench
