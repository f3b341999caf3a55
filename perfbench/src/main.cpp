// Benchmark binary: runs one workload in this process and prints
// a summary plus one JSON result line. perfbench/run.py builds it, adds
// the fresh-process set-up repeats, and emits the benchmark's result.
//
//   perfbench --workload vit_timing|fleet_serve|vit_functional --seed N
//             --seconds S --trace 0|1 [--root DIR] [--spans-out FILE]
//             [--setup-only] [--perturb-calibration] [--tamper-logit]
//             [--tamper-conservation]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {
// Probes on each side of set-up.
constexpr int kSetupProbes = 5;
}  // namespace

void Outcome::setup_done(const Options& opts) {
  setup_raw_s = seconds_since(opts.start_ns);
  setup_s = opts.probe == nullptr
                ? setup_raw_s
                : setup_raw_s * kProbeRefS /
                      (0.5 * (opts.setup_probe_s + opts.probe->run_median(kSetupProbes)));
}

void Outcome::note(const std::string& name, double value,
                   const std::string& unit) {
  std::ostringstream line;
  line.precision(6);
  line << name << " = " << value << " " << unit;
  summary.push_back(line.str());
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double span_s(const std::map<std::string, std::int64_t>& self_ns,
              const std::string& name) {
  const auto it = self_ns.find(name);
  return it == self_ns.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = seed;
  for (const std::uint64_t v : {a, b}) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return h;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
// so it would report the launching process's peak when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int usage_error(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  return 2;
}

int run(int argc, char** argv) {
  Options opts;
  opts.start_ns = now_ns();
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") opts.workload = value();
    else if (arg == "--seed") opts.seed = std::stoull(value());
    else if (arg == "--seconds") opts.seconds = std::stod(value());
    else if (arg == "--trace") opts.trace = value() == "1";
    else if (arg == "--root") opts.root = value();
    else if (arg == "--spans-out") spans_out = value();
    else if (arg == "--setup-only") opts.setup_only = true;
    else if (arg == "--perturb-calibration") opts.perturb_calibration = true;
    else if (arg == "--tamper-logit") opts.tamper_logit = true;
    else if (arg == "--tamper-conservation") opts.tamper_conservation = true;
    else return usage_error("unknown flag " + arg);
  }
  if (!(opts.seconds > 0)) return usage_error("--seconds must be > 0");
  // Built and run before set-up starts, so neither is set-up time.
  std::optional<HostProbe> probe;
  if (!opts.trace) {
    probe.emplace();
    opts.probe = &*probe;
    opts.setup_probe_s = probe->run_median(kSetupProbes);
    opts.start_ns = now_ns();
  }

  Tracer tracer(opts.trace && !opts.setup_only);
  Outcome out;
  {
    Scope root(tracer, "bench." + opts.workload);
    if (opts.workload == "vit_timing")
      out = run_vit_timing(opts, tracer);
    else if (opts.workload == "fleet_serve")
      out = run_fleet_serve(opts, tracer);
    else if (opts.workload == "vit_functional")
      out = run_vit_functional(opts, tracer);
    else
      return usage_error("unknown workload '" + opts.workload + "'");
  }

  if (opts.setup_only) {
    std::cout << "{\"setup_s\": " << json_number(out.setup_s)
              << ", \"setup_raw_s\": " << json_number(out.setup_raw_s) << "}\n";
    return 0;
  }
  if (tracer.enabled()) {
    // Self times are integer nanoseconds, so the identity is exact.
    if (tracer.total_self_ns() != tracer.root_ns())
      out.fail("span self times sum to " +
               std::to_string(tracer.total_self_ns()) + " ns, root is " +
               std::to_string(tracer.root_ns()) + " ns");
    out.metrics["bench.trace_overhead_pct"] =
        100.0 * static_cast<double>(tracer.spans().size()) *
        span_pair_cost_ns() / static_cast<double>(tracer.root_ns());
    if (!spans_out.empty()) tracer.write_json(spans_out);
  } else {
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    out.note("peak_rss_mb", out.metrics["peak_rss_mb"], "MB");
  }
  if (!out.units.empty()) {
    out.note("units", static_cast<double>(out.units.size()), "");
    out.note("unit_median_s", median(out.units), "s");
    out.note("raw_unit_median_s", median(out.raw_units), "s");
  }
  out.note("failed_ops_frac",
           out.attempted == 0 ? 1.0
                              : static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted),
           "");

  for (const auto& line : out.summary) std::cout << line << "\n";
  for (const auto& f : out.failures) std::cout << "CHECK FAILED: " << f << "\n";
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"setup_s\": " << json_number(out.setup_s)
            << ", \"setup_raw_s\": " << json_number(out.setup_raw_s)
            << ", \"units\": [";
  for (std::size_t i = 0; i < out.units.size(); ++i)
    std::cout << (i ? ", " : "") << json_number(out.units[i]);
  std::cout << "], \"raw_units\": [";
  for (std::size_t i = 0; i < out.raw_units.size(); ++i)
    std::cout << (i ? ", " : "") << json_number(out.raw_units[i]);
  std::cout << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    std::cout << (first ? "" : ", ") << json_string(name) << ": "
              << json_number(value);
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
