// vit_timing: the paper-reproduction path. Times the ViT-Base kernel log
// (197x768, 12 layers, batch 1) under all seven Table-3 strategies with
// core::time_inference on a 2-thread pool, in a seed-shuffled order, and
// checks every kernel's cycles and instructions against the committed
// baselines/fig5_inference.json and baselines/fig10_ipc.json.
//
// Untraced, the timed calls are the seven full-log time_inference calls:
// one per strategy is all a process may time without repeating an input
// (the no-repeat rule in bench.h), so a process times exactly one sweep
// and perfbench/run.py starts fresh processes until --seconds is used.
// TC, IC and FC simulate one candidate per kernel; they are the control
// a tuner-only change must leave flat (vitbit.strategy.{tc,ic,fc}_s).
//
// Traced, the same work is split by kernel class: time_inference on
// one-call sub-logs of layer 0 (plus the distinct kernels outside the
// encoder layers as "misc"), one span per (strategy, class). Before them
// the benchmark builds and launches each distinct kernel once under each
// strategy's default (untuned) plan, timing trace::build_*_kernel and
// sim::launch_kernel directly; those launches precede the sub-log calls
// so the simulator rates are measured on inputs no earlier call saw.
#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/vit_model.h"
#include "report/run_report.h"
#include "trace/elementwise_traces.h"
#include "trace/gemm_traces.h"
#include "vitbit/pipeline.h"

namespace perfbench {
namespace {

using vitbit::core::Strategy;
namespace core = vitbit::core;
namespace nn = vitbit::nn;
namespace trace = vitbit::trace;

constexpr int kThreads = 2;

// Paper Fig. 5 speed-ups over TC, in core::figure5_strategies() order
// after TC: Tacker, TC+IC+FC, VitBit.
constexpr std::array<double, 3> kPaperFig5 = {1.06, 1.11, 1.22};
constexpr double kPaperLinear = 1.28;      // Fig. 6 average, VitBit vs TC
constexpr double kPaperCudaKernel = 1.14;  // Fig. 7 average, VitBit vs IC

const std::vector<std::string> kClasses = {
    "qkv", "scores",  "context", "proj",      "fc1",
    "fc2", "softmax", "gelu",    "layernorm", "misc"};

// Kernel class of a log entry, from its name.
std::string kernel_class(const std::string& name) {
  const auto has = [&](const char* part) {
    return name.find(part) != std::string::npos;
  };
  if (has("attn.qkv")) return "qkv";
  if (has("attn.scores")) return "scores";
  if (has("attn.context")) return "context";
  if (has("attn.proj")) return "proj";
  if (has(".fc1")) return "fc1";
  if (has(".fc2")) return "fc2";
  if (has("softmax")) return "softmax";
  if (has("gelu")) return "gelu";
  if (has(".ln")) return "layernorm";
  return "misc";
}

// Metric-name form of a strategy: tc, ic, fc, ic_fc, tacker, tc_ic_fc,
// vitbit.
std::string strategy_key(Strategy s) {
  std::string out;
  for (const char c : std::string(core::strategy_name(s))) {
    if (c == '+') out += '_';
    else out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// The baselines hold layers 0 and 1 of the same ViT-Base; every encoder
// layer has layer 1's shapes.
std::string baseline_kernel_name(const std::string& name) {
  if (name.rfind("layer", 0) != 0) return name;
  const auto dot = name.find('.');
  const int layer = std::stoi(name.substr(5, dot - 5));
  return layer <= 1 ? name : "layer1" + name.substr(dot);
}

struct Expected {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};
using Baseline = std::map<std::string, std::map<std::string, Expected>>;

Baseline load_baseline(const std::string& root) {
  Baseline out;
  for (const char* file : {"fig5_inference.json", "fig10_ipc.json"}) {
    const auto report =
        vitbit::report::load_report_file(root + "/baselines/" + file);
    for (const auto& s : report.strategies)
      for (const auto& k : s.kernels)
        out[s.strategy][k.name] = {k.cycles, k.instructions};
  }
  return out;
}

// Compares every kernel of `timing` with the baseline; returns the first
// mismatch, or "" when all match.
std::string check_timing(const core::InferenceTiming& timing,
                         const Baseline& baseline) {
  const std::string strategy = core::strategy_name(timing.strategy);
  const auto s = baseline.find(strategy);
  if (s == baseline.end()) return strategy + ": no baseline";
  for (const auto& k : timing.kernels) {
    const auto e = s->second.find(baseline_kernel_name(k.name));
    if (e == s->second.end()) return strategy + "/" + k.name + ": no baseline";
    if (k.cycles != e->second.cycles ||
        k.instructions != e->second.instructions)
      return strategy + "/" + k.name + ": cycles " +
             std::to_string(k.cycles) + " instructions " +
             std::to_string(k.instructions) + ", baseline " +
             std::to_string(e->second.cycles) + " / " +
             std::to_string(e->second.instructions);
  }
  return "";
}

// Modelled figures from per-kernel cycles (log order, one vector per
// strategy): paper definitions of Figs. 5-7.
struct Modelled {
  double speedup_x = 0;      // TC total / VitBit total
  double fig5_err_pct = 0;   // mean |model - paper| / paper, Fig. 5
  double linear_x = 0;       // Fig. 6: mean per-GEMM TC / VitBit
  double cuda_kernel_x = 0;  // Fig. 7: mean per-kernel IC / VitBit
};

Modelled modelled(const nn::KernelLog& log,
                  const std::map<Strategy, std::vector<std::uint64_t>>& cyc) {
  const auto total = [&](Strategy s) {
    double t = 0;
    for (const auto c : cyc.at(s)) t += static_cast<double>(c);
    return t;
  };
  Modelled m;
  const double tc = total(Strategy::kTC);
  m.speedup_x = tc / total(Strategy::kVitBit);
  const Strategy fig5[] = {Strategy::kTacker, Strategy::kTCICFC,
                           Strategy::kVitBit};
  for (std::size_t i = 0; i < 3; ++i)
    m.fig5_err_pct += std::abs(tc / total(fig5[i]) - kPaperFig5[i]) /
                      kPaperFig5[i] * 100.0 / 3.0;
  double lin = 0, cud = 0;
  int n_lin = 0, n_cud = 0;
  for (std::size_t i = 0; i < log.calls().size(); ++i) {
    const auto& call = log.calls()[i];
    const bool layer0 = call.name.rfind("layer0", 0) == 0;
    const auto ratio = [&](Strategy base) {
      return static_cast<double>(cyc.at(base)[i]) /
             static_cast<double>(cyc.at(Strategy::kVitBit)[i]);
    };
    if (call.kind == nn::KernelKind::kGemm &&
        (layer0 || call.name == "patch_embed" || call.name == "head")) {
      lin += ratio(Strategy::kTC);
      ++n_lin;
    } else if (call.kind != nn::KernelKind::kGemm && layer0) {
      cud += ratio(Strategy::kIC);
      ++n_cud;
    }
  }
  m.linear_x = lin / n_lin;
  m.cuda_kernel_x = cud / n_cud;
  return m;
}

// Default (untuned) plans, as core::time_inference builds them for a
// strategy's single candidate (vitbit/pipeline.cpp).
trace::GemmBlockPlan default_gemm_plan(Strategy s,
                                       const core::StrategyConfig& cfg,
                                       const vitbit::arch::Calibration& c) {
  switch (s) {
    case Strategy::kTC: return trace::plan_tc(c);
    case Strategy::kIC: return trace::plan_ic(c);
    case Strategy::kFC: return trace::plan_fc(c);
    case Strategy::kICFC: return trace::plan_ic_fc(c);
    case Strategy::kTacker: return trace::plan_tacker(c, cfg.fused_cuda_cols);
    case Strategy::kTCICFC:
      return trace::plan_tc_ic_fc(c, cfg.fused_cuda_cols);
    case Strategy::kVitBit:
      return trace::plan_vitbit(c, cfg.fused_cuda_cols, cfg.pack_factor);
  }
  return {};
}

trace::ElementwisePlan default_elementwise_plan(
    Strategy s, const nn::KernelCall& call, const core::StrategyConfig& cfg,
    const vitbit::arch::Calibration& c) {
  auto plan = trace::elementwise_plan(call.kind, call.elems, c);
  if (s == Strategy::kFC) plan.fp_fraction = 1.0;
  if (s == Strategy::kICFC) plan.fp_fraction = 0.5;
  if (s == Strategy::kVitBit) {
    plan.fp_fraction = cfg.elementwise_fp_fraction;
    plan.pack_int = plan.int_ops_per_elem >= 8;
    plan.pack_factor = cfg.pack_factor;
  }
  return plan;
}

bool fused(Strategy s) {
  return s == Strategy::kTacker || s == Strategy::kTCICFC ||
         s == Strategy::kVitBit;
}

core::CallKey key_of(Strategy s, const nn::KernelCall& c) {
  return core::CallKey{s, c.kind, c.m, c.k, c.n, c.batch, c.elems};
}

// One call per distinct kernel shape of `log`, in first-appearance order.
std::vector<nn::KernelCall> distinct_calls(const nn::KernelLog& log) {
  std::vector<nn::KernelCall> out;
  for (const auto& call : log.calls()) {
    const bool seen = std::any_of(out.begin(), out.end(), [&](const auto& o) {
      return key_of(Strategy::kTC, o) == key_of(Strategy::kTC, call);
    });
    if (!seen) out.push_back(call);
  }
  return out;
}

// Per-class sub-logs: the layer-0 call of each named class and, as misc,
// every other distinct shape. Together they hold each distinct shape of
// the full log exactly once (checked).
std::map<std::string, nn::KernelLog> class_sublogs(const nn::KernelLog& log) {
  std::map<std::string, nn::KernelLog> out;
  std::vector<core::CallKey> covered;
  const auto take = [&](const std::string& cls, const nn::KernelCall& call) {
    const auto key = key_of(Strategy::kTC, call);
    if (std::find(covered.begin(), covered.end(), key) != covered.end())
      return;
    covered.push_back(key);
    out[cls].add(call);
  };
  for (const auto& call : log.calls())
    if (call.name.rfind("layer0.", 0) == 0 && kernel_class(call.name) != "misc")
      take(kernel_class(call.name), call);
  for (const auto& call : log.calls()) take("misc", call);
  if (covered.size() != distinct_calls(log).size() ||
      out.size() != kClasses.size())
    throw std::logic_error("kernel-class sub-logs do not cover the log");
  return out;
}

// Seed-shuffled order of the seven strategies (Fisher-Yates).
std::vector<Strategy> strategy_order(std::uint64_t seed) {
  auto order = core::all_strategies();
  vitbit::Rng rng(mix_seed(seed, 0x7157));
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.next_u64() % (i + 1)]);
  return order;
}

}  // namespace

Outcome run_vit_timing(const Options& opts, Tracer& tracer) {
  Outcome out;
  const vitbit::arch::OrinSpec spec;
  vitbit::arch::Calibration calib = vitbit::arch::default_calibration();
  if (opts.perturb_calibration) {
    // A 10% tensor-core slowdown (check_regression --tc-macs=108).
    calib.tc_macs_per_cycle = 108;
    calib.imma_occupancy_cycles = (4096 + 107) / 108;
  }
  const core::StrategyConfig cfg;
  nn::KernelLog log;
  {
    Scope s(tracer, "nn.build_kernel_log");
    log = nn::build_kernel_log(nn::vit_base());
  }
  Baseline baseline;
  {
    Scope s(tracer, "bench.load_baselines");
    baseline = load_baseline(opts.root);
  }
  vitbit::ThreadPool pool(kThreads);
  const auto order = strategy_order(opts.seed);
  out.setup_done(opts);
  if (opts.setup_only) return out;

  // Per-kernel cycles in log order, per strategy (for modelled figures).
  std::map<Strategy, std::vector<std::uint64_t>> cycles;

  if (!tracer.enabled()) {
    CallTimer timer(opts.probe);
    std::map<Strategy, double> secs;  // raw
    double scaled = 0;
    for (const auto s : order) {
      ++out.attempted;
      try {
        core::InferenceTiming r;
        const double raw_before = timer.raw_s();
        scaled += timer.time([&] {
          r = core::time_inference(log, s, cfg, spec, calib, &pool);
        });
        secs[s] = timer.raw_s() - raw_before;
        if (const auto bad = check_timing(r, baseline); !bad.empty())
          out.fail(bad);
        for (const auto& k : r.kernels) cycles[s].push_back(k.cycles);
      } catch (const std::exception& e) {
        out.fail(std::string(core::strategy_name(s)) + ": " + e.what());
        return out;
      }
    }
    out.units.push_back(scaled);
    out.raw_units.push_back(timer.raw_s());
    const auto m = modelled(log, cycles);
    out.note("timing_s", timer.raw_s(), "s");
    for (const auto s : core::all_strategies())
      out.note("strategy." + strategy_key(s) + "_s", secs[s], "s");
    out.note("vitbit_speedup_x (modelled; paper 1.22)", m.speedup_x, "x");
    out.note("fig5_err_pct (modelled vs paper Fig. 5)", m.fig5_err_pct, "%");
    return out;
  }

  // ---- Traced run ----
  // 1. Direct default-plan builds and launches, one per distinct kernel
  //    per strategy, serially.
  const auto distinct = distinct_calls(log);
  double builds = 0, launches = 0, gemm_instr = 0, ew_instr = 0, sim_cyc = 0;
  double gemm_launch_ns = 0, ew_launch_ns = 0;
  for (const auto s : order) {
    const std::string tag = std::string("/").append(strategy_key(s));
    for (const auto& call : distinct) {
      const bool gemm = call.kind == nn::KernelKind::kGemm;
      vitbit::sim::KernelSpec kernel;
      {
        Scope b(tracer, "trace.build" + tag);
        kernel = gemm ? trace::build_gemm_kernel(
                            {call.m, call.k, call.n, call.batch},
                            default_gemm_plan(s, cfg, calib), spec, calib)
                      : trace::build_elementwise_kernel(
                            default_elementwise_plan(s, call, cfg, calib),
                            spec, calib);
      }
      const auto t0 = now_ns();
      vitbit::sim::LaunchResult r;
      {
        Scope l(tracer, "sim.launch" + tag);
        r = vitbit::sim::launch_kernel(kernel, spec, calib);
      }
      const auto dt = static_cast<double>(now_ns() - t0);
      ++builds;
      ++launches;
      (gemm ? gemm_instr : ew_instr) +=
          static_cast<double>(r.sm.instructions_issued);
      (gemm ? gemm_launch_ns : ew_launch_ns) += dt;
      sim_cyc += static_cast<double>(r.sm.cycles);
      // Single-candidate strategies must reproduce the baseline directly.
      if (s == Strategy::kTC || s == Strategy::kIC || s == Strategy::kFC) {
        const auto& e =
            baseline[core::strategy_name(s)][baseline_kernel_name(call.name)];
        if (r.total_cycles != e.cycles)
          out.fail(std::string("direct launch ") + core::strategy_name(s) +
                   "/" + call.name + ": cycles " +
                   std::to_string(r.total_cycles) + ", baseline " +
                   std::to_string(e.cycles));
      }
    }
  }

  // 2. time_inference per (strategy, kernel class) sub-log.
  const auto sublogs = class_sublogs(log);
  std::map<Strategy,
           std::unordered_map<core::CallKey, std::uint64_t, core::CallKeyHash>>
      by_key;
  for (const auto s : order) {
    for (const auto& cls : kClasses) {
      ++out.attempted;
      try {
        core::InferenceTiming r;
        {
          Scope t(tracer, "vitbit.time_inference/" + strategy_key(s) + "/" +
                              cls);
          r = core::time_inference(sublogs.at(cls), s, cfg, spec, calib,
                                   &pool);
        }
        if (const auto bad = check_timing(r, baseline); !bad.empty())
          out.fail(bad);
        const auto& calls = sublogs.at(cls).calls();
        for (std::size_t i = 0; i < calls.size(); ++i)
          by_key[s][key_of(s, calls[i])] = r.kernels[i].cycles;
      } catch (const std::exception& e) {
        out.fail(std::string(core::strategy_name(s)) + "/" + cls + ": " +
                 e.what());
        return out;
      }
    }
  }
  for (const auto s : order)
    for (const auto& call : log.calls())
      cycles[s].push_back(by_key[s].at(key_of(s, call)));

  const auto self = tracer.self_ns_by_name();
  double fused_tune_s = 0, fused_direct_s = 0, build_s = 0, launch_s = 0;
  for (const auto s : order) {
    const auto sk = strategy_key(s);
    double strategy_s = 0;
    for (const auto& cls : kClasses) {
      const double t = span_s(self, "vitbit.time_inference/" + sk + "/" + cls);
      strategy_s += t;
      out.metrics["vitbit.kernel." + cls + "_s"] += t;
    }
    out.metrics["vitbit.strategy." + sk + "_s"] = strategy_s;
    const double b = span_s(self, "trace.build/" + sk);
    const double l = span_s(self, "sim.launch/" + sk);
    build_s += b;
    launch_s += l;
    if (fused(s)) {
      fused_tune_s += strategy_s;
      fused_direct_s += b + l;
    }
  }
  out.metrics["vitbit.tune_overhead_x"] = fused_tune_s / fused_direct_s;
  out.metrics["trace.builds"] = builds;
  out.metrics["trace.build_s"] = build_s;
  out.metrics["sim.launches"] = launches;
  out.metrics["sim.launch_s"] = launch_s;
  out.metrics["sim.gemm_minstr_per_s"] = gemm_instr / gemm_launch_ns * 1e3;
  out.metrics["sim.ew_minstr_per_s"] = ew_instr / ew_launch_ns * 1e3;
  out.metrics["sim.mcycles_per_s"] =
      sim_cyc / (gemm_launch_ns + ew_launch_ns) * 1e3;
  const auto m = modelled(log, cycles);
  out.metrics["vitbit.speedup_x"] = m.speedup_x;
  out.metrics["vitbit.fig5_err_pct"] = m.fig5_err_pct;
  out.metrics["vitbit.linear_speedup_x"] = m.linear_x;
  out.metrics["vitbit.cuda_kernel_speedup_x"] = m.cuda_kernel_x;
  out.note("vitbit.linear_speedup_x (modelled; paper " +
               std::to_string(kPaperLinear).substr(0, 4) + ")",
           m.linear_x, "x");
  out.note("vitbit.cuda_kernel_speedup_x (modelled; paper " +
               std::to_string(kPaperCudaKernel).substr(0, 4) + ")",
           m.cuda_kernel_x, "x");
  return out;
}

}  // namespace perfbench
