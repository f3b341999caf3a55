// fleet_serve: the scheduled serving fleet on the continuous-integration
// traffic mix — three zoo models (vit-tiny, vit-tiny-int4, cnn-small),
// three priority classes (SLOs 300 / 20 000 / 100 000 us, shares
// 0.2 / 0.5 / 0.3, equal WRR weights), four shards with spread placement,
// max_batch 4, iters 4, queue 32, one cached model per replica, at the
// saturated 20 000 req/s. The simulator runs only in set-up (the
// ModelRegistry's batch 1-4 latency tables); the timed work is the
// serving event loop.
//
// One unit of work is the four points {fifo, cb-pre} x {jsq, warm}, each
// simulate_fleet_sched call on its own seed-derived request stream (the
// no-repeat rule in bench.h), on this one thread. fifo's whole-batch
// dispatch (serve.cluster.fifo_*) is the control for changes to
// iteration-level dispatch or preemption. Every point must conserve
// requests (offered == completed +
// dropped + shed, in total, per class, per model and per shard), and in
// every unit warm routing must cause fewer cold swaps than jsq.
//
// Traced, each unit adds single-threaded probes of the layers below the
// fleet loop on fresh streams: MixedWorkloadStream alone, LatencySketch
// alone, and one shard (simulate_sched) at a quarter of the rate per
// mode. serve.cluster.* minus serve.sched.* is the fleet's own overhead.
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "bench.h"
#include "common/rng.h"
#include "serve/cluster.h"
#include "serve/models/registry.h"
#include "serve/sched/sched.h"
#include "serve/sketch.h"
#include "serve/workload.h"

namespace perfbench {
namespace {

namespace serve = vitbit::serve;

constexpr double kRateRps = 20000.0;
constexpr int kShards = 4;
// Virtual seconds per point: 100 000 offered requests at 20 000 req/s.
constexpr double kPointSeconds = 5.0;

const std::vector<std::string> kModels = {"vit-tiny", "vit-tiny-int4",
                                          "cnn-small"};

serve::MixedWorkloadConfig traffic(double rate_rps, std::uint64_t seed) {
  serve::MixedWorkloadConfig w;
  w.classes.assign(3, serve::ClassTraffic{});
  w.classes[0].rate_share = 0.2;
  w.classes[0].model_mix = {0.6, 0.2, 0.2};
  w.classes[1].rate_share = 0.5;
  w.classes[1].model_mix = {0.2, 0.6, 0.2};
  w.classes[2].rate_share = 0.3;
  w.classes[2].model_mix = {0.2, 0.2, 0.6};
  w.rate_rps = rate_rps;
  w.duration_s = kPointSeconds;
  w.seed = seed;
  w.num_models = static_cast<int>(kModels.size());
  return w;
}

serve::SchedConfig shard_config(const std::string& mode) {
  serve::SchedConfig s;
  s.mode = mode;
  s.max_batch = 4;
  s.queue_capacity = 32;
  s.iters = 4;
  s.classes = {{"interactive", 1.0, 300},
               {"standard", 1.0, 20000},
               {"batch", 1.0, 100000}};
  return s;
}

std::string conservation_error(const serve::ServeMetrics& m,
                               const std::string& scope) {
  if (m.offered == m.completed + m.dropped + m.shed) return "";
  return scope + ": offered " + std::to_string(m.offered) + " != completed " +
         std::to_string(m.completed) + " + dropped " +
         std::to_string(m.dropped) + " + shed " + std::to_string(m.shed);
}

// Request conservation at every aggregation point of one fleet result.
std::string check_conservation(const serve::FleetSchedMetrics& f) {
  std::vector<std::pair<const serve::ServeMetrics*, std::string>> scopes;
  scopes.push_back({&f.total.total, "total"});
  for (std::size_t c = 0; c < f.total.per_class.size(); ++c)
    scopes.push_back({&f.total.per_class[c], "class " + std::to_string(c)});
  for (std::size_t m = 0; m < f.total.per_model.size(); ++m)
    scopes.push_back({&f.total.per_model[m], "model " + std::to_string(m)});
  std::uint64_t shard_offered = 0;
  for (std::size_t s = 0; s < f.per_shard.size(); ++s) {
    scopes.push_back({&f.per_shard[s].total, "shard " + std::to_string(s)});
    shard_offered += f.per_shard[s].total.offered;
  }
  for (const auto& [m, scope] : scopes)
    if (auto e = conservation_error(*m, scope); !e.empty()) return e;
  if (shard_offered != f.total.total.offered)
    return "shards offered " + std::to_string(shard_offered) +
           " != fleet offered " + std::to_string(f.total.total.offered);
  return "";
}

struct Point {
  std::string mode;
  serve::RoutePolicy route;
  std::string name;  // metric form, e.g. cb_pre_warm
};

const std::vector<Point> kPoints = {
    {"fifo", serve::RoutePolicy::kJsq, "fifo_jsq"},
    {"fifo", serve::RoutePolicy::kWarm, "fifo_warm"},
    {"cb-pre", serve::RoutePolicy::kJsq, "cb_pre_jsq"},
    {"cb-pre", serve::RoutePolicy::kWarm, "cb_pre_warm"},
};

}  // namespace

Outcome run_fleet_serve(const Options& opts, Tracer& tracer) {
  Outcome out;
  const vitbit::arch::OrinSpec spec;
  const auto& calib = vitbit::arch::default_calibration();
  serve::SwapCostConfig swap;
  swap.cache_models = 1;
  std::unique_ptr<serve::ModelRegistry> registry;
  {
    Scope s(tracer, "serve.models.registry");
    registry = std::make_unique<serve::ModelRegistry>(
        kModels, vitbit::core::Strategy::kVitBit, spec, calib,
        /*max_batch=*/4, swap);
  }
  serve::FleetSchedConfig fleet;
  fleet.num_shards = kShards;
  fleet.placement = serve::PlacementPolicy::kSpread;
  fleet.cold_route_classes = 1;
  out.setup_done(opts);
  if (opts.setup_only) return out;

  CallTimer timer(opts.probe);
  double offered = 0;
  std::map<std::string, double> counts;  // first unit's exact counts
  std::map<std::string, double> layer_reqs;
  const auto t_start = now_ns();
  for (std::uint64_t unit = 0;
       unit == 0 || seconds_since(t_start) < opts.seconds; ++unit) {
    double u_s = 0;
    const double raw_before = timer.raw_s();
    std::map<std::string, std::uint64_t> cold;
    for (std::size_t p = 0; p < kPoints.size(); ++p) {
      const auto& pt = kPoints[p];
      fleet.shard = shard_config(pt.mode);
      fleet.route = pt.route;
      const auto w = traffic(kRateRps, mix_seed(opts.seed, unit, p));
      ++out.attempted;
      serve::FleetSchedMetrics m;
      try {
        u_s += timer.time([&] {
          Scope s(tracer, "serve.cluster." + pt.name);
          m = serve::simulate_fleet_sched(w, *registry, fleet);
        });
      } catch (const std::exception& e) {
        out.fail(pt.name + ": " + e.what());
        return out;
      }
      if (opts.tamper_conservation && unit == 0 && p == 0)
        ++m.total.total.completed;
      if (auto e = check_conservation(m); !e.empty())
        out.fail(pt.name + " unit " + std::to_string(unit) + ": " + e);
      offered += static_cast<double>(m.total.total.offered);
      layer_reqs["serve.cluster." + pt.name] +=
          static_cast<double>(m.total.total.offered);
      cold[pt.name] = m.total.cold_swaps;
      if (unit == 0) {
        const auto& t = m.total.total;
        counts["serve.offered"] += static_cast<double>(t.offered);
        counts["serve.completed"] += static_cast<double>(t.completed);
        counts["serve.dropped"] += static_cast<double>(t.dropped);
        counts["serve.preemptions"] += static_cast<double>(m.total.preemptions);
        counts["serve.model_swaps"] += static_cast<double>(m.total.model_swaps);
        counts["serve.cold_swaps"] += static_cast<double>(m.total.cold_swaps);
      }
    }
    for (const std::string mode : {"fifo", "cb_pre"})
      if (!(cold[mode + "_warm"] < cold[mode + "_jsq"]))
        out.fail(mode + " unit " + std::to_string(unit) +
                 ": warm cold swaps " + std::to_string(cold[mode + "_warm"]) +
                 " not below jsq " + std::to_string(cold[mode + "_jsq"]));
    out.units.push_back(u_s);
    out.raw_units.push_back(timer.raw_s() - raw_before);

    if (!tracer.enabled()) continue;
    // Layer probes, each on a stream no earlier call saw.
    {
      serve::MixedWorkloadStream stream(
          traffic(kRateRps, mix_seed(opts.seed, unit, 100)));
      std::uint64_t n = 0, sink = 0;
      {
        Scope s(tracer, "serve.workload");
        while (stream.has_next()) {
          sink += stream.next().arrival_us;
          ++n;
        }
      }
      layer_reqs["serve.workload"] += static_cast<double>(n);
      if (sink == 0) out.fail("empty request stream");
    }
    {
      // Heavy-tailed integer latencies, 1 us to ~100 ms.
      vitbit::Rng rng(mix_seed(opts.seed, unit, 101));
      std::vector<std::uint64_t> lat(100000);
      for (auto& v : lat)
        v = 1 + static_cast<std::uint64_t>(
                    std::exp(rng.uniform() * std::log(1e5)));
      serve::LatencySketch sketch;
      {
        Scope s(tracer, "serve.sketch");
        for (const auto v : lat) sketch.add(v);
      }
      layer_reqs["serve.sketch"] += static_cast<double>(lat.size());
      if (sketch.count() != lat.size()) out.fail("sketch lost samples");
    }
    for (const std::string mode : {"fifo", "cb-pre"}) {
      const std::string name = mode == "fifo" ? "fifo" : "cb_pre";
      const auto w = traffic(kRateRps / kShards,
                             mix_seed(opts.seed, unit, 102 + name.size()));
      serve::SchedMetrics m;
      {
        Scope s(tracer, "serve.sched." + name);
        m = serve::simulate_sched(w, *registry, shard_config(mode),
                                  serve::PercentileMode::kSketch);
      }
      layer_reqs["serve.sched." + name] +=
          static_cast<double>(m.total.offered);
      if (auto e = conservation_error(m.total, "sched " + name); !e.empty())
        out.fail(e);
    }
  }

  if (!tracer.enabled()) {
    out.note("serve_req_per_s", offered / timer.raw_s(), "req/s");
    return out;
  }
  const auto self = tracer.self_ns_by_name();
  out.metrics["serve.models.registry_s"] =
      span_s(self, "serve.models.registry");
  const auto ns_per = [&](const std::string& span) {
    return span_s(self, span) * 1e9 / layer_reqs[span];
  };
  out.metrics["serve.workload.ns_per_req"] = ns_per("serve.workload");
  out.metrics["serve.sketch.ns_per_add"] = ns_per("serve.sketch");
  out.metrics["serve.sched.fifo_ns_per_req"] = ns_per("serve.sched.fifo");
  out.metrics["serve.sched.cb_pre_ns_per_req"] = ns_per("serve.sched.cb_pre");
  for (const auto& pt : kPoints)
    out.metrics["serve.cluster." + pt.name + "_ns_per_req"] =
        ns_per("serve.cluster." + pt.name);
  for (const auto& [name, v] : counts) out.metrics[name] = v;
  out.metrics["serve.cold_swap_frac"] =
      counts["serve.cold_swaps"] / counts["serve.completed"];
  return out;
}

}  // namespace perfbench
