#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/check.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "serve/fleet_loop.h"

namespace vitbit::serve {

namespace {

std::string fmt_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// Disjoint per-shard fault streams: each shard's FaultModel gets its own
// seed so shards fail independently (a different stride from the
// per-replica derivation inside FaultModel, so shard and replica streams
// never alias).
std::uint64_t shard_fault_seed(std::uint64_t seed, int shard) {
  return seed + kSeedStride * (static_cast<std::uint64_t>(shard) + 1);
}

// Unsigned CLI knob: a negative value would wrap through the uint64 cast
// into an absurdly huge one (e.g. --scale-cooldown-us=-1 becoming a
// cooldown of ~584 000 years that then overflows the expiry arithmetic),
// so fail loud instead.
std::uint64_t get_uint(const Cli& cli, const std::string& name,
                       std::int64_t def) {
  const auto v = cli.get_int(name, def);
  VITBIT_CHECK_MSG(v >= 0, "--" << name << " must be >= 0, got " << v);
  return static_cast<std::uint64_t>(v);
}

// Comma-split; `unique` rejects repeated entries (a duplicated model name
// silently double-counting a zoo member), which per-class arrival lists
// legitimately have ("poisson,poisson").
std::vector<std::string> split_list(const std::string& spec, const char* what,
                                    bool unique) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    VITBIT_CHECK_MSG(!item.empty(),
                     "empty entry in " << what << " list: " << spec);
    VITBIT_CHECK_MSG(
        !unique || std::find(out.begin(), out.end(), item) == out.end(),
        "duplicate " << what << " in list: " << item);
    out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// Every entry must be a finite number (including on "inf" and entries
// that overflow double), strictly positive when `require_positive`, and
// nonnegative otherwise.
std::vector<double> parse_number_list(const std::string& spec,
                                      const char* what, bool require_positive) {
  std::vector<double> out;
  for (const auto& item : split_list(spec, what, /*unique=*/false)) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    // strtod happily parses "inf"/"nan" and saturates overflow to HUGE_VAL,
    // so the finiteness check is load-bearing, not belt-and-braces.
    const bool parsed = end != nullptr && *end == '\0' && std::isfinite(v);
    VITBIT_CHECK_MSG(parsed && (require_positive ? v > 0.0 : v >= 0.0),
                     what << "-list entry is not a "
                          << (require_positive ? "positive" : "nonnegative")
                          << " finite number: " << item);
    out.push_back(v);
  }
  return out;
}

// Mix fractions (traffic shares, per-model mixes): finite nonnegative
// numbers summing to > 0; callers normalize.
std::vector<double> parse_fraction_list(const std::string& spec,
                                        const char* what) {
  auto out = parse_number_list(spec, what, /*require_positive=*/false);
  double sum = 0.0;
  for (const double v : out) sum += v;
  VITBIT_CHECK_MSG(sum > 0.0, what << " list sums to zero: " << spec);
  return out;
}

std::string join_list(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) {
    if (!out.empty()) out += ",";
    out += s;
  }
  return out;
}

std::string join_nums(const std::vector<double>& items) {
  std::string out;
  for (const double v : items) {
    if (!out.empty()) out += ",";
    out += fmt_num(v);
  }
  return out;
}

}  // namespace

ServeMetrics aggregate_shard_metrics(const std::vector<ServeMetrics>& shards,
                                     std::uint64_t end_us) {
  ServeMetrics m;
  std::uint64_t span_sum_us = 0;  // sum of per-shard virtual-time spans
  for (const auto& s : shards) {
    m.offered += s.offered;
    m.completed += s.completed;
    m.dropped += s.dropped;
    m.batch_failures += s.batch_failures;
    m.retries += s.retries;
    m.requeued += s.requeued;
    m.shed += s.shed;
    m.failovers += s.failovers;
    m.degraded_s += s.degraded_s;
    m.batches += s.batches;
    m.within_slo += s.within_slo;
    m.busy_us += s.busy_us;
    m.replica_time_us += s.replica_time_us;
    m.depth_integral_us += s.depth_integral_us;
    m.batched_requests += s.batched_requests;
    m.max_queue_depth = std::max(m.max_queue_depth, s.max_queue_depth);
    span_sum_us += s.end_us;
  }
  m.end_us = end_us;
  m.duration_s = static_cast<double>(end_us) / 1e6;
  m.mean_batch_size = m.batches == 0
                          ? 0.0
                          : static_cast<double>(m.batched_requests) /
                                static_cast<double>(m.batches);
  m.drop_rate = m.offered == 0 ? 0.0
                               : static_cast<double>(m.dropped) /
                                     static_cast<double>(m.offered);
  if (end_us > 0) {
    m.throughput_rps = static_cast<double>(m.completed) / m.duration_s;
    m.goodput_rps = static_cast<double>(m.within_slo) / m.duration_s;
  }
  // Span-weighted ratios: a shard that served twice the replica-time (or
  // span) contributes twice the weight, instead of a naive average of the
  // per-shard ratios — fleet_test pins the two-shard unequal-span case.
  if (m.replica_time_us > 0)
    m.utilization = static_cast<double>(m.busy_us) /
                    static_cast<double>(m.replica_time_us);
  if (span_sum_us > 0)
    m.mean_queue_depth = static_cast<double>(m.depth_integral_us) /
                         static_cast<double>(span_sum_us);
  return m;
}

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kNone:
      return "none";
    case PlacementPolicy::kSpread:
      return "spread";
  }
  return "?";
}

PlacementPolicy placement_policy_from_name(const std::string& name) {
  if (name == "none") return PlacementPolicy::kNone;
  if (name == "spread") return PlacementPolicy::kSpread;
  VITBIT_CHECK_MSG(false, "unknown placement policy: " << name
                                                       << " (want none|spread)");
  return PlacementPolicy::kNone;
}

void FleetSchedConfig::validate() const {
  VITBIT_CHECK_MSG(num_shards >= 1, "fleet needs >= 1 shard");
  VITBIT_CHECK_MSG(cold_route_classes >= 0,
                   "cold_route_classes must be >= 0, got "
                       << cold_route_classes);
  shard.validate();
  autoscale.validate();
  if (autoscale.enabled())
    VITBIT_CHECK_MSG(shard.faults.degrade_below_live <= autoscale.max_replicas,
                     "degrade_below_live "
                         << shard.faults.degrade_below_live
                         << " exceeds max_replicas "
                         << autoscale.max_replicas);
}

FleetSchedMetrics simulate_fleet_sched(const MixedWorkloadConfig& workload,
                                       const ModelRegistry& registry,
                                       const FleetSchedConfig& cfg) {
  cfg.validate();
  const auto n = static_cast<std::size_t>(cfg.num_shards);
  std::vector<std::unique_ptr<SchedSim>> shards;
  shards.reserve(n);
  for (int s = 0; s < cfg.num_shards; ++s) {
    SchedConfig sc = cfg.shard;
    sc.faults.seed = shard_fault_seed(cfg.shard.faults.seed, s);
    shards.push_back(std::make_unique<SchedSim>(registry, sc,
                                                cfg.percentiles,
                                                cfg.autoscale));
  }
  if (cfg.placement == PlacementPolicy::kSpread)
    for (int s = 0; s < cfg.num_shards; ++s)
      shards[static_cast<std::size_t>(s)]->prestage(s %
                                                    registry.num_models());
  Router router(cfg.route, cfg.route_seed, cfg.num_shards);
  MixedWorkloadStream stream(workload);

  // Warm routing steers by class rank: the lowest-priority
  // cold_route_classes classes prefer cold shards, everyone else prefers
  // warm ones. Clamped so at least one class routes warm whenever there
  // are >= 2 classes (with one class, all traffic is "interactive").
  const int n_classes = static_cast<int>(cfg.shard.classes.size());
  const int cold_classes =
      n_classes > 1 ? std::min(cfg.cold_route_classes, n_classes - 1) : 0;

  std::vector<SchedSim*> shard_ptrs;
  shard_ptrs.reserve(n);
  for (auto& sh : shards) shard_ptrs.push_back(sh.get());
  std::vector<char> warm(n, 0);
  const std::uint64_t end = drive_fleet_loop(
      stream, shard_ptrs,
      [&](const Request& r, const std::vector<std::size_t>& loads) {
        if (router.policy() != RoutePolicy::kWarm)
          return router.route(r, loads);
        // Warmth is sampled live per decision, like the loads: prior
        // routing decisions move the LRU caches, and the mask must see
        // them.
        for (std::size_t s = 0; s < n; ++s)
          warm[s] = shard_ptrs[s]->warm_for(r.model) ? 1 : 0;
        const bool prefer_cold =
            cold_classes > 0 && r.cls >= n_classes - cold_classes;
        return router.route(r, loads, warm, prefer_cold);
      });

  FleetSchedMetrics fm;
  fm.per_shard.reserve(n);
  for (auto& sh : shards) {
    // Each shard finalizes at its own span: metric denominators reflect
    // the time the shard actually served, which is what the span-weighted
    // aggregation below expects.
    fm.per_shard.push_back(sh->finalize(sh->last_activity_us()));
    fm.scale_ups += sh->scale_ups();
    fm.scale_downs += sh->scale_downs();
  }

  // Every scope aggregates its counters across shards, then takes its
  // percentiles over the union of the shards' sinks: rows[s] and
  // sinks[s] hold shard s's metrics and sink for the scope at hand.
  std::vector<ServeMetrics> rows(n);
  std::vector<const MetricsSink*> sinks(n);
  const auto aggregate = [&] {
    auto m = aggregate_shard_metrics(rows, end);
    fill_percentiles(m, sinks);
    return m;
  };
  for (std::size_t s = 0; s < n; ++s) {
    rows[s] = fm.per_shard[s].total;
    sinks[s] = &shards[s]->total_sink();
  }
  fm.total.total = aggregate();
  const auto n_class = fm.per_shard[0].per_class.size();
  for (std::size_t c = 0; c < n_class; ++c) {
    for (std::size_t s = 0; s < n; ++s) {
      rows[s] = fm.per_shard[s].per_class[c];
      sinks[s] = &shards[s]->class_sink(c);
    }
    fm.total.per_class.push_back(aggregate());
  }
  const auto n_model = fm.per_shard[0].per_model.size();
  for (std::size_t m = 0; m < n_model; ++m) {
    for (std::size_t s = 0; s < n; ++s) {
      rows[s] = fm.per_shard[s].per_model[m];
      sinks[s] = &shards[s]->model_sink(m);
    }
    fm.total.per_model.push_back(aggregate());
  }
  for (const auto& ps : fm.per_shard) {
    fm.total.preemptions += ps.preemptions;
    fm.total.model_swaps += ps.model_swaps;
    fm.total.cold_swaps += ps.cold_swaps;
    fm.total.swap_us += ps.swap_us;
  }

  // Utilization spread over the shards that actually served: a shard the
  // router never touched finalizes with a zero-width span (end_us == 0)
  // and a meaningless 0.0 utilization — including it would pin the min to
  // zero and report the fleet as maximally imbalanced. When every shard
  // is degenerate the spread stays 0/0.
  bool have_util = false;
  for (const auto& ps : fm.per_shard) {
    if (ps.total.end_us == 0) continue;
    if (!have_util) {
      fm.shard_util_min = ps.total.utilization;
      fm.shard_util_max = ps.total.utilization;
      have_util = true;
      continue;
    }
    fm.shard_util_min = std::min(fm.shard_util_min, ps.total.utilization);
    fm.shard_util_max = std::max(fm.shard_util_max, ps.total.utilization);
  }

  check_conservation(fm.total.total, "fleet");
  for (std::size_t c = 0; c < fm.total.per_class.size(); ++c)
    check_conservation(fm.total.per_class[c], "fleet class " +
                                                  std::to_string(c));
  for (std::size_t m = 0; m < fm.total.per_model.size(); ++m)
    check_conservation(fm.total.per_model[m], "fleet model " +
                                                  std::to_string(m));
  for (std::size_t s = 0; s < n; ++s)
    check_conservation(fm.per_shard[s].total, "shard " + std::to_string(s));
  return fm;
}

void FleetSchedSweepConfig::validate() const {
  VITBIT_CHECK_MSG(!model_names.empty(), "sweep needs >= 1 model");
  VITBIT_CHECK_MSG(layers >= 0, "layers must be >= 0, got " << layers);
  VITBIT_CHECK_MSG(!strategies.empty(), "sweep needs >= 1 strategy");
  VITBIT_CHECK_MSG(!modes.empty(), "sweep needs >= 1 mode");
  VITBIT_CHECK_MSG(!routes.empty(), "sweep needs >= 1 route");
  VITBIT_CHECK_MSG(!rates_rps.empty(), "sweep needs >= 1 rate");
  VITBIT_CHECK_MSG(workload.classes.size() == fleet.shard.classes.size(),
                   "traffic classes (" << workload.classes.size()
                                       << ") and scheduling classes ("
                                       << fleet.shard.classes.size()
                                       << ") must pair up");
  // Mode names are validated through the shard config they will be swept
  // into, so the error fires here rather than mid-sweep.
  for (const auto& m : modes) {
    FleetSchedConfig f = fleet;
    f.shard.mode = m;
    f.validate();
  }
  swap.validate();
}

std::vector<FleetSchedPoint> run_fleet_sched_sweep(
    const FleetSchedSweepConfig& cfg, const arch::OrinSpec& spec,
    const arch::Calibration& calib, ThreadPool* pool) {
  cfg.validate();
  // Phase 1: one memoized latency table per (zoo model, strategy), shared
  // immutably by every shard of every sweep point. The fallback strategy
  // rides along only when degraded-mode failover is on and it is not
  // already swept (the common TC-next-to-VitBit sweep costs no extra
  // simulations).
  auto strategies = cfg.strategies;
  const auto fallback = cfg.fleet.shard.fallback_strategy;
  if (cfg.fleet.shard.faults.degrade_below_live > 0 &&
      std::find(strategies.begin(), strategies.end(), fallback) ==
          strategies.end())
    strategies.push_back(fallback);
  const ModelRegistry registry(cfg.model_names, strategies, spec, calib,
                               cfg.fleet.shard.max_batch, cfg.swap, pool,
                               cfg.layers);
  // Phase 2: one single-threaded fleet loop per (strategy, mode, route,
  // rate) point, fanned out over the pool in index order. The workload
  // regenerates from the shared seed, so every point faces the
  // byte-identical request stream.
  const auto n_modes = cfg.modes.size();
  const auto n_routes = cfg.routes.size();
  const auto n_rates = cfg.rates_rps.size();
  const auto per_strategy = n_modes * n_routes * n_rates;
  return parallel_map(
      pool, cfg.strategies.size() * per_strategy, [&](std::size_t i) {
        FleetSchedPoint point;
        point.strategy = cfg.strategies[i / per_strategy];
        point.mode = cfg.modes[i / (n_routes * n_rates) % n_modes];
        point.route = cfg.routes[i / n_rates % n_routes];
        point.rate_rps = cfg.rates_rps[i % n_rates];
        MixedWorkloadConfig w = cfg.workload;
        w.rate_rps = point.rate_rps;
        w.num_models = static_cast<int>(cfg.model_names.size());
        FleetSchedConfig fc = cfg.fleet;
        fc.shard.strategy = point.strategy;
        fc.shard.mode = point.mode;
        fc.route = point.route;
        point.metrics = simulate_fleet_sched(w, registry, fc);
        return point;
      });
}

Table fleet_sched_table(const FleetSchedSweepConfig& cfg,
                        const std::vector<FleetSchedPoint>& points) {
  Table t("serving fleet — " + std::to_string(cfg.fleet.num_shards) +
          " shard(s) over " + join_list(cfg.model_names) + ", placement " +
          placement_policy_name(cfg.fleet.placement));
  t.header({"strategy", "mode", "route", "rate (req/s)", "goodput",
            "p99 (ms)", "drop %", "shed", "preempt", "cold swaps",
            "util spread"});
  for (const auto& p : points) {
    const auto& m = p.metrics.total.total;
    t.row()
        .cell(core::strategy_name(p.strategy))
        .cell(p.mode)
        .cell(route_policy_name(p.route))
        .cell(p.rate_rps, 1)
        .cell(m.goodput_rps, 1)
        .cell(static_cast<double>(m.p99_us) / 1e3, 3)
        .cell(m.drop_rate * 100.0, 2)
        .cell(static_cast<double>(m.shed), 0)
        .cell(static_cast<double>(p.metrics.total.preemptions), 0)
        .cell(static_cast<double>(p.metrics.total.cold_swaps), 0)
        .cell(p.metrics.shard_util_max - p.metrics.shard_util_min, 3);
  }
  return t;
}

std::vector<double> parse_rate_list(const std::string& spec) {
  return parse_number_list(spec, "rate", /*require_positive=*/true);
}

FleetSchedSweepConfig fleet_sched_config_from_cli(const Cli& cli) {
  FleetSchedSweepConfig cfg;
  cfg.model_names = split_list(cli.get("models", "vit-b"), "model",
                               /*unique=*/true);
  cfg.layers = static_cast<int>(get_uint(cli, "layers", 0));
  cfg.strategies.clear();
  for (const auto& name :
       split_list(cli.has("strategy") ? cli.get("strategy", "")
                                      : cli.get("strategies", "TC,VitBit"),
                  "strategy", /*unique=*/true))
    cfg.strategies.push_back(core::strategy_from_name(name));
  cfg.modes = split_list(cli.get("modes", "fifo,cb,cb-pre"), "mode",
                         /*unique=*/true);
  cfg.routes = parse_route_list(cli.has("route") ? cli.get("route", "")
                                                 : cli.get("routes", "jsq"));
  if (cli.has("rates"))
    cfg.rates_rps = parse_rate_list(cli.get("rates", ""));
  else if (cli.has("rate"))
    cfg.rates_rps = parse_rate_list(cli.get("rate", ""));

  auto& shard = cfg.fleet.shard;
  shard.slo_us = get_uint(cli, "slo-us", 50000);
  const auto class_names =
      split_list(cli.get("classes", "default"), "class", /*unique=*/true);
  const auto n = class_names.size();
  // Per-class lists: one entry applies to every class.
  auto per_class = [&](const char* flag, auto vals) {
    if (vals.size() == 1 && n > 1) {
      const auto only = vals[0];
      vals.assign(n, only);
    }
    VITBIT_CHECK_MSG(vals.size() == n, "--" << flag << " has " << vals.size()
                                            << " entries for " << n
                                            << " classes");
    return vals;
  };
  const auto weights = per_class(
      "weights", parse_number_list(cli.get("weights", "1"), "weight",
                                   /*require_positive=*/true));
  // The class SLOs default to the aggregate --slo-us target.
  const auto slos = per_class(
      "slos-us", parse_number_list(
                     cli.get("slos-us", std::to_string(shard.slo_us)), "slo",
                     /*require_positive=*/true));
  const auto shares =
      per_class("shares", parse_fraction_list(cli.get("shares", "1"), "share"));
  const auto arrivals = per_class(
      "arrivals", split_list(cli.has("arrival")
                                 ? cli.get("arrival", "")
                                 : cli.get("arrivals", "poisson"),
                             "arrival", /*unique=*/false));
  const std::vector<double> shared_mix =
      cli.has("mix") ? parse_fraction_list(cli.get("mix", ""), "mix")
                     : std::vector<double>{};
  shard.classes.clear();
  cfg.workload.classes.clear();
  for (std::size_t c = 0; c < n; ++c) {
    shard.classes.push_back(
        {class_names[c], weights[c],
         static_cast<std::uint64_t>(std::llround(slos[c]))});
    ClassTraffic traffic;
    traffic.kind = arrival_kind_from_name(arrivals[c]);
    traffic.rate_share = shares[c];
    traffic.burst_on_s = cli.get_double("burst-on-s", traffic.burst_on_s);
    traffic.burst_off_s = cli.get_double("burst-off-s", traffic.burst_off_s);
    const std::string mix_flag = "mix" + std::to_string(c);
    traffic.model_mix = cli.has(mix_flag)
                            ? parse_fraction_list(cli.get(mix_flag, ""), "mix")
                            : shared_mix;
    VITBIT_CHECK_MSG(traffic.model_mix.empty() ||
                         traffic.model_mix.size() == cfg.model_names.size(),
                     "class " << class_names[c] << " model mix has "
                              << traffic.model_mix.size() << " entries for "
                              << cfg.model_names.size() << " models");
    cfg.workload.classes.push_back(std::move(traffic));
  }
  cfg.workload.duration_s = cli.get_double("duration-s", 2.0);
  cfg.workload.seed = get_uint(cli, "seed", 42);

  shard.policy = cli.get("policy", "greedy");
  shard.batch_timeout_us = get_uint(cli, "batch-timeout-us", 2000);
  shard.max_batch = static_cast<int>(cli.get_int("max-batch", 8));
  shard.queue_capacity = static_cast<int>(cli.get_int("queue-capacity", 64));
  shard.num_gpus = static_cast<int>(
      cli.get_int("num-gpus", cli.get_int("replicas", 1)));
  shard.iters = static_cast<int>(cli.get_int("iters", 4));
  shard.fallback_strategy =
      core::strategy_from_name(cli.get("fallback", "TC"));
  auto& f = shard.faults;
  f.seed = get_uint(cli, "fault-seed", 1);
  f.replica_mtbf_s = cli.get_double("mtbf-s", 0.0);
  f.replica_mttr_s = cli.get_double("mttr-s", 0.05);
  f.batch_failure_prob = cli.get_double("batch-fail-prob", 0.0);
  f.latency_spike_prob = cli.get_double("spike-prob", 0.0);
  f.latency_spike_mult = cli.get_double("spike-mult", 4.0);
  f.max_retries = static_cast<int>(cli.get_int("max-retries", 2));
  f.retry_backoff_us = get_uint(cli, "retry-backoff-us", 1000);
  f.degrade_below_live = static_cast<int>(cli.get_int("degrade-below", 0));

  cfg.swap.cache_models = static_cast<int>(cli.get_int("cache-models", 1));
  cfg.swap.load_gbps = cli.get_double("load-gbps", cfg.swap.load_gbps);
  cfg.swap.warm_swap_us = get_uint(cli, "warm-swap-us", 200);

  auto& fleet = cfg.fleet;
  fleet.percentiles = cli.get_bool("exact", false) ? PercentileMode::kExact
                                                   : PercentileMode::kSketch;
  fleet.num_shards = static_cast<int>(cli.get_int("shards", 1));
  fleet.route_seed = get_uint(cli, "route-seed", 1);
  fleet.placement = placement_policy_from_name(cli.get("placement", "none"));
  fleet.cold_route_classes =
      static_cast<int>(get_uint(cli, "cold-route-classes", 1));

  auto& as = fleet.autoscale;
  as.min_replicas =
      static_cast<int>(cli.get_int("min-replicas", shard.num_gpus));
  as.max_replicas =
      static_cast<int>(cli.get_int("max-replicas", as.min_replicas));
  as.interval_us = get_uint(cli, "scale-interval-us", 50000);
  as.up_queue_depth =
      static_cast<std::size_t>(get_uint(cli, "scale-up-depth", 16));
  as.down_queue_depth =
      static_cast<std::size_t>(get_uint(cli, "scale-down-depth", 2));
  as.up_p99_us = get_uint(cli, "scale-p99-us", 0);
  as.cooldown_us = get_uint(cli, "scale-cooldown-us", 200000);
  as.up_preempt_per_s = cli.get_double("scale-preempt-per-s", 0.0);
  as.up_slo_miss_rate = cli.get_double("scale-slo-miss-rate", 0.0);

  cfg.validate();
  return cfg;
}

report::RunReport make_fleet_sched_report(
    const FleetSchedSweepConfig& cfg,
    const std::vector<FleetSchedPoint>& points, const std::string& tool,
    int threads) {
  const auto& shard = cfg.fleet.shard;
  report::RunReport rep;
  rep.tool = tool;
  rep.meta = report::build_metadata();
  auto& meta = rep.meta;
  meta["models"] = join_list(cfg.model_names);
  meta["layers"] = std::to_string(cfg.layers);
  {
    std::vector<std::string> strategies, names, arrivals, routes;
    std::vector<double> weights, slos, shares;
    for (const auto s : cfg.strategies)
      strategies.push_back(core::strategy_name(s));
    for (const auto& c : shard.classes) {
      names.push_back(c.name);
      weights.push_back(c.weight);
      slos.push_back(static_cast<double>(c.slo_us));
    }
    for (std::size_t c = 0; c < cfg.workload.classes.size(); ++c) {
      const auto& t = cfg.workload.classes[c];
      arrivals.push_back(arrival_kind_name(t.kind));
      shares.push_back(t.rate_share);
      meta["mix" + std::to_string(c)] = join_nums(t.model_mix);
    }
    for (const auto r : cfg.routes) routes.push_back(route_policy_name(r));
    meta["strategies"] = join_list(strategies);
    meta["classes"] = join_list(names);
    meta["weights"] = join_nums(weights);
    meta["slos_us"] = join_nums(slos);
    meta["shares"] = join_nums(shares);
    meta["arrivals"] = join_list(arrivals);
    meta["routes"] = join_list(routes);
  }
  meta["modes"] = join_list(cfg.modes);
  meta["duration_s"] = fmt_num(cfg.workload.duration_s);
  meta["seed"] = std::to_string(cfg.workload.seed);
  meta["policy"] = shard.policy;
  meta["batch_timeout_us"] = std::to_string(shard.batch_timeout_us);
  meta["max_batch"] = std::to_string(shard.max_batch);
  meta["queue_capacity"] = std::to_string(shard.queue_capacity);
  meta["num_gpus"] = std::to_string(shard.num_gpus);
  meta["iters"] = std::to_string(shard.iters);
  meta["slo_us"] = std::to_string(shard.slo_us);
  meta["fallback"] = core::strategy_name(shard.fallback_strategy);
  const auto& f = shard.faults;
  meta["fault_seed"] = std::to_string(f.seed);
  meta["mtbf_s"] = fmt_num(f.replica_mtbf_s);
  meta["mttr_s"] = fmt_num(f.replica_mttr_s);
  meta["batch_fail_prob"] = fmt_num(f.batch_failure_prob);
  meta["spike_prob"] = fmt_num(f.latency_spike_prob);
  meta["spike_mult"] = fmt_num(f.latency_spike_mult);
  meta["max_retries"] = std::to_string(f.max_retries);
  meta["retry_backoff_us"] = std::to_string(f.retry_backoff_us);
  meta["degrade_below_live"] = std::to_string(f.degrade_below_live);
  meta["cache_models"] = std::to_string(cfg.swap.cache_models);
  meta["load_gbps"] = fmt_num(cfg.swap.load_gbps);
  meta["warm_swap_us"] = std::to_string(cfg.swap.warm_swap_us);
  meta["percentiles"] =
      cfg.fleet.percentiles == PercentileMode::kExact ? "exact" : "sketch";
  meta["shards"] = std::to_string(cfg.fleet.num_shards);
  meta["route_seed"] = std::to_string(cfg.fleet.route_seed);
  meta["placement"] = placement_policy_name(cfg.fleet.placement);
  meta["cold_route_classes"] = std::to_string(cfg.fleet.cold_route_classes);
  const auto& as = cfg.fleet.autoscale;
  meta["min_replicas"] = std::to_string(as.min_replicas);
  meta["max_replicas"] = std::to_string(as.max_replicas);
  meta["scale_interval_us"] = std::to_string(as.interval_us);
  meta["scale_up_depth"] = std::to_string(as.up_queue_depth);
  meta["scale_down_depth"] = std::to_string(as.down_queue_depth);
  meta["scale_p99_us"] = std::to_string(as.up_p99_us);
  meta["scale_cooldown_us"] = std::to_string(as.cooldown_us);
  meta["scale_preempt_per_s"] = fmt_num(as.up_preempt_per_s);
  meta["scale_slo_miss_rate"] = fmt_num(as.up_slo_miss_rate);
  rep.threads = threads;

  for (const auto& p : points) {
    const auto row = [&](const std::string& scope, const std::string& group,
                         const ServeMetrics& m) {
      report::FleetSchedPointReport fp;
      fp.strategy = core::strategy_name(p.strategy);
      fp.mode = p.mode;
      fp.route = route_policy_name(p.route);
      fp.scope = scope;
      fp.group = group;
      fp.rate_rps = p.rate_rps;
      fp.offered = m.offered;
      fp.completed = m.completed;
      fp.dropped = m.dropped;
      fp.batch_failures = m.batch_failures;
      fp.retries = m.retries;
      fp.requeued = m.requeued;
      fp.shed = m.shed;
      fp.failovers = m.failovers;
      fp.degraded_s = m.degraded_s;
      fp.batches = m.batches;
      fp.mean_batch_size = m.mean_batch_size;
      fp.drop_rate = m.drop_rate;
      fp.throughput_rps = m.throughput_rps;
      fp.goodput_rps = m.goodput_rps;
      fp.mean_queue_depth = m.mean_queue_depth;
      fp.max_queue_depth = m.max_queue_depth;
      fp.p50_us = m.p50_us;
      fp.p90_us = m.p90_us;
      fp.p95_us = m.p95_us;
      fp.p99_us = m.p99_us;
      return fp;
    };
    const auto& total = p.metrics.total;
    auto all = row("all", "all", total.total);
    all.utilization = total.total.utilization;
    all.preemptions = total.preemptions;
    all.model_swaps = total.model_swaps;
    all.cold_swaps = total.cold_swaps;
    all.swap_us = total.swap_us;
    all.scale_ups = p.metrics.scale_ups;
    all.scale_downs = p.metrics.scale_downs;
    all.shard_util_min = p.metrics.shard_util_min;
    all.shard_util_max = p.metrics.shard_util_max;
    rep.fleet_sched_points.push_back(std::move(all));
    for (std::size_t c = 0; c < total.per_class.size(); ++c)
      rep.fleet_sched_points.push_back(
          row("class", shard.classes[c].name, total.per_class[c]));
    for (std::size_t m = 0; m < total.per_model.size(); ++m)
      rep.fleet_sched_points.push_back(
          row("model", cfg.model_names[m], total.per_model[m]));
  }
  return rep;
}

}  // namespace vitbit::serve
