// The serving fleet and its sweep: many SchedSim shards (serve/sched)
// interleaved in one global virtual-time loop (serve/fleet_loop.h), fed
// by a Router (serve/router.h) that picks a shard per arrival, with
// optional reactive autoscaling per shard. One shard with jsq routing is
// the single server; more shards compare balancing policies (rr, jsq,
// po2c, and model-affinity warm routing) at rates and request counts no
// single replica could absorb. Every serving sweep, report, bench and
// CLI subcommand runs through run_fleet_sched_sweep.
//
// Determinism contract, extended from serve/sched: the fleet loop is
// single-threaded per sweep point (live-load routing couples the shards,
// so they cannot be simulated independently), shards step in index order
// at every timestamp, router decisions are pure functions of
// (seed, policy, request id, live loads and warmth). Parallelism only
// fans out over sweep points through ThreadPool::parallel_map, so
// reports are byte-identical at every --threads value.
//
// Memory contract: arrivals stream through MixedWorkloadStream and, in
// kSketch mode, latencies land in log-linear histograms
// (serve/sketch.h), so peak sink memory is independent of the request
// count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.h"
#include "report/run_report.h"
#include "serve/router.h"
#include "serve/sched/sched.h"

namespace vitbit {
class Cli;
}

namespace vitbit::serve {

// How the model zoo is staged across shards before traffic:
//   kNone    no prestaging — every shard starts cold, first load free
//   kSpread  shard s prestages model (s mod num_models) on all its
//            replicas — every model warm somewhere (when shards >=
//            models), which the warm routing policy exploits to keep
//            interactive traffic off cold weight swaps
enum class PlacementPolicy { kNone, kSpread };

const char* placement_policy_name(PlacementPolicy policy);
// Accepts "none" | "spread"; throws CheckError otherwise.
PlacementPolicy placement_policy_from_name(const std::string& name);

struct FleetSchedConfig {
  int num_shards = 4;
  RoutePolicy route = RoutePolicy::kJsq;
  // Seed of the router's per-request random streams (random / po2c).
  std::uint64_t route_seed = 1;
  // Per-shard scheduler knobs; num_gpus is the per-shard replica count.
  // Every shard shares one immutable ModelRegistry (latency tables and
  // swap costs); all mutable model state — the LRU weight caches — lives
  // inside each shard's replicas. Shard s draws its faults from seed
  // shard.faults.seed + kSeedStride * (s + 1), so shards fail
  // independently.
  SchedConfig shard;
  AutoscaleConfig autoscale;
  PlacementPolicy placement = PlacementPolicy::kNone;
  // Under kWarm routing, the lowest-priority `cold_route_classes`
  // classes prefer cold shards (batch traffic stays off the warm set);
  // all higher classes prefer warm shards. Clamped so at least one class
  // routes warm when there are >= 2 classes; with a single class all
  // traffic routes warm.
  int cold_route_classes = 1;
  PercentileMode percentiles = PercentileMode::kSketch;

  void validate() const;
};

// Fleet-level aggregate in the span-weighted sense of
// aggregate_shard_metrics, applied per scope: the total and every
// per-class / per-model breakdown aggregate across shards, with latency
// percentiles over the union of the shards' sinks (fill_percentiles).
struct FleetSchedMetrics {
  SchedMetrics total;
  std::vector<SchedMetrics> per_shard;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  // Spread of per-shard utilization over the shards that served — the
  // balance quality signal the policy comparisons report.
  double shard_util_min = 0.0;
  double shard_util_max = 0.0;
};

// Aggregates per-shard metrics into one fleet-level ServeMetrics. Counts
// add. Ratios are weighted by each shard's virtual-time span, never
// averaged naively: utilization = sum busy / sum replica-time (a shard
// that served twice as long counts twice as much) and mean queue depth =
// sum depth-integral / sum shard spans. Rates divide by the fleet
// makespan `end_us`. Latency percentiles are NOT filled in here — they
// come from the shards' sinks (fill_percentiles, serve/metrics.h).
ServeMetrics aggregate_shard_metrics(const std::vector<ServeMetrics>& shards,
                                     std::uint64_t end_us);

// Runs the fleet over one mixed workload until drained, checking request
// conservation (offered == completed + dropped + shed) for the total,
// every class and model, and every shard. With num_shards == 1, no
// autoscaling, and kNone placement this reproduces simulate_sched with
// the shard's derived fault seed.
FleetSchedMetrics simulate_fleet_sched(const MixedWorkloadConfig& workload,
                                       const ModelRegistry& registry,
                                       const FleetSchedConfig& cfg);

// A (strategy x mode x route x rate) sweep at fixed traffic mix — every
// point faces the byte-identical request stream, so strategy, mode and
// route deltas are kernels, scheduling and placement, never sampling.
struct FleetSchedSweepConfig {
  std::vector<std::string> model_names = {"vit-tiny", "cnn-small"};
  // Encoder depth of every layered zoo model (0 = the catalog depth).
  int layers = 0;
  std::vector<core::Strategy> strategies = {core::Strategy::kVitBit};
  std::vector<std::string> modes = {"fifo", "cb", "cb-pre"};
  std::vector<RoutePolicy> routes = {RoutePolicy::kJsq, RoutePolicy::kWarm};
  std::vector<double> rates_rps = {200, 400};
  // rate_rps/num_models are overridden per point / from model_names.
  MixedWorkloadConfig workload;
  // fleet.shard.strategy and fleet.shard.mode are overridden per point.
  FleetSchedConfig fleet;
  SwapCostConfig swap;

  void validate() const;
};

struct FleetSchedPoint {
  core::Strategy strategy = core::Strategy::kVitBit;
  std::string mode;
  RoutePolicy route = RoutePolicy::kJsq;
  double rate_rps = 0.0;
  FleetSchedMetrics metrics;
};

// Phase 1 builds one model registry covering every swept strategy (plus
// the fallback when degraded-mode failover is on); phase 2 fans the
// fleet loop out over `pool` per point in index order — byte-identical
// results at every pool size.
std::vector<FleetSchedPoint> run_fleet_sched_sweep(
    const FleetSchedSweepConfig& cfg, const arch::OrinSpec& spec,
    const arch::Calibration& calib, ThreadPool* pool = nullptr);

// Console rendering: one row per point with goodput, p99, drop and shed
// rates, preemption / cold-swap counts, and the utilization spread.
Table fleet_sched_table(const FleetSchedSweepConfig& cfg,
                        const std::vector<FleetSchedPoint>& points);

// "100,200,400" -> {100, 200, 400}: positive finite rates (throws
// CheckError otherwise, including on "inf" and entries that overflow
// double).
std::vector<double> parse_rate_list(const std::string& spec);

// The one serving flag set, shared by bench/serve_sim and `vitbit_cli
// serve` (README lists every flag). Validates the assembled config before
// returning; list flags reject duplicate names, non-positive weights, and
// non-finite mix fractions with clear errors.
FleetSchedSweepConfig fleet_sched_config_from_cli(const Cli& cli);

// Schema-versioned report (schema minor 10): per point one aggregate
// "all" row plus one row per class and per model
// (report::FleetSchedPointReport), with the sweep's full knob set in
// meta. host_wall_seconds is left 0.
report::RunReport make_fleet_sched_report(
    const FleetSchedSweepConfig& cfg,
    const std::vector<FleetSchedPoint>& points, const std::string& tool,
    int threads);

}  // namespace vitbit::serve
