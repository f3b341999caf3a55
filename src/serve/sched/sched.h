// The serving engine: a scheduler with priority classes over the
// multi-model zoo (serve/models). One SchedSim is one shard — a replica
// pool behind one admission queue — and the fleet loop
// (serve/fleet_loop.h) drives one of them (simulate_sched) or many
// behind a router (serve/cluster.h simulate_fleet_sched). Three
// scheduling modes, compared at identical offered traffic:
//
//   fifo    one arrival-order queue, head-of-line same-model prefix
//           batches, whole-batch latency, priorities ignored. Only fifo
//           supports the "timeout" flush policy and fault injection
//           (serve/faults.h): seeded replica failures, transient batch
//           failures and latency spikes, bounded retries with
//           deadline-aware backoff, shedding, and degraded-mode failover
//           to a fallback strategy's latency tables.
//   cb      continuous batching: a batch executes iteration by iteration
//           (a batch's latency splits into `iters` equal slices), and at
//           every iteration boundary finished requests leave while queued
//           requests of the same model join the running batch. Admission
//           across priority-class queues is smooth weighted round-robin.
//   cb-pre  cb plus deadline awareness: a queued request that would miss
//           its class SLO even if dispatched alone is urgent; urgent
//           requests are admitted ahead of the round-robin order, and
//           when the batch is full the scheduler preempts the most
//           recently joined resident of a strictly lower class, losing
//           that resident's partial work (it restarts from its original
//           arrival time, so its latency keeps the cost honest).
//
// Replicas keep an LRU cache of model weights; switching an (idle)
// replica to an uncached model charges the registry's cold-swap time,
// a cached switch the warm activation (a replica's first load is free —
// weights are staged before traffic).
//
// Determinism contract: all virtual time is integer microseconds, event
// ties resolve in a fixed order (replica fault transitions, then
// iteration completions by replica index, autoscale decisions,
// admissions in arrival order, due retries in (ready, id) order, then
// dispatch by replica index), and sweeps fan out over
// ThreadPool::parallel_map in point-index order — so a sweep serializes
// to byte-identical reports at every --threads. Fault events are seeded
// draws inside this single-threaded loop, and with every fault rate at
// zero no fault stream is consumed.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/faults.h"
#include "serve/metrics.h"
#include "serve/models/registry.h"
#include "serve/workload.h"

namespace vitbit::serve {

// Reactive per-shard autoscaling: every interval_us of virtual time a
// shard compares its queue depth (and optionally its running p99, per-
// class preemption rate, and per-class SLO-miss rate) against the
// thresholds and grows or shrinks its enabled-replica window within
// [min, max]. Hysteresis comes from the up/down threshold gap plus a
// cooldown after every action; scale-downs only retire an idle replica,
// so in-flight batches are never aborted by the autoscaler (only by
// faults). Replica fault schedules keep ticking for disabled replicas —
// a scaled-up replica can arrive already down, exactly like a real node
// joining from a bad pool.
struct AutoscaleConfig {
  int min_replicas = 1;
  // max_replicas == min_replicas disables autoscaling (the shard runs a
  // fixed SchedConfig::num_gpus pool).
  int max_replicas = 1;
  std::uint64_t interval_us = 50000;  // evaluation cadence, virtual us
  // Scale up when queue depth exceeds up_queue_depth, or (when
  // up_p99_us > 0) the total sink's running p99 exceeds up_p99_us. Scale
  // down when depth is at or below down_queue_depth.
  std::size_t up_queue_depth = 16;
  std::size_t down_queue_depth = 2;
  std::uint64_t up_p99_us = 0;
  std::uint64_t cooldown_us = 200000;  // min virtual time between actions
  // Preemption-aware scale-up signals, evaluated per priority class over
  // the last decision interval. 0 disables a signal.
  //   up_preempt_per_s   scale up when any class's preemption rate
  //                      (victims per virtual second) exceeds this
  //   up_slo_miss_rate   scale up when any class's completed-request
  //                      SLO-miss fraction (0..1) exceeds this
  double up_preempt_per_s = 0.0;
  double up_slo_miss_rate = 0.0;

  bool enabled() const { return max_replicas > min_replicas; }
  void validate() const;
};

// One priority class's scheduling contract. Lower class index = higher
// priority (class 0 preempts class 2, never the reverse); the weights
// shape steady-state sharing while the SLOs drive urgency.
struct ClassSpec {
  std::string name = "default";
  double weight = 1.0;        // smooth-WRR admission weight (> 0)
  std::uint64_t slo_us = 50000;  // per-class goodput target and deadline
};

struct SchedConfig {
  std::string mode = "fifo";  // fifo | cb | cb-pre
  // Flush policy (fifo only), consulted whenever a replica is idle and
  // requests are queued:
  //   greedy   dispatch at once with whatever is queued (up to max_batch)
  //   timeout  dispatch a full batch, or a partial one once the oldest
  //            queued request has waited batch_timeout_us; otherwise wait
  std::string policy = "greedy";
  std::uint64_t batch_timeout_us = 2000;
  // Strategy whose latency tables the replicas run (must be one of the
  // registry's strategies), and the degraded-mode fallback strategy used
  // while faults.degrade_below_live > 0 and fewer enabled replicas than
  // that are up.
  core::Strategy strategy = core::Strategy::kVitBit;
  core::Strategy fallback_strategy = core::Strategy::kTC;
  int num_gpus = 1;
  int max_batch = 8;
  // Shared admission bound across all class queues (total queued
  // requests), so fifo and cb face the same drop pressure. Preempted
  // residents re-enter their class queue bypassing the bound — they were
  // already admitted once and must conserve.
  int queue_capacity = 64;
  // Iteration slices per batch: a batch-b inference of model m runs as
  // `iters` boundaries max(1, latency_us(b) / iters) apart. 1 degenerates
  // to whole-batch scheduling; fifo mode ignores it entirely.
  int iters = 1;
  std::vector<ClassSpec> classes = {ClassSpec{}};
  // Goodput latency target of the aggregate (all-classes) sink.
  std::uint64_t slo_us = 50000;
  // Fault injection (fifo only; all off by default). A failed request's
  // retry deadline is its class SLO.
  FaultConfig faults;

  // Rejects faults and the timeout policy outside fifo mode.
  void validate() const;
};

// Aggregate plus per-class and per-model breakdowns. Vector order follows
// SchedConfig::classes / the registry's model order. Request conservation
// (offered == completed + dropped + shed) holds for the total, per class,
// and per model; preempted residents are neither dropped nor shed — they
// requeue and finish. Fault counters land on every scope a request
// touches; failovers and degraded time are shard-wide and repeat on every
// per-class and per-model row.
struct SchedMetrics {
  ServeMetrics total;
  std::vector<ServeMetrics> per_class;
  std::vector<ServeMetrics> per_model;
  std::uint64_t preemptions = 0;  // residents evicted for urgent arrivals
  std::uint64_t model_swaps = 0;  // cold + warm model activations charged
  std::uint64_t cold_swaps = 0;   // the cold (full weight load) subset
  std::uint64_t swap_us = 0;      // total virtual time spent swapping
};

// One shard over a model registry, driven by simulate_sched (one
// instance) or simulate_fleet_sched (one instance per shard) through the
// shared fleet loop (serve/fleet_loop.h) in the fixed step order of the
// determinism contract. The registry must outlive the sim and cover
// SchedConfig::max_batch for every model, under SchedConfig::strategy
// (and fallback_strategy when degraded-mode failover is on).
//
// With an enabled AutoscaleConfig the replica pool sizes to max_replicas
// and an enabled-replica window [0, enabled) grows and shrinks on the
// decision grid; scale down only retires a replica that is neither
// running nor holding residents.
class SchedSim {
 public:
  SchedSim(const ModelRegistry& registry, const SchedConfig& cfg,
           PercentileMode percentiles = PercentileMode::kExact,
           const AutoscaleConfig& autoscale = {});

  // Replica fault transitions due at `now` (lowest replica first; a
  // replica going down aborts its in-flight batch onto the retry path)
  // and degraded-mode bookkeeping, then iteration/batch completions due
  // at `now`, lowest replica index first: per-iteration busy time is
  // recorded, finished residents complete against the total, their
  // class, and their model sinks (a failed batch's residents take the
  // retry path instead), and the replica is left at a boundary for
  // dispatch() to refill or idle.
  void begin_step(std::uint64_t now);
  // Admits one fresh arrival into its class queue (fifo mode: the single
  // arrival-order queue), with drop-on-full accounting against the
  // shared capacity.
  void admit(std::uint64_t now, const Request& r);
  // Fills replicas, lowest index first: fifo dispatches whole same-model
  // prefix batches onto idle live replicas while the flush policy
  // agrees; cb additionally joins queued requests into batches standing
  // at an iteration boundary; cb-pre admits urgent requests first and
  // preempts when full.
  void dispatch(std::uint64_t now);

  // Autoscale evaluation when `now` lands on the interval grid: catches
  // up tick by tick, applying at most one action per tick outside the
  // cooldown window. No-op when autoscaling is disabled.
  void maybe_autoscale(std::uint64_t now);
  // Requeues retries whose backoff elapsed, in (ready, id) order; a full
  // queue sheds them.
  void admit_due_retries(std::uint64_t now);

  // Next iteration/batch completion, due retry, or flush-policy wake-up
  // (kNever when none).
  std::uint64_t next_internal_event_us() const;
  // Next replica fault transition or autoscale decision tick (kNever when
  // neither is enabled) — keeps the fleet loop alive across idle
  // stretches only while work remains somewhere.
  std::uint64_t next_timer_us() const;
  // No queued, retrying, or resident work anywhere.
  bool idle() const;
  // Queued plus resident (in-batch) requests — the live signal the
  // fleet router balances on.
  std::size_t load() const;
  // Timestamp of the last admission, completion, dispatch, or scale
  // action — the per-shard finalize span in a fleet.
  std::uint64_t last_activity_us() const { return last_activity_us_; }

  // Whether any enabled replica could serve `model` without a cold load:
  // it is the loaded model or sits in an LRU weight cache. The fleet's
  // warm routing policy steers interactive classes by this.
  bool warm_for(int model) const;
  // Stages `model`'s weights on every replica (free, before traffic) —
  // the fleet's model-placement policy. Replaces the implicit
  // first-load-is-free state: after prestaging, activating a different
  // model charges a real cold swap.
  void prestage(int model);

  int enabled_replicas() const { return enabled_; }
  std::uint64_t scale_ups() const { return scale_ups_; }
  std::uint64_t scale_downs() const { return scale_downs_; }
  // Sink access for the fleet tier's cross-shard percentiles.
  const MetricsSink& total_sink() const { return total_; }
  const MetricsSink& class_sink(std::size_t c) const;
  const MetricsSink& model_sink(std::size_t m) const;

  // Closes the degraded-time and replica-time integrals and the sinks at
  // `end_us`. Call exactly once, after the driving loop drains.
  SchedMetrics finalize(std::uint64_t end_us);

 private:
  struct Resident {
    Request req;
    int remaining = 0;          // iteration slices left
    std::uint64_t join_seq = 0;  // global join order (preemption victim
                                 // tie-break: latest joiner restarts)
  };
  struct Replica {
    std::vector<Resident> batch;
    int model = -1;  // currently loaded model; -1 = nothing loaded yet
    bool running = false;       // an iteration is in flight
    bool fail = false;          // the in-flight batch's predrawn fate
    std::uint64_t iter_start_us = 0;
    std::uint64_t iter_done_us = 0;
    // Swap time charged at activation, consumed by the next iteration.
    std::uint64_t pending_swap_us = 0;
    std::vector<int> cache;  // LRU over model ids, most recent at back
  };

  // Requeue scheduled after retry backoff; a min-heap keyed on
  // (ready time, request id) keeps the requeue order deterministic.
  struct RetryEntry {
    std::uint64_t ready_us = 0;
    Request req;
  };
  struct RetryLater {
    bool operator()(const RetryEntry& a, const RetryEntry& b) const {
      if (a.ready_us != b.ready_us) return a.ready_us > b.ready_us;
      return a.req.id > b.req.id;
    }
  };

  std::size_t total_depth() const;
  // Fault path: transitions and degraded bookkeeping at `now`, and the
  // retry budget for a failed or aborted batch's residents.
  void step_faults(std::uint64_t now);
  void fail_batch(std::uint64_t t, const std::vector<Resident>& batch);
  int live_enabled() const;
  // Whether fifo's flush policy dispatches now; otherwise arms the wake.
  bool policy_dispatches(std::uint64_t now);
  // Smooth-WRR pick among classes whose head request can join a model-m
  // batch (m < 0: any nonempty class); -1 when none is eligible.
  int pick_class(int model) const;
  // Charges a model activation on `rep` (warm or cold per its LRU cache);
  // the swap time lands in pending_swap_us for the next iteration.
  void activate_model(Replica& rep, int model);
  void start_iteration(Replica& rep, std::uint64_t now);
  Request pop_class(int c);
  // cb-pre helpers: whether queued head `r` would miss its deadline even
  // dispatched alone, and the urgent-admission / preemption pass.
  bool urgent(std::uint64_t now, const Request& r) const;
  void admit_urgent(Replica& rep, std::uint64_t now);
  void fill_wrr(Replica& rep, std::uint64_t now);
  void dispatch_fifo(std::uint64_t now);
  void dispatch_cb(std::uint64_t now);
  void touch(std::uint64_t now) { last_activity_us_ = now; }
  // Saturating t + cooldown (a near-max cooldown means "never again").
  std::uint64_t cooldown_expiry_us(std::uint64_t t) const;
  // Folds enabled * elapsed into the replica-time integral at an
  // enabled-count change (and finalize) — exact available-replica-time
  // for utilization under autoscaling.
  void accrue_replica_time(std::uint64_t now);

  const ModelRegistry& registry_;
  SchedConfig cfg_;
  AutoscaleConfig as_;
  bool fifo_ = true;
  bool preemptive_ = false;
  bool timeout_ = false;        // fifo's timeout flush policy
  bool replica_faults_ = false;  // replica up/down schedules are live
  bool batch_faults_ = false;    // batch failures or spikes are drawn
  // Per-model latency tables under the serving and fallback strategies
  // (fallback_ entries are null unless degraded-mode failover is on).
  std::vector<const LatencyTable*> primary_;
  std::vector<const LatencyTable*> fallback_;
  std::vector<Replica> replicas_;
  FaultModel faults_;
  std::vector<RetryEntry> retries_;  // min-heap via push_heap/pop_heap
  bool degraded_ = false;
  std::uint64_t degraded_since_ = 0;
  std::uint64_t policy_wake_us_;  // set by dispatch(); kNever when none
  // fifo mode: the single arrival-order queue; cb modes: one queue per
  // class, shared capacity.
  std::deque<Request> fifo_queue_;
  std::vector<std::deque<Request>> class_queues_;
  std::vector<std::uint64_t> served_;  // WRR admission counts per class
  std::uint64_t join_seq_ = 0;
  MetricsSink total_;
  SinkGroup per_class_;
  SinkGroup per_model_;
  std::uint64_t preemptions_ = 0;
  std::uint64_t model_swaps_ = 0;
  std::uint64_t cold_swaps_ = 0;
  std::uint64_t swap_us_ = 0;
  // Autoscaling state: the enabled-replica window is [0, enabled_).
  int enabled_ = 0;
  std::uint64_t next_autoscale_us_ = 0;
  std::uint64_t cooldown_until_us_ = 0;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  std::uint64_t replica_time_integral_us_ = 0;
  std::uint64_t last_enabled_change_us_ = 0;
  std::uint64_t last_activity_us_ = 0;
  // Per-class signal counters since the last autoscale tick (victim
  // class for preemptions; completions and SLO misses per class).
  std::vector<std::uint64_t> tick_preempted_;
  std::vector<std::uint64_t> tick_completed_;
  std::vector<std::uint64_t> tick_missed_;
};

// The smooth-WRR admission comparison: whether a candidate class with
// weight `weight_c` and served count `served_c` strictly beats the
// incumbent (weight_b, served_b), i.e. weight_c / (served_c + 1) >
// weight_b / (served_b + 1), decided by exact cross-multiplication.
// Doubles lose the cross products once one exceeds 2^53 (an extreme
// weight ratio, e.g. 1e9:1, times a long-run served count), silently
// starving the low-weight class at tie boundaries; here each weight is
// split into its 53-bit mantissa and exponent, the mantissa-times-count
// products compare in 128-bit integers, and the exponent gap shifts one
// side exactly — so the pick is correct for every positive finite
// weight. Agrees with the double comparison wherever doubles are exact.
// Exposed for sched_test's precision pins.
bool wrr_prefers(double weight_c, std::uint64_t served_c, double weight_b,
                 std::uint64_t served_b);

// Runs the scheduler event loop over a drained mixed workload. Checks
// request conservation (total, per class, and per model) at drain.
SchedMetrics simulate_sched(const std::vector<Request>& workload,
                            const ModelRegistry& registry,
                            const SchedConfig& cfg,
                            PercentileMode percentiles =
                                PercentileMode::kExact);

// Streaming form: consumes arrivals straight from a MixedWorkloadStream,
// so a 10^6-request sweep point never materializes its workload vector.
// Identical event sequence to the vector form (which the stream's drain
// defines), hence identical metrics.
SchedMetrics simulate_sched(const MixedWorkloadConfig& workload,
                            const ModelRegistry& registry,
                            const SchedConfig& cfg,
                            PercentileMode percentiles =
                                PercentileMode::kExact);

}  // namespace vitbit::serve
