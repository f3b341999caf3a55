// Deterministic fault injection for the serving simulator: seeded replica
// failure/recovery schedules (MTBF/MTTR), transient per-batch failures,
// and multiplicative latency spikes, all drawn from common/rng.h streams
// so every fault lands at the same virtual microsecond on every host and
// at every --threads value. The serving engine's fifo mode (serve/sched)
// consumes the schedule as explicit events: a replica going down aborts
// its in-flight batch, failed batches requeue through a bounded retry
// budget with deadline-aware exponential backoff, and when live replicas
// fall below a threshold the shard fails over to a cheaper fallback
// strategy's latency tables —
// the capacity-aware strategy selection VitBit motivates (falling back
// between Tensor/INT/FP execution when one resource is saturated).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace vitbit::serve {

struct FaultConfig {
  // Seed of the fault-event streams, independent of the workload seed so
  // the same request trace can be replayed under different fault draws.
  std::uint64_t seed = 1;
  // Mean time between failures per replica, virtual seconds; 0 disables
  // replica failures entirely.
  double replica_mtbf_s = 0.0;
  // Mean time to recovery once a replica is down, virtual seconds.
  double replica_mttr_s = 0.05;
  // Probability that a dispatched batch fails transiently at completion
  // time (its requests take the retry path); 0 disables.
  double batch_failure_prob = 0.0;
  // Probability that a dispatched batch runs latency_spike_mult times
  // slower than the table latency (GC pause / thermal throttle / noisy
  // neighbor); 0 disables.
  double latency_spike_prob = 0.0;
  double latency_spike_mult = 4.0;
  // Retry budget per request: a request whose batch fails is requeued at
  // most this many times before it is shed.
  int max_retries = 2;
  // Backoff before the first retry; doubles on every subsequent attempt.
  // A retry whose backed-off requeue time would already exceed the
  // request's SLO deadline is shed instead of requeued.
  std::uint64_t retry_backoff_us = 1000;
  // Graceful degradation: when live replicas drop below this count the
  // server switches new dispatches to the fallback latency table until
  // enough replicas recover. 0 disables failover.
  int degrade_below_live = 0;

  // True when any fault process can fire (failures, batch faults, spikes).
  bool any_faults() const {
    return replica_mtbf_s > 0.0 || batch_failure_prob > 0.0 ||
           latency_spike_prob > 0.0;
  }
  void validate() const;
};

// The seeded fault-event source. Replica up/down schedules are independent
// per-replica streams (a pure function of (seed, replica index)), and
// batch fates are drawn from a separate stream in dispatch order — the
// event loop is single-threaded per sweep point, so the draw order is
// fixed. With all fault rates zero, no stream is ever consumed and the
// model reports every replica up forever.
class FaultModel {
 public:
  // Sentinel for "no scheduled transition".
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  FaultModel(const FaultConfig& cfg, int num_replicas);

  int num_replicas() const { return static_cast<int>(up_.size()); }
  bool up(int replica) const { return up_[static_cast<std::size_t>(replica)]; }
  int live() const;

  // Virtual time of `replica`'s next up/down flip (kNever when failures
  // are disabled). Transitions are strictly increasing per replica.
  std::uint64_t next_transition_us(int replica) const {
    return next_transition_us_[static_cast<std::size_t>(replica)];
  }
  // Applies the pending transition (up -> down or down -> up) and draws
  // the one after it from the replica's stream.
  void advance(int replica);

  // Dispatch-time fate of one batch. Draws are only taken from the stream
  // when the corresponding probability is nonzero, so zero-rate configs
  // leave the stream untouched.
  struct BatchFate {
    bool fail = false;
    bool spike = false;
  };
  BatchFate draw_batch_fate();

  // base_us scaled by latency_spike_mult, rounded, kept >= 1.
  std::uint64_t spiked_latency_us(std::uint64_t base_us) const;

  // Backed-off requeue delay for a request about to start retry attempt
  // `attempt` (1-based): retry_backoff_us << (attempt - 1), >= 1.
  std::uint64_t retry_delay_us(int attempt) const;

 private:
  FaultConfig cfg_;
  std::vector<bool> up_;
  std::vector<std::uint64_t> next_transition_us_;
  std::vector<Rng> replica_rng_;
  Rng batch_rng_;
};

}  // namespace vitbit::serve
