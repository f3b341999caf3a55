// Shared fixtures for the serving-engine tests: synthetic constant-latency
// tables and one-model registries, so queueing, fault, and accounting
// behaviour is pinned with no kernel simulation involved.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.h"
#include "serve/models/registry.h"
#include "serve/sched/sched.h"

namespace vitbit::serve::testing {

// Every batch size in [1, max_batch] takes `us`.
inline LatencyTable flat_table(std::uint64_t us, int max_batch,
                               core::Strategy strategy =
                                   core::Strategy::kVitBit) {
  LatencyTable t;
  t.strategy = strategy;
  t.batch_latency_us.assign(static_cast<std::size_t>(max_batch) + 1, us);
  t.batch_latency_us[0] = 0;
  return t;
}

// One synthetic model serving `primary` (SchedConfig's default VitBit
// strategy), with `fallback` as its TC table when given.
inline ModelRegistry one_model(LatencyTable primary,
                               const LatencyTable* fallback = nullptr) {
  primary.strategy = core::Strategy::kVitBit;
  std::vector<LatencyTable> tables = {primary};
  if (fallback != nullptr) {
    tables.push_back(*fallback);
    tables.back().strategy = core::Strategy::kTC;
  }
  return ModelRegistry({"synthetic"}, {tables});
}

// One fifo shard, one class whose SLO (goodput target and retry
// deadline) is `slo_us`.
inline SchedConfig fifo_config(const std::string& policy, int max_batch,
                               int queue_capacity,
                               std::uint64_t slo_us = 50'000) {
  SchedConfig sc;
  sc.policy = policy;
  sc.max_batch = max_batch;
  sc.queue_capacity = queue_capacity;
  sc.slo_us = slo_us;
  sc.classes[0].slo_us = slo_us;
  return sc;
}

// Total metrics of one fifo shard with exact percentiles.
inline ServeMetrics serve(const std::vector<Request>& workload,
                          const ModelRegistry& registry,
                          const SchedConfig& cfg) {
  return simulate_sched(workload, registry, cfg, PercentileMode::kExact)
      .total;
}

inline Cli make_cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"serve_test"};
  for (const auto& f : flags) argv.push_back(f.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

}  // namespace vitbit::serve::testing
