#include "serve/latency.h"

#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"

namespace vitbit::serve {

namespace {

// One memoization entry: simulate a `batch`-image inference under
// `strategy` and convert cycles to integer virtual microseconds at the
// spec clock (clock_ghz cycles per nanosecond).
std::uint64_t simulate_batch_latency_us(const KernelLogForBatch& log_for_batch,
                                        core::Strategy strategy,
                                        const core::StrategyConfig& cfg,
                                        const arch::OrinSpec& spec,
                                        const arch::Calibration& calib,
                                        int batch, ThreadPool* pool) {
  const auto log = log_for_batch(batch);
  const auto t = core::time_inference(log, strategy, cfg, spec, calib, pool);
  return static_cast<std::uint64_t>(std::llround(
      static_cast<double>(t.total_cycles) / (spec.clock_ghz * 1e3)));
}

}  // namespace

std::uint64_t LatencyTable::latency_us(std::size_t batch) const {
  VITBIT_CHECK_MSG(batch >= 1 && batch < batch_latency_us.size(),
                   "batch size " << batch << " outside latency table [1, "
                                 << max_batch() << "]");
  return batch_latency_us[batch];
}

std::vector<LatencyTable> build_latency_tables_from_logs(
    const KernelLogForBatch& log_for_batch,
    const std::vector<core::Strategy>& strategies,
    const core::StrategyConfig& cfg, const arch::OrinSpec& spec,
    const arch::Calibration& calib, int max_batch, ThreadPool* pool) {
  VITBIT_CHECK_MSG(!strategies.empty(), "need >= 1 strategy");
  VITBIT_CHECK_MSG(max_batch >= 1, "max_batch must be >= 1");
  // One kernel-log simulation per distinct (strategy, batch size),
  // flattened over the pool.
  const auto n = strategies.size();
  const auto mb = static_cast<std::size_t>(max_batch);
  const auto flat = parallel_map(pool, n * mb, [&](std::size_t i) {
    return simulate_batch_latency_us(log_for_batch, strategies[i / mb], cfg,
                                     spec, calib, static_cast<int>(i % mb) + 1,
                                     pool);
  });
  std::vector<LatencyTable> tables(n);
  for (std::size_t s = 0; s < n; ++s) {
    tables[s].strategy = strategies[s];
    tables[s].batch_latency_us.assign(mb + 1, 0);
    for (std::size_t b = 1; b <= mb; ++b) {
      const auto us = flat[s * mb + (b - 1)];
      VITBIT_CHECK_MSG(us >= 1,
                       "batch " << b << " latency rounds to zero microseconds");
      tables[s].batch_latency_us[b] = us;
    }
  }
  return tables;
}

}  // namespace vitbit::serve
