// Simulated GPU latency of one inference batch per batch size — the link
// between the timing pipeline and the serving engine. Each table entry
// charges `core::time_inference` over one batch-`b` kernel log, converted
// to integer virtual microseconds, so VitBit's kernel-level speedup turns
// into goodput and tail-latency wins once the serving engine
// (serve/sched, serve/cluster.h) queues requests against it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "nn/kernel_log.h"
#include "vitbit/pipeline.h"

namespace vitbit {
class ThreadPool;
}

namespace vitbit::serve {

// Simulated GPU latency of one inference batch per batch size, in integer
// virtual microseconds. Index == batch size; [0] is unused.
struct LatencyTable {
  core::Strategy strategy = core::Strategy::kTC;
  std::vector<std::uint64_t> batch_latency_us;

  // Checked lookup; batch must be in [1, max_batch].
  std::uint64_t latency_us(std::size_t batch) const;
  int max_batch() const {
    return static_cast<int>(batch_latency_us.size()) - 1;
  }
};

// Yields the kernel log of one batch-`b` inference of some model — the
// hook that lets the latency-table builder below cover any workload with
// a per-batch log builder (ViT, CNN, mixer, int4 variants).
using KernelLogForBatch = std::function<nn::KernelLog(int batch)>;

// The memoized per-batch-size latency-table builder: one table per
// strategy, each covering batch sizes [1, max_batch], one
// `time_inference` per distinct (strategy, batch) pair, flattened over
// `pool`, converted from cycles to microseconds at the spec clock, and
// validated to never round to zero. Every consumer — the model registry
// (serve/models) and the ext_* batch benches — goes through this one
// helper.
std::vector<LatencyTable> build_latency_tables_from_logs(
    const KernelLogForBatch& log_for_batch,
    const std::vector<core::Strategy>& strategies,
    const core::StrategyConfig& cfg, const arch::OrinSpec& spec,
    const arch::Calibration& calib, int max_batch, ThreadPool* pool = nullptr);

}  // namespace vitbit::serve
