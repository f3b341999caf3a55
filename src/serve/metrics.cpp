#include "serve/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace vitbit::serve {

namespace {

// Rank selection over samples already in ascending order — the shared core
// of percentile_nearest_rank and finalize (which sorts once and indexes
// every percentile instead of re-sorting per call).
std::uint64_t percentile_sorted(const std::vector<std::uint64_t>& sorted,
                                double p) {
  VITBIT_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile out of [0, 100]");
  if (sorted.empty()) return 0;
  // ceil(p/100 * N), clamped to [1, N]; p = 0 maps to rank 1 (the minimum).
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

std::uint64_t percentile_nearest_rank(std::vector<std::uint64_t> samples,
                                      double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

void check_conservation(const ServeMetrics& m, const std::string& scope) {
  VITBIT_CHECK_MSG(m.offered == m.completed + m.dropped + m.shed,
                   scope << " request conservation violated at drain: offered "
                         << m.offered << " != completed " << m.completed
                         << " + dropped " << m.dropped << " + shed "
                         << m.shed);
}

MetricsSink::MetricsSink(PercentileMode mode, std::uint64_t slo_us)
    : mode_(mode), slo_us_(slo_us) {}

void MetricsSink::on_queue_depth(std::uint64_t now_us, std::size_t depth) {
  VITBIT_CHECK_MSG(now_us >= last_depth_change_us_,
                   "queue-depth samples must be time-ordered");
  depth_integral_ += static_cast<std::uint64_t>(last_depth_) *
                     (now_us - last_depth_change_us_);
  last_depth_change_us_ = now_us;
  last_depth_ = depth;
  max_depth_ = std::max(max_depth_, static_cast<std::uint64_t>(depth));
}

void MetricsSink::on_batch(std::size_t size, std::uint64_t busy_us) {
  ++batches_;
  batched_requests_ += size;
  busy_us_ += busy_us;
}

void MetricsSink::on_completion(std::uint64_t arrival_us,
                                std::uint64_t done_us) {
  VITBIT_CHECK_MSG(done_us >= arrival_us, "completion precedes arrival");
  const std::uint64_t lat = done_us - arrival_us;
  ++completed_;
  if (slo_us_ > 0 && lat <= slo_us_) ++within_slo_;
  if (mode_ == PercentileMode::kExact)
    latencies_us_.push_back(lat);
  else
    sketch_.add(lat);
}

std::uint64_t MetricsSink::running_p99_us() const {
  if (mode_ == PercentileMode::kSketch) return sketch_.percentile_us(99.0);
  return percentile_nearest_rank(latencies_us_, 99.0);
}

void fill_percentiles(ServeMetrics& m,
                      const std::vector<const MetricsSink*>& sinks) {
  VITBIT_CHECK(!sinks.empty());
  const PercentileMode mode = sinks.front()->mode_;
  for (const auto* s : sinks)
    VITBIT_CHECK_MSG(s->mode_ == mode,
                     "fill_percentiles over sinks of different modes");
  if (mode == PercentileMode::kExact) {
    std::vector<std::uint64_t> all;
    for (const auto* s : sinks)
      all.insert(all.end(), s->latencies_us_.begin(), s->latencies_us_.end());
    std::sort(all.begin(), all.end());
    m.p50_us = percentile_sorted(all, 50.0);
    m.p90_us = percentile_sorted(all, 90.0);
    m.p95_us = percentile_sorted(all, 95.0);
    m.p99_us = percentile_sorted(all, 99.0);
    m.max_us = percentile_sorted(all, 100.0);
    return;
  }
  LatencySketch merged;
  for (const auto* s : sinks) merged.merge(s->sketch_);
  m.p50_us = merged.percentile_us(50.0);
  m.p90_us = merged.percentile_us(90.0);
  m.p95_us = merged.percentile_us(95.0);
  m.p99_us = merged.percentile_us(99.0);
  m.max_us = merged.max_us();
}

ServeMetrics MetricsSink::finalize(int num_replicas,
                                   std::uint64_t end_us) const {
  VITBIT_CHECK(num_replicas >= 1);
  ServeMetrics m;
  m.offered = offered_;
  m.completed = completed_;
  m.dropped = dropped_;
  m.batch_failures = batch_failures_;
  m.retries = retries_;
  m.requeued = requeued_;
  m.shed = shed_;
  m.failovers = failovers_;
  m.degraded_s = static_cast<double>(degraded_us_) / 1e6;
  m.batches = batches_;
  m.mean_batch_size =
      batches_ == 0 ? 0.0
                    : static_cast<double>(batched_requests_) /
                          static_cast<double>(batches_);
  m.duration_s = static_cast<double>(end_us) / 1e6;
  m.drop_rate = offered_ == 0 ? 0.0
                              : static_cast<double>(dropped_) /
                                    static_cast<double>(offered_);
  m.max_queue_depth = max_depth_;
  m.busy_us = busy_us_;
  m.batched_requests = batched_requests_;
  m.end_us = end_us;
  m.replica_time_us = replica_time_us_ != 0
                          ? replica_time_us_
                          : static_cast<std::uint64_t>(num_replicas) * end_us;
  // The tail after the last depth change counts at that depth.
  m.depth_integral_us =
      depth_integral_ +
      static_cast<std::uint64_t>(last_depth_) *
          (end_us - std::min(last_depth_change_us_, end_us));
  if (end_us > 0) {
    m.mean_queue_depth = static_cast<double>(m.depth_integral_us) /
                         static_cast<double>(end_us);
    m.throughput_rps = static_cast<double>(m.completed) / m.duration_s;
    m.within_slo = within_slo_;
    m.goodput_rps = static_cast<double>(within_slo_) / m.duration_s;
    m.utilization =
        replica_time_us_ != 0
            ? static_cast<double>(busy_us_) /
                  static_cast<double>(replica_time_us_)
            : static_cast<double>(busy_us_) /
                  (static_cast<double>(num_replicas) *
                   static_cast<double>(end_us));
  }
  fill_percentiles(m, {this});
  return m;
}

SinkGroup::SinkGroup(const std::vector<std::uint64_t>& slos_us,
                     PercentileMode mode) {
  sinks_.reserve(slos_us.size());
  for (const auto slo : slos_us) sinks_.emplace_back(mode, slo);
}

std::vector<ServeMetrics> SinkGroup::finalize(int num_replicas,
                                              std::uint64_t end_us) const {
  std::vector<ServeMetrics> out;
  out.reserve(sinks_.size());
  for (const auto& s : sinks_) out.push_back(s.finalize(num_replicas, end_us));
  return out;
}

}  // namespace vitbit::serve
