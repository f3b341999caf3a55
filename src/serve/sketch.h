// Constant-memory latency histogram for the serving fleet.
//
// A kExact MetricsSink (serve/metrics.h) stores every completed-request
// latency and sorts once at finalize — exact, but O(requests) memory.
// Sweeps that reach 10^7 requests summarize latencies in a log-linear
// integer histogram instead, in the style of HdrHistogram and DDSketch
// (Masson et al., VLDB 2019): one bucket per microsecond below 128 us,
// then 64 equal-width buckets per power-of-two octave. Every bucket above
// 128 us is at most 1/64 of its lower edge wide, so reporting a bucket's
// midpoint is within 1/128 of any sample in it. The count vector grows
// only to the highest bucket seen: under 800 buckets for latencies up to
// 100 ms, independent of the request count.
//
// Determinism contract: the state is integer counts, so merge() is an
// element-wise add — associative and commutative. Merging per-shard
// histograms in any order gives the same bytes.
#pragma once

#include <cstdint>
#include <vector>

namespace vitbit::serve {

class LatencySketch {
 public:
  void add(std::uint64_t latency_us);
  void merge(const LatencySketch& other);

  std::uint64_t count() const { return count_; }
  // Exact extremes; 0 when empty (the MetricsSink empty convention).
  std::uint64_t min_us() const { return count_ == 0 ? 0 : min_us_; }
  std::uint64_t max_us() const { return max_us_; }
  // Nearest-rank percentile, p in [0, 100]: the midpoint of the bucket
  // holding the ceil(p/100 * N)-th smallest sample, clamped to the exact
  // [min, max] envelope — within 1/128 of the exact value. p = 0 and
  // p = 100 return the exact min and max; an empty sketch returns 0.
  std::uint64_t percentile_us(double p) const;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t min_us_ = 0;
  std::uint64_t max_us_ = 0;
  std::vector<std::uint64_t> buckets_;
};

}  // namespace vitbit::serve
