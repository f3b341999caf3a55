#include "serve/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace vitbit::serve {

namespace {

// Values below 2^kLinearBits get one bucket each; every octave above
// splits into 2^kSubBits equal buckets.
constexpr int kLinearBits = 7;
constexpr int kSubBits = 6;
constexpr std::uint64_t kLinear = std::uint64_t{1} << kLinearBits;

std::size_t bucket_of(std::uint64_t v) {
  if (v < kLinear) return static_cast<std::size_t>(v);
  const int octave = static_cast<int>(std::bit_width(v)) - 1;  // >= 7
  const int shift = octave - kSubBits;
  const std::uint64_t sub = (v - (std::uint64_t{1} << octave)) >> shift;
  const auto octaves_up = static_cast<std::uint64_t>(octave - kLinearBits);
  return static_cast<std::size_t>(kLinear + (octaves_up << kSubBits) + sub);
}

// The integer midpoint of bucket `i`: the bucket itself below kLinear,
// lower edge plus half the width above.
std::uint64_t bucket_mid(std::size_t i) {
  if (i < kLinear) return i;
  const std::size_t j = i - kLinear;
  const int octave = kLinearBits + static_cast<int>(j >> kSubBits);
  const int shift = octave - kSubBits;
  const std::uint64_t sub = j & ((std::size_t{1} << kSubBits) - 1);
  const std::uint64_t lo = (std::uint64_t{1} << octave) + (sub << shift);
  return lo + ((std::uint64_t{1} << shift) >> 1);
}

}  // namespace

void LatencySketch::add(std::uint64_t latency_us) {
  min_us_ = count_ == 0 ? latency_us : std::min(min_us_, latency_us);
  max_us_ = std::max(max_us_, latency_us);
  ++count_;
  const std::size_t b = bucket_of(latency_us);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
}

void LatencySketch::merge(const LatencySketch& other) {
  if (other.count_ == 0) return;
  min_us_ = count_ == 0 ? other.min_us_ : std::min(min_us_, other.min_us_);
  max_us_ = std::max(max_us_, other.max_us_);
  count_ += other.count_;
  if (other.buckets_.size() > buckets_.size())
    buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
}

std::uint64_t LatencySketch::percentile_us(double p) const {
  VITBIT_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile out of [0, 100]");
  if (count_ == 0) return 0;
  if (p == 0.0) return min_us_;
  if (p == 100.0) return max_us_;
  // The same rank rule as percentile_nearest_rank (serve/metrics.h).
  const auto n = static_cast<double>(count_);
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  std::size_t i = 0;
  while ((seen += buckets_[i]) < rank) ++i;
  return std::clamp(bucket_mid(i), min_us_, max_us_);
}

}  // namespace vitbit::serve
