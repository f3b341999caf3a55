// Accuracy and merge bounds for the log-linear latency histogram
// (serve/sketch.h). Every input sequence here is pinned — a fixed Rng
// seed through common/rng.h — and every bound compares the histogram
// against the exact nearest-rank percentile over the same samples
// (serve/metrics.h): within 1/128 for any percentile, exact below 128 us,
// and byte-identical under any merge order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "serve/metrics.h"
#include "serve/sketch.h"

namespace vitbit::serve {
namespace {

// |sketch - exact| as a fraction of the exact value (exact > 0).
double rel_err(std::uint64_t sketch_us, std::uint64_t exact_us) {
  const double d = static_cast<double>(sketch_us) -
                   static_cast<double>(exact_us);
  return std::abs(d) / static_cast<double>(exact_us);
}

// The histogram's relative-error bound: half of a 1/64-octave bucket.
constexpr double kBound = 1.0 / 128.0;

// Feeds `samples` through a fresh LatencySketch.
LatencySketch sketch_of(const std::vector<std::uint64_t>& samples) {
  LatencySketch s;
  for (const auto x : samples) s.add(x);
  return s;
}

TEST(LatencySketch, ConstantDistribution) {
  // Every percentile of a constant stream is the constant: the bucket
  // midpoint clamps to the exact (min, max) envelope.
  const std::vector<std::uint64_t> samples(10'000, 777);
  const auto s = sketch_of(samples);
  EXPECT_EQ(s.count(), 10'000u);
  for (const double p : {0.0, 50.0, 90.0, 95.0, 99.0, 100.0})
    EXPECT_EQ(s.percentile_us(p), 777u) << "p=" << p;
}

TEST(LatencySketch, BimodalDistribution) {
  // 75% fast mode around 2 ms, 25% slow mode around 40 ms — the shape a
  // fleet under partial degradation produces. p50 sits in the fast mode,
  // p90/p95/p99 in the slow mode, and p75 on the density gap between
  // them; the histogram must find all of them.
  Rng rng(11);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20'000; ++i) {
    const bool slow = rng.below(4) == 0;
    const double mean = slow ? 40'000.0 : 2'000.0;
    samples.push_back(
        static_cast<std::uint64_t>(mean * (0.8 + 0.4 * rng.uniform())));
  }
  const auto s = sketch_of(samples);
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
    const auto exact = percentile_nearest_rank(samples, p);
    EXPECT_LE(rel_err(s.percentile_us(p), exact), kBound)
        << "p=" << p << " sketch=" << s.percentile_us(p)
        << " exact=" << exact;
  }
  // Sanity that the modes really separate: exact p50 fast, p99 slow.
  EXPECT_LT(percentile_nearest_rank(samples, 50.0), 4'000u);
  EXPECT_GT(percentile_nearest_rank(samples, 99.0), 30'000u);
}

TEST(LatencySketch, HeavyTailDistribution) {
  // Exponential latencies (the M/M/1-ish waiting-time shape): the tail
  // quantiles are far from the body.
  Rng rng(7);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 50'000; ++i)
    samples.push_back(
        static_cast<std::uint64_t>(1'000.0 * rng.exp_double(1.0)) + 1);
  const auto s = sketch_of(samples);
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto exact = percentile_nearest_rank(samples, p);
    EXPECT_LE(rel_err(s.percentile_us(p), exact), kBound)
        << "p=" << p << " sketch=" << s.percentile_us(p)
        << " exact=" << exact;
  }
  // Exact extremes.
  EXPECT_EQ(s.percentile_us(0.0),
            *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(s.percentile_us(100.0),
            *std::max_element(samples.begin(), samples.end()));
}

TEST(LatencySketch, EstimatesClampToExactEnvelope) {
  for (const double p : {50.0, 90.0, 95.0, 99.0}) {
    Rng rng(19);
    LatencySketch s;
    std::uint64_t lo = ~0ull, hi = 0;
    for (int i = 0; i < 5'000; ++i) {
      const auto x = rng.below(1'000'000) + 1;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      s.add(x);
    }
    EXPECT_GE(s.percentile_us(p), lo) << "p=" << p;
    EXPECT_LE(s.percentile_us(p), hi) << "p=" << p;
  }
}

TEST(LatencySketch, EveryPercentileIsWithinBound) {
  // Log-uniform latencies over nine decades, so every octave from the
  // linear range up to ~1e9 us holds samples, checked at every half
  // percent from 0 to 100.
  Rng rng(43);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20'000; ++i)
    samples.push_back(static_cast<std::uint64_t>(
        std::exp(rng.uniform() * std::log(1e9))));
  const auto s = sketch_of(samples);
  for (int half = 0; half <= 200; ++half) {
    const double p = half / 2.0;
    const auto exact = percentile_nearest_rank(samples, p);
    EXPECT_LE(rel_err(s.percentile_us(p), exact), kBound)
        << "p=" << p << " sketch=" << s.percentile_us(p)
        << " exact=" << exact;
  }
}

TEST(LatencySketch, LatenciesBelow128UsAreExact) {
  // One bucket per microsecond below 128 us: every percentile of a
  // stream confined there equals the exact nearest-rank value.
  Rng rng(47);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 1'000; ++i) samples.push_back(rng.below(128));
  const auto s = sketch_of(samples);
  for (int p = 0; p <= 100; ++p)
    EXPECT_EQ(s.percentile_us(p), percentile_nearest_rank(samples, p))
        << "p=" << p;
}

TEST(LatencySketch, FullRangeDoesNotOverflow) {
  // The top octave's bucket arithmetic stays inside 64 bits.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::vector<std::uint64_t> samples = {1, std::uint64_t{1} << 63,
                                              kMax - 1, kMax};
  const auto s = sketch_of(samples);
  EXPECT_EQ(s.percentile_us(0.0), 1u);
  EXPECT_EQ(s.percentile_us(100.0), kMax);
  for (const double p : {50.0, 75.0, 99.0}) {
    const auto exact = percentile_nearest_rank(samples, p);
    EXPECT_LE(rel_err(s.percentile_us(p), exact), kBound) << "p=" << p;
  }
}

TEST(LatencySketch, MergeEmptyIntoPopulatedIsIdentity) {
  // An idle shard contributes an empty sketch; folding it in must leave
  // every estimate of the populated side untouched.
  Rng rng(17);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 6'000; ++i) samples.push_back(rng.below(200'000) + 1);
  auto populated = sketch_of(samples);
  const LatencySketch empty;
  auto merged = populated;
  merged.merge(empty);
  EXPECT_EQ(merged.count(), populated.count());
  for (const double p : {0.0, 50.0, 90.0, 95.0, 99.0, 100.0})
    EXPECT_EQ(merged.percentile_us(p), populated.percentile_us(p))
        << "p=" << p;
}

TEST(LatencySketch, MergePopulatedIntoEmptyEqualsPopulated) {
  // The mirror case: a fresh aggregate absorbing its first shard must
  // reproduce that shard's estimates exactly.
  Rng rng(31);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 6'000; ++i) samples.push_back(rng.below(200'000) + 1);
  const auto populated = sketch_of(samples);
  LatencySketch agg;
  agg.merge(populated);
  EXPECT_EQ(agg.count(), populated.count());
  for (const double p : {0.0, 50.0, 90.0, 95.0, 99.0, 100.0})
    EXPECT_EQ(agg.percentile_us(p), populated.percentile_us(p))
        << "p=" << p;
}

TEST(LatencySketch, RejectsPercentileOutsideRange) {
  LatencySketch s;
  s.add(1);
  EXPECT_EQ(s.percentile_us(75.0), 1u);
  EXPECT_THROW(s.percentile_us(-1.0), CheckError);
  EXPECT_THROW(s.percentile_us(100.1), CheckError);
}

TEST(LatencySketch, MergeMatchesCountsAndExtremes) {
  Rng rng(3);
  std::vector<std::uint64_t> all;
  LatencySketch a, b;
  for (int i = 0; i < 8'000; ++i) {
    const auto x = rng.below(100'000) + 1;
    all.push_back(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.size());
  EXPECT_EQ(a.min_us(), *std::min_element(all.begin(), all.end()));
  EXPECT_EQ(a.max_us(), *std::max_element(all.begin(), all.end()));
  // The merged estimate stays within the bound of the union's exact
  // percentile.
  for (const double p : {50.0, 90.0, 95.0, 99.0}) {
    const auto exact = percentile_nearest_rank(all, p);
    EXPECT_LE(rel_err(a.percentile_us(p), exact), kBound) << "p=" << p;
  }
}

TEST(LatencySketch, MergeEqualsStreamingTheUnion) {
  // Merging is adding counts: folding a sketch in is byte-identical to
  // having streamed its samples into the destination directly.
  Rng rng(37);
  LatencySketch dest, streamed;
  for (int i = 0; i < 4'000; ++i) {
    const auto x = rng.below(50'000) + 1;
    dest.add(x);
    streamed.add(x);
  }
  LatencySketch other;
  const std::vector<std::uint64_t> tail = {60'000, 5, 25'000, 12'000};
  for (const auto x : tail) other.add(x);
  dest.merge(other);
  for (const auto x : tail) streamed.add(x);
  EXPECT_EQ(dest.count(), streamed.count());
  for (int p = 0; p <= 100; ++p)
    EXPECT_EQ(dest.percentile_us(p), streamed.percentile_us(p)) << "p=" << p;
}

TEST(LatencySketch, MergeIsDeterministicForAFixedOrder) {
  // Re-running the same per-shard build and merge reproduces
  // bit-identical estimates — the invariant CI's --threads=1/2/4
  // byte-diff leans on.
  const auto build = [] {
    Rng rng(23);
    std::vector<LatencySketch> shards(4);
    for (int i = 0; i < 12'000; ++i)
      shards[rng.below(4)].add(rng.below(500'000) + 1);
    LatencySketch merged;
    for (const auto& s : shards) merged.merge(s);
    return merged;
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.count(), b.count());
  for (const double p : {0.0, 50.0, 90.0, 95.0, 99.0, 100.0})
    EXPECT_EQ(a.percentile_us(p), b.percentile_us(p)) << "p=" << p;
}

TEST(LatencySketch, AllMergeOrdersAgree) {
  // Integer counts add associatively and commutatively, so all six
  // orders of folding three shard sketches together give byte-identical
  // percentiles — the fleet needs no merge-order rule.
  Rng rng(29);
  std::vector<std::uint64_t> xs;
  for (int i = 0; i < 9'000; ++i)
    xs.push_back(
        static_cast<std::uint64_t>(1'000.0 * rng.exp_double(0.5)) + 1);
  std::vector<LatencySketch> shards(3);
  for (std::size_t i = 0; i < xs.size(); ++i) shards[i % 3].add(xs[i]);

  std::vector<std::size_t> order = {0, 1, 2};
  std::vector<std::uint64_t> first;
  int orders = 0;
  do {
    LatencySketch merged;
    for (const auto k : order) merged.merge(shards[k]);
    std::vector<std::uint64_t> got = {merged.count()};
    for (int p = 0; p <= 100; ++p) got.push_back(merged.percentile_us(p));
    if (first.empty())
      first = got;
    else
      EXPECT_EQ(got, first) << "order " << order[0] << order[1] << order[2];
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 6);
  EXPECT_EQ(first.front(), xs.size());
}

TEST(MetricsSinkSketchMode, RetainsNoLatencySamples) {
  // The constant-memory claim: a kSketch sink holds zero raw samples no
  // matter how many completions stream through it.
  MetricsSink sink(PercentileMode::kSketch, /*slo_us=*/50'000);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    const auto arrival = i * 10;
    sink.on_completion(arrival, arrival + rng.below(100'000) + 1);
  }
  EXPECT_EQ(sink.retained_latency_samples(), 0u);
  EXPECT_EQ(sink.finalize(1, 1'000'000).completed, 100'000u);
  EXPECT_GT(sink.running_p99_us(), 0u);
}

TEST(MetricsSinkSketchMode, FinalizeTracksExactWithinBound) {
  // Same event stream through both modes: counts and rates must agree
  // exactly, percentiles within the histogram's bound.
  MetricsSink exact(PercentileMode::kExact, /*slo_us=*/30'000);
  MetricsSink sketch(PercentileMode::kSketch, /*slo_us=*/30'000);
  Rng rng(13);
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    const auto arrival = i * 25;
    const auto done =
        arrival + static_cast<std::uint64_t>(
                      5'000.0 * rng.exp_double(0.5)) + 1;
    exact.on_completion(arrival, done);
    sketch.on_completion(arrival, done);
  }
  const auto end = 30'000u * 25u + 1'000'000u;
  const auto me = exact.finalize(1, end);
  const auto ms = sketch.finalize(1, end);
  EXPECT_EQ(me.completed, ms.completed);
  EXPECT_EQ(me.within_slo, ms.within_slo);
  EXPECT_DOUBLE_EQ(me.goodput_rps, ms.goodput_rps);
  EXPECT_EQ(me.max_us, ms.max_us);  // max is exact in both modes
  EXPECT_LE(rel_err(ms.p50_us, me.p50_us), kBound);
  EXPECT_LE(rel_err(ms.p90_us, me.p90_us), kBound);
  EXPECT_LE(rel_err(ms.p95_us, me.p95_us), kBound);
  EXPECT_LE(rel_err(ms.p99_us, me.p99_us), kBound);
}

}  // namespace
}  // namespace vitbit::serve
