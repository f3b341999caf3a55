// Serving-engine tests: workload generator reproducibility (including the
// one-class mixed stream's replay of the single-class stream), flush
// policy semantics, the bounded admission queue, the single-server event
// loop, and the tier-1 determinism acceptance — a rate sweep must
// serialize to byte-identical reports at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "serve/cluster.h"
#include "serve_test_util.h"

namespace vitbit::serve {
namespace {

using testing::fifo_config;
using testing::flat_table;
using testing::one_model;
using testing::serve;

TEST(Workload, SameSeedSameStreamEveryKind) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty}) {
    WorkloadConfig cfg;
    cfg.kind = kind;
    cfg.rate_rps = 500;
    cfg.duration_s = 0.5;
    cfg.seed = 99;
    const auto a = generate_workload(cfg);
    const auto b = generate_workload(cfg);
    ASSERT_EQ(a.size(), b.size()) << arrival_kind_name(kind);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    }
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  WorkloadConfig cfg;
  cfg.rate_rps = 500;
  cfg.duration_s = 0.5;
  cfg.seed = 1;
  const auto a = generate_workload(cfg);
  cfg.seed = 2;
  const auto b = generate_workload(cfg);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].arrival_us != b[i].arrival_us;
  EXPECT_TRUE(differs);
}

TEST(Workload, IdsSequentialAndArrivalsSortedWithinDuration) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty}) {
    WorkloadConfig cfg;
    cfg.kind = kind;
    cfg.rate_rps = 1000;
    cfg.duration_s = 0.3;
    cfg.seed = 3;
    const auto w = generate_workload(cfg);
    ASSERT_FALSE(w.empty()) << arrival_kind_name(kind);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(w[i].id, i);
      if (i > 0) {
        EXPECT_GE(w[i].arrival_us, w[i - 1].arrival_us);
      }
      EXPECT_LT(w[i].arrival_us,
                static_cast<std::uint64_t>(cfg.duration_s * 1e6));
    }
  }
}

TEST(Workload, LongRunMeanRateApproximatesConfig) {
  // Every process targets the same long-run average; 5 virtual seconds at
  // 1000 req/s should land near 5000 for all three (deterministic given
  // the pinned seed, wide margins for the bursty process's variance).
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty}) {
    WorkloadConfig cfg;
    cfg.kind = kind;
    cfg.rate_rps = 1000;
    cfg.duration_s = 5.0;
    cfg.seed = 11;
    const auto n = generate_workload(cfg).size();
    EXPECT_GT(n, 4000u) << arrival_kind_name(kind);
    EXPECT_LT(n, 6000u) << arrival_kind_name(kind);
  }
}

TEST(Workload, UniformInterArrivalsBounded) {
  WorkloadConfig cfg;
  cfg.kind = ArrivalKind::kUniform;
  cfg.rate_rps = 1000;  // mean gap 1000 us -> gaps in [500, 1500) us
  cfg.duration_s = 1.0;
  cfg.seed = 5;
  const auto w = generate_workload(cfg);
  for (std::size_t i = 1; i < w.size(); ++i) {
    const auto gap = w[i].arrival_us - w[i - 1].arrival_us;
    EXPECT_GE(gap, 499u);  // +-1 us for per-timestamp rounding
    EXPECT_LE(gap, 1501u);
  }
}

TEST(Workload, KindNamesRoundTrip) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty})
    EXPECT_EQ(arrival_kind_from_name(arrival_kind_name(kind)), kind);
  EXPECT_THROW(arrival_kind_from_name("gaussian"), CheckError);
}

TEST(Workload, OneClassMixedStreamReplaysSingleClassStream) {
  // The identity the single-server gates rely on: the one-class mixed
  // stream at seed s - kSeedStride (mod 2^64) is generate_workload at
  // seed s, id for id and arrival for arrival, for every arrival kind.
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty})
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      WorkloadConfig single;
      single.kind = kind;
      single.rate_rps = 2000;
      single.duration_s = 0.25;
      single.seed = seed;
      MixedWorkloadConfig mixed;
      mixed.classes[0].kind = kind;
      mixed.rate_rps = single.rate_rps;
      mixed.duration_s = single.duration_s;
      mixed.seed = seed - kSeedStride;
      const auto a = generate_workload(single);
      const auto b = generate_mixed_workload(mixed);
      ASSERT_FALSE(a.empty());
      ASSERT_EQ(a.size(), b.size()) << arrival_kind_name(kind) << " " << seed;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].id, b[i].id) << i;
        ASSERT_EQ(a[i].arrival_us, b[i].arrival_us) << i;
        ASSERT_EQ(b[i].cls, 0);
        ASSERT_EQ(b[i].model, 0);
      }
    }
}

TEST(Batcher, GreedyAlwaysDispatches) {
  // Greedy dispatches whatever is queued the moment a replica is idle: a
  // lone request never waits, and a deep queue leaves in max_batch-sized
  // batches back to back.
  const auto reg = one_model(flat_table(100, 4));
  const auto lone = serve({{0, 0}}, reg, fifo_config("greedy", 4, 64));
  EXPECT_EQ(lone.max_us, 100u);
  std::vector<Request> burst;
  for (std::uint64_t i = 0; i < 10; ++i) burst.push_back({i, 999});
  const auto deep = serve(burst, reg, fifo_config("greedy", 4, 64));
  EXPECT_EQ(deep.batches, 3u);  // 4 + 4 + 2
  EXPECT_EQ(deep.max_us, 300u);
}

TEST(Batcher, TimeoutPolicySemantics) {
  // max_batch 4, timeout 2000 us, 50 us batches. A full batch at t=0
  // dispatches regardless of age; a partial batch arriving at t=100 waits
  // until its oldest request's deadline (2100) and then flushes.
  auto cfg = fifo_config("timeout", 4, 64);
  cfg.batch_timeout_us = 2000;
  const std::vector<Request> w = {{0, 0},   {1, 0},   {2, 0},
                                  {3, 0},   {4, 100}, {5, 100}};
  const auto m = serve(w, one_model(flat_table(50, 4)), cfg);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.batches, 2u);
  EXPECT_EQ(m.p50_us, 50u);     // the full batch left at once
  EXPECT_EQ(m.max_us, 2050u);   // waited 2000 us, then served in 50
  EXPECT_DOUBLE_EQ(m.duration_s, 0.00215);
  // A flush past the deadline is immediate: a lone request waits out its
  // timeout and no longer.
  const auto lone = serve({{0, 0}}, one_model(flat_table(50, 4)), cfg);
  EXPECT_EQ(lone.max_us, 2050u);
}

TEST(Batcher, UnknownPolicyAndBadConfigThrow) {
  auto bad = fifo_config("lifo", 8, 64);
  EXPECT_THROW(bad.validate(), CheckError);
  bad = fifo_config("greedy", 0, 64);
  EXPECT_THROW(bad.validate(), CheckError);
  bad = fifo_config("greedy", 8, 0);
  EXPECT_THROW(bad.validate(), CheckError);
  bad = fifo_config("timeout", 8, 64);
  bad.batch_timeout_us = 0;
  EXPECT_THROW(bad.validate(), CheckError);
  // The timeout policy is fifo's; the continuous-batching modes reject it
  // with a user-level message (no source location).
  bad = fifo_config("timeout", 8, 64);
  bad.mode = "cb";
  try {
    bad.validate();
    ADD_FAILURE() << "timeout policy accepted in cb mode";
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()).find(".cpp"), std::string::npos)
        << e.what();
  }
}

TEST(Batcher, AdmissionQueueFifoAndDropAccounting) {
  // Capacity 2, three simultaneous arrivals: the third is dropped, and
  // the first two leave together in arrival order.
  const auto m = serve({{0, 10}, {1, 10}, {2, 10}},
                       one_model(flat_table(100, 8)),
                       fifo_config("greedy", 8, 2));
  EXPECT_EQ(m.offered, 3u);
  EXPECT_EQ(m.dropped, 1u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.batches, 1u);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 2.0);
  EXPECT_EQ(m.max_queue_depth, 2u);
}

TEST(Server, LatencyTableBoundsChecked) {
  LatencyTable t;
  t.batch_latency_us = {0, 100, 150};
  EXPECT_EQ(t.max_batch(), 2);
  EXPECT_EQ(t.latency_us(1), 100u);
  EXPECT_EQ(t.latency_us(2), 150u);
  EXPECT_THROW(t.latency_us(0), CheckError);
  EXPECT_THROW(t.latency_us(3), CheckError);
}

TEST(Server, ParseRateList) {
  const auto rates = parse_rate_list("100,250.5,4000");
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  EXPECT_DOUBLE_EQ(rates[1], 250.5);
  EXPECT_DOUBLE_EQ(rates[2], 4000.0);
  EXPECT_THROW(parse_rate_list(""), CheckError);
  EXPECT_THROW(parse_rate_list("100,,200"), CheckError);
  EXPECT_THROW(parse_rate_list("100,fast"), CheckError);
  EXPECT_THROW(parse_rate_list("0"), CheckError);
  EXPECT_THROW(parse_rate_list("-5"), CheckError);
  // strtod parses these to +inf (or NaN) without tripping the end-pointer
  // check, so the finiteness rejection carries the test.
  EXPECT_THROW(parse_rate_list("inf"), CheckError);
  EXPECT_THROW(parse_rate_list("100,inf"), CheckError);
  EXPECT_THROW(parse_rate_list("nan"), CheckError);
  EXPECT_THROW(parse_rate_list("1e999"), CheckError);  // overflows to inf
}

TEST(Server, SecondReplicaAbsorbsConcurrentBatches) {
  // Two simultaneous singleton dispatches: one replica serializes them
  // (makespan 200 us), two replicas overlap them (100 us).
  const std::vector<Request> w = {{0, 0}, {1, 0}};
  const auto reg = one_model(flat_table(100, 1));
  auto cfg = fifo_config("greedy", 1, 64);
  const auto serial = serve(w, reg, cfg);
  cfg.num_gpus = 2;
  const auto dual = serve(w, reg, cfg);
  EXPECT_EQ(serial.completed, 2u);
  EXPECT_EQ(dual.completed, 2u);
  EXPECT_EQ(serial.max_us, 200u);
  EXPECT_EQ(dual.max_us, 100u);
  EXPECT_DOUBLE_EQ(dual.utilization, 1.0);  // both busy the whole makespan
}

TEST(Server, P99NonDecreasingInArrivalRate) {
  // Smoke property under the greedy policy: pushing the same open-loop
  // process harder can only deepen queueing, so the p99 latency at a fixed
  // seed must be non-decreasing in the arrival rate.
  const auto reg = one_model(flat_table(1000, 4));  // capacity 4000 req/s
  const auto cfg = fifo_config("greedy", 4, 64);
  std::uint64_t prev = 0;
  for (const double rate : {100.0, 1000.0, 2500.0, 4000.0, 8000.0}) {
    WorkloadConfig w;
    w.rate_rps = rate;
    w.duration_s = 1.0;
    w.seed = 21;
    const auto m = serve(generate_workload(w), reg, cfg);
    EXPECT_GE(m.p99_us, prev) << "rate " << rate;
    prev = m.p99_us;
  }
}

// Tier-1 determinism acceptance: the full sweep (latency-table memoization
// + event loops, fanned over the pool) must serialize to byte-identical
// reports serially and on a 4-thread pool. Mirrors determinism_test's
// contract for time_inference.
TEST(Server, RateSweepReportByteIdenticalAcrossThreadCounts) {
  FleetSchedSweepConfig cfg;
  cfg.model_names = {"vit-tiny"};
  cfg.strategies = {core::Strategy::kTC, core::Strategy::kVitBit};
  cfg.modes = {"fifo"};
  cfg.routes = {RoutePolicy::kJsq};
  cfg.rates_rps = {500, 2000};
  cfg.workload.duration_s = 0.2;
  cfg.workload.seed = 42;
  cfg.fleet.num_shards = 1;
  cfg.fleet.percentiles = PercentileMode::kExact;
  cfg.fleet.shard.policy = "timeout";
  cfg.fleet.shard.max_batch = 2;
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();

  const auto serial =
      report::to_json(make_fleet_sched_report(
                          cfg, run_fleet_sched_sweep(cfg, spec, calib, nullptr),
                          "serve_test", 1))
          .dump();
  ThreadPool four(4);
  const auto parallel =
      report::to_json(make_fleet_sched_report(
                          cfg, run_fleet_sched_sweep(cfg, spec, calib, &four),
                          "serve_test", 1))
          .dump();
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace vitbit::serve
