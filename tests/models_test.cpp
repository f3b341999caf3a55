// Model-zoo registry tests (serve/models/registry.h): catalog lookup and
// error reporting, memoized latency-table coverage through the shared
// builder, the int4 packing advantage showing up in the tables, and the
// cache-aware swap-cost pricing the scheduler charges for model switches.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "serve/models/registry.h"

namespace vitbit::serve {
namespace {

const arch::OrinSpec kSpec;

ModelRegistry make_registry(const std::vector<std::string>& names,
                            int max_batch = 4,
                            SwapCostConfig swap = SwapCostConfig{}) {
  return ModelRegistry(names, core::Strategy::kVitBit, kSpec,
                       arch::default_calibration(), max_batch, swap);
}

TEST(Zoo, CatalogEntriesAreWellFormed) {
  const auto names = zoo_model_names();
  EXPECT_GE(names.size(), 10u);
  for (const auto& name : names) {
    const auto e = zoo_entry(name);
    EXPECT_EQ(e.name, name);
    EXPECT_GT(e.weight_bytes, 0u) << name;
    ASSERT_TRUE(static_cast<bool>(e.log_for_batch)) << name;
    EXPECT_FALSE(e.log_for_batch(1).calls().empty()) << name;
  }
}

TEST(Zoo, UnknownNameThrowsListingCatalog) {
  try {
    zoo_entry("vit-nope");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    // The message must name the bad model and the catalog, so a CLI typo
    // is a one-glance fix.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("vit-nope"), std::string::npos) << msg;
    EXPECT_NE(msg.find("vit-b"), std::string::npos) << msg;
  }
}

TEST(Zoo, Int4VariantsHalveWeightBytes) {
  EXPECT_EQ(zoo_entry("vit-b-int4").weight_bytes,
            zoo_entry("vit-b").weight_bytes / 2);
  EXPECT_EQ(zoo_entry("vit-tiny-int4").weight_bytes,
            zoo_entry("vit-tiny").weight_bytes / 2);
  EXPECT_EQ(zoo_entry("vit-b-int4").strategy_cfg.pack_factor, 4);
}

TEST(ModelRegistry, TablesCoverEveryBatchSize) {
  const auto reg = make_registry({"vit-tiny", "cnn-small", "mixer-tiny"}, 4);
  ASSERT_EQ(reg.num_models(), 3);
  for (int m = 0; m < reg.num_models(); ++m) {
    const auto& t = reg.table(m);
    ASSERT_EQ(t.max_batch(), 4) << reg.name(m);
    for (int b = 1; b <= 4; ++b)
      EXPECT_GE(t.latency_us(b), 1u) << reg.name(m) << " batch " << b;
    // Batching never gets cheaper per batch, and a batch-4 inference must
    // cost well under four batch-1 runs (launch overhead amortizes; the
    // tiny test models are so overhead-dominated that batch 4 can cost
    // exactly batch 1) — the property the scheduler's batching leans on.
    EXPECT_GE(t.latency_us(4), t.latency_us(1)) << reg.name(m);
    EXPECT_LT(t.latency_us(4), 4 * t.latency_us(1)) << reg.name(m);
  }
}

TEST(ModelRegistry, IndexOfRoundTripsAndRejectsMissing) {
  const auto reg = make_registry({"vit-tiny", "vit-tiny-int4"});
  EXPECT_EQ(reg.index_of("vit-tiny"), 0);
  EXPECT_EQ(reg.index_of("vit-tiny-int4"), 1);
  EXPECT_EQ(reg.index_of("cnn-small"), -1);
  EXPECT_EQ(reg.name(0), "vit-tiny");
  EXPECT_THROW(reg.table(2), CheckError);
  EXPECT_THROW(reg.name(-1), CheckError);
}

TEST(ModelRegistry, DuplicateNamesThrow) {
  EXPECT_THROW(make_registry({"vit-tiny", "vit-tiny"}), CheckError);
}

TEST(ModelRegistry, Int4TableIsNoSlowerThanInt8) {
  // The int4 variant serves under pack_factor=4 — twice the operands per
  // register, fewer CUDA-core instructions — so its simulated latency
  // must not exceed the int8 table at any batch size.
  const auto reg = make_registry({"vit-tiny", "vit-tiny-int4"}, 4);
  for (int b = 1; b <= 4; ++b)
    EXPECT_LE(reg.table(1).latency_us(b), reg.table(0).latency_us(b))
        << "batch " << b;
  EXPECT_LT(reg.table(1).latency_us(4), reg.table(0).latency_us(4));
}

TEST(ModelRegistry, ColdSwapPricesWeightBytesOverLink) {
  SwapCostConfig swap;
  swap.load_gbps = 0.05;  // slow link so tiny weights dominate warm cost
  const auto reg = make_registry({"vit-tiny", "vit-tiny-int4"}, 2, swap);
  const auto int8_us = reg.cold_swap_us(0);
  const auto int4_us = reg.cold_swap_us(1);
  EXPECT_GE(int8_us, 1u);
  // Half the weight bytes stream in half the time (within rounding).
  EXPECT_NEAR(static_cast<double>(int4_us),
              static_cast<double>(int8_us) / 2.0, 1.0);
  // Pricing formula: bytes / (GB/s * 1e3 bytes-per-us).
  const double expect_us =
      static_cast<double>(zoo_entry("vit-tiny").weight_bytes) /
      (swap.load_gbps * 1e3);
  EXPECT_NEAR(static_cast<double>(int8_us), expect_us, 1.0);
}

TEST(ModelRegistry, MultiStrategyTablesMatchSingleStrategyBuilds) {
  // One build per model covers every strategy, table for table.
  const std::vector<core::Strategy> both = {core::Strategy::kTC,
                                            core::Strategy::kVitBit};
  const ModelRegistry reg({"vit-tiny", "cnn-small"}, both, kSpec,
                          arch::default_calibration(), 2, SwapCostConfig{},
                          nullptr);
  EXPECT_EQ(reg.strategies(), both);
  for (const auto s : both) {
    const ModelRegistry solo({"vit-tiny", "cnn-small"}, s, kSpec,
                             arch::default_calibration(), 2,
                             SwapCostConfig{});
    for (int m = 0; m < 2; ++m)
      EXPECT_EQ(reg.table(m, s).batch_latency_us,
                solo.table(m).batch_latency_us);
  }
  EXPECT_EQ(reg.table(0).strategy, core::Strategy::kTC);
  EXPECT_THROW(reg.table(0, core::Strategy::kIC), CheckError);
  EXPECT_THROW(ModelRegistry({"vit-tiny"},
                             std::vector<core::Strategy>{
                                 core::Strategy::kTC, core::Strategy::kTC},
                             kSpec, arch::default_calibration(), 1,
                             SwapCostConfig{}, nullptr),
               CheckError);
}

TEST(Zoo, LayersOverrideDepthOfLayeredModelsOnly) {
  const auto deep = zoo_entry("vit-b");
  const auto shallow = zoo_entry("vit-b", 1);
  EXPECT_LT(shallow.weight_bytes, deep.weight_bytes);
  EXPECT_LT(shallow.log_for_batch(1).calls().size(),
            deep.log_for_batch(1).calls().size());
  // The CNN keeps its fixed conv stack.
  EXPECT_EQ(zoo_entry("cnn-small", 1).weight_bytes,
            zoo_entry("cnn-small").weight_bytes);
  EXPECT_THROW(zoo_entry("vit-b", -1), CheckError);
}

TEST(SwapCostConfig, ValidateRejectsBadKnobs) {
  SwapCostConfig bad;
  bad.load_gbps = 0.0;
  EXPECT_THROW(bad.validate(), CheckError);
  bad = SwapCostConfig{};
  bad.cache_models = 0;
  EXPECT_THROW(bad.validate(), CheckError);
}

}  // namespace
}  // namespace vitbit::serve
