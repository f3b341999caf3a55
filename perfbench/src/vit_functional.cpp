// vit_functional: the host numerics. Integer-only ViT-Small (384 wide, 6
// heads, fixed random weights) runs VitModel::forward on a fresh
// seed-derived image per unit of work, once through nn::reference_gemm()
// and once through core::make_gemm_executor(kVitBit); the two logit
// vectors must be bit-identical. No simulator work. The reference path
// never enters swar, so it is the control a packing change must leave
// flat. (ViT-Base is out: its fc2, K = 3072, trips the FP-slice exactness
// guard of core::vitbit_gemm.) The encoder is cut to kLayers identical
// layers: a 12-layer image takes ~7 s on one core, too coarse a unit for
// a steady median within one run, and every layer runs the same code.
//
// Traced, every GEMM call of a forward is wrapped in a span (self time of
// the forward span is then the quant elementwise and requantization
// work). The first image's VitBit forward calls the executor; the second
// runs the executor's own steps — operand layout, weight_preprocessing +
// input_preprocessing, vitbit_gemm — as separate spans on that image's
// operands, so no operand is preprocessed twice, and still must match the
// reference bit for bit.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "nn/executor.h"
#include "nn/vit_model.h"
#include "swar/layout.h"
#include "tensor/gemm_dispatch.h"
#include "vitbit/executors.h"
#include "vitbit/fused_gemm.h"
#include "vitbit/preprocess.h"

namespace perfbench {
namespace {

namespace core = vitbit::core;
namespace nn = vitbit::nn;
using vitbit::MatrixF32;
using vitbit::MatrixI32;

constexpr int kLayers = 2;
// One deployed model: the weights are fixed and --seed derives only the
// images. The packed INT slice cuts its accumulation tiles from operand
// values, so a seed-derived model would change the work per image.
constexpr std::uint64_t kModelSeed = 2024;

MatrixF32 seeded_image(const nn::VitConfig& cfg, std::uint64_t seed) {
  vitbit::Rng rng(seed);
  MatrixF32 image(cfg.channels * cfg.image_size, cfg.image_size);
  for (auto& v : image.flat()) v = static_cast<float>(rng.normal());
  return image;
}

bool bit_identical(const MatrixF32& a, const MatrixF32& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double macs(const MatrixI32& a, const MatrixI32& b) {
  return static_cast<double>(a.rows()) * a.cols() * b.cols();
}

// The VitBit executor's steps (vitbit/executors.cpp, split_gemm with
// packing and the FP slice on) as separately traced calls.
MatrixI32 decomposed_vitbit_gemm(const MatrixI32& a, const MatrixI32& b,
                                 Tracer& tracer,
                                 core::FusedGemmStats& stats) {
  const core::ExecutorConfig cfg;
  core::PreprocessedWeights weights;
  core::PreprocessedInput input;
  {
    Scope s(tracer, "vitbit.preprocess");
    const auto non_negative = [](const MatrixI32& m) {
      return std::all_of(m.flat().begin(), m.flat().end(),
                         [](std::int32_t v) { return v >= 0; });
    };
    const auto layout = vitbit::swar::paper_policy_layout(
        cfg.bitwidth, non_negative(a) && non_negative(b)
                          ? vitbit::swar::LaneMode::kUnsigned
                          : vitbit::swar::LaneMode::kTopSigned);
    weights = core::weight_preprocessing(a);
    input = core::input_preprocessing(b, cfg.m_ratio, layout.num_lanes,
                                      layout, /*fp_slice=*/true);
  }
  core::FusedGemmStats one;
  MatrixI32 c;
  {
    Scope s(tracer, "vitbit.vitbit_gemm");
    c = core::vitbit_gemm(weights, input, {}, &one);
  }
  stats.packed.mac_instructions += one.packed.mac_instructions;
  stats.packed.spill_events += one.packed.spill_events;
  stats.fp_macs += one.fp_macs;
  stats.tensor_macs += one.tensor_macs;
  return c;
}

}  // namespace

Outcome run_vit_functional(const Options& opts, Tracer& tracer) {
  Outcome out;
  auto cfg = nn::vit_small();
  cfg.num_layers = kLayers;
  nn::VitModel model;
  {
    Scope s(tracer, "nn.random_vit");
    model = nn::random_vit(cfg, kModelSeed);
  }
  const auto ref_gemm = nn::reference_gemm();
  const auto vitbit_gemm = core::make_gemm_executor(core::Strategy::kVitBit);
  out.setup_done(opts);
  if (opts.setup_only) return out;

  // Traced-run accounting.
  double gemm_calls = 0, gemm_macs = 0;
  // Exact counts of the first decomposed forward (image 1): later images
  // depend on how many fit in --seconds.
  core::FusedGemmStats stats;
  bool count_stats = false;
  core::FusedGemmStats ignored;
  const nn::GemmFn traced_ref = [&](const MatrixI32& a, const MatrixI32& b) {
    Scope s(tracer, "tensor.gemm_int");
    ++gemm_calls;
    gemm_macs += macs(a, b);
    return vitbit::gemm_int(a, b);
  };
  const nn::GemmFn traced_executor = [&](const MatrixI32& a,
                                         const MatrixI32& b) {
    Scope s(tracer, "vitbit.executor_gemm");
    return vitbit_gemm(a, b);
  };
  const nn::GemmFn traced_decomposed = [&](const MatrixI32& a,
                                           const MatrixI32& b) {
    return decomposed_vitbit_gemm(a, b, tracer, count_stats ? stats : ignored);
  };

  CallTimer timer(opts.probe);
  std::vector<double> ref_s, vb_s;  // raw seconds per forward
  int ref_forwards = 0, executor_images = 0, decomposed_images = 0;
  const auto t_start = now_ns();
  for (std::uint64_t i = 0; i == 0 || (tracer.enabled() && i < 2) ||
                            seconds_since(t_start) < opts.seconds;
       ++i) {
    const auto patches = nn::extract_patches(
        seeded_image(cfg, mix_seed(opts.seed, 0x1a6e, i)), cfg);
    out.attempted += 2;
    try {
      MatrixF32 ref, vb;
      const double raw0 = timer.raw_s();
      double unit_s = timer.time([&] {
        Scope s(tracer, "nn.forward/ref");
        ref = model.forward(patches, tracer.enabled() ? traced_ref : ref_gemm);
      });
      const double raw1 = timer.raw_s();
      unit_s += timer.time([&] {
        Scope s(tracer, "nn.forward/vitbit");
        const bool decompose = tracer.enabled() && i % 2 == 1;
        count_stats = i == 1;
        vb = model.forward(patches,
                           !tracer.enabled() ? vitbit_gemm
                           : decompose       ? traced_decomposed
                                             : traced_executor);
        ++(decompose ? decomposed_images : executor_images);
      });
      const double raw2 = timer.raw_s();
      ++ref_forwards;
      ref_s.push_back(raw1 - raw0);
      vb_s.push_back(raw2 - raw1);
      out.units.push_back(unit_s);
      out.raw_units.push_back(raw2 - raw0);
      if (opts.tamper_logit && i == 0) vb.at(0, 0) += 1.0f;
      if (!bit_identical(ref, vb))
        out.fail("image " + std::to_string(i) +
                 ": VitBit logits differ from the reference");
    } catch (const std::exception& e) {
      out.fail("image " + std::to_string(i) + ": " + e.what());
      return out;
    }
  }

  if (!tracer.enabled()) {
    out.note("ref_forward_s", median(ref_s), "s");
    out.note("vitbit_forward_s", median(vb_s), "s");
    return out;
  }
  const auto self = tracer.self_ns_by_name();
  const double gemm_s = span_s(self, "tensor.gemm_int");
  out.metrics["tensor.gemm_calls"] = gemm_calls / ref_forwards;
  out.metrics["tensor.gemm_s"] = gemm_s / ref_forwards;
  out.metrics["tensor.gemm_gops"] = 2.0 * gemm_macs / gemm_s * 1e-9;
  out.metrics["vitbit.executor_gemm_s"] =
      span_s(self, "vitbit.executor_gemm") / executor_images;
  out.metrics["vitbit.preprocess_s"] =
      span_s(self, "vitbit.preprocess") / decomposed_images;
  out.metrics["vitbit.fused_gemm_s"] =
      span_s(self, "vitbit.vitbit_gemm") / decomposed_images;
  out.metrics["nn.non_gemm_s"] =
      (span_s(self, "nn.forward/ref") + span_s(self, "nn.forward/vitbit")) /
      (2.0 * ref_forwards);
  // Exact counts of one VitBit forward.
  out.metrics["swar.mac_instructions"] =
      static_cast<double>(stats.packed.mac_instructions);
  out.metrics["swar.spill_events"] =
      static_cast<double>(stats.packed.spill_events);
  out.metrics["vitbit.fp_macs"] =
      static_cast<double>(stats.fp_macs);
  out.metrics["vitbit.tensor_macs"] =
      static_cast<double>(stats.tensor_macs);
  return out;
}

}  // namespace perfbench
