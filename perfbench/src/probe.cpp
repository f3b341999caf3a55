#include "probe.h"

#include <immintrin.h>

#include <cstdint>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kMacLen = 4096;   // 2 x 16 KiB of int32, L1-resident
constexpr int kMacReps = 4000;
constexpr int kGemmN = 128;     // 3 x 64 KiB of int32, L2-resident
constexpr int kBranchSteps = 300000;

alignas(32) std::int32_t g_mac_a[kMacLen], g_mac_b[kMacLen];
std::int32_t g_gemm_a[kGemmN * kGemmN], g_gemm_b[kGemmN * kGemmN],
    g_gemm_c[kGemmN * kGemmN];
volatile std::uint64_t g_sink;

__attribute__((target("avx2"))) std::uint64_t mac_avx2() {
  __m256i acc0 = _mm256_setzero_si256(), acc1 = acc0, acc2 = acc0,
          acc3 = acc0;
  for (int r = 0; r < kMacReps; ++r)
    for (int i = 0; i < kMacLen; i += 32) {
      const auto* pa = reinterpret_cast<const __m256i*>(g_mac_a + i);
      const auto* pb = reinterpret_cast<const __m256i*>(g_mac_b + i);
      acc0 = _mm256_add_epi32(
          acc0, _mm256_mullo_epi32(_mm256_load_si256(pa),
                                   _mm256_load_si256(pb)));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_mullo_epi32(_mm256_load_si256(pa + 1),
                                   _mm256_load_si256(pb + 1)));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_madd_epi16(_mm256_load_si256(pa + 2),
                                  _mm256_load_si256(pb + 2)));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_madd_epi16(_mm256_load_si256(pa + 3),
                                  _mm256_load_si256(pb + 3)));
    }
  acc0 = _mm256_add_epi32(_mm256_add_epi32(acc0, acc1),
                          _mm256_add_epi32(acc2, acc3));
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc0);
  std::uint64_t s = 0;
  for (const std::int32_t v : lanes) s += static_cast<std::uint32_t>(v);
  return s;
}

// The same multiply-adds without AVX2, for hosts that lack it.
std::uint64_t mac_portable() {
  std::int32_t acc = 0;
  for (int r = 0; r < kMacReps; ++r)
    for (int i = 0; i < kMacLen; ++i) acc += g_mac_a[i] * g_mac_b[i];
  return static_cast<std::uint32_t>(acc);
}

std::uint64_t gemm() {
  constexpr int n = kGemmN;
  for (int i = 0; i < n; ++i) {
    std::int32_t* c = g_gemm_c + i * n;
    for (int j = 0; j < n; ++j) c[j] = 0;
    for (int k = 0; k < n; ++k) {
      const std::int32_t a = g_gemm_a[i * n + k];
      const std::int32_t* b = g_gemm_b + k * n;
      for (int j = 0; j < n; ++j) c[j] += a * b[j];
    }
  }
  return static_cast<std::uint32_t>(g_gemm_c[n * n / 2]);
}

std::uint64_t branches() {
  std::uint64_t s = 12345, acc = 0;
  for (int i = 0; i < kBranchSteps; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    if (s & 1) acc += s >> 3;
    else acc ^= s;
    if (s & 4) acc *= 3;
  }
  return acc;
}

}  // namespace

HostProbe::HostProbe() {
  for (int i = 0; i < kMacLen; ++i) {
    g_mac_a[i] = i * 7 + 1;
    g_mac_b[i] = i * 13 + 3;
  }
  for (int i = 0; i < kGemmN * kGemmN; ++i) {
    g_gemm_a[i] = (i * 7) % 255 - 127;
    g_gemm_b[i] = (i * 11) % 255 - 127;
  }
}

double HostProbe::run() {
  static const bool avx2 = __builtin_cpu_supports("avx2");
  const auto t0 = now_ns();
  g_sink = (avx2 ? mac_avx2() : mac_portable()) + gemm() + branches();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double HostProbe::run_median(int n) {
  std::vector<double> s;
  for (int i = 0; i < n; ++i) s.push_back(run());
  return median(s);
}

}  // namespace perfbench
