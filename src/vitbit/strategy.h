// The execution strategies of the paper's Table 3.
//
//   TC        (baseline, "T")  — Tensor cores only
//   IC        (baseline, "C")  — INT CUDA cores only
//   FC        ("C")            — FP CUDA cores only, runtime int->float
//   IC+FC     ("C")            — both CUDA pipes, runtime conversion
//   Tacker    ("T")            — Tensor cores + INT CUDA cores
//   TC+IC+FC  ("T")            — Tensor + both CUDA pipes, no packing
//   VitBit    ("T,C")          — Tensor + both CUDA pipes + operand packing
#pragma once

#include <string>
#include <vector>

namespace vitbit::core {

enum class Strategy {
  kTC,
  kIC,
  kFC,
  kICFC,
  kTacker,
  kTCICFC,
  kVitBit,
};

const char* strategy_name(Strategy s);
// Inverse of strategy_name (case-sensitive). Throws CheckError listing
// the valid names on anything else.
Strategy strategy_from_name(const std::string& name);

// All strategies, in Table 3 order.
std::vector<Strategy> all_strategies();

// The simultaneous-execution methods compared in Figure 5 (Tensor-core
// kernel methods, "T"), in figure order.
std::vector<Strategy> figure5_strategies();

// The CUDA-core kernel methods of Figure 7 ("C"), baseline first.
std::vector<Strategy> figure7_strategies();

bool uses_tensor_cores(Strategy s);
bool uses_int_cuda_cores(Strategy s);
bool uses_fp_cuda_cores(Strategy s);
bool uses_packing(Strategy s);

}  // namespace vitbit::core
