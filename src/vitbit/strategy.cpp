#include "vitbit/strategy.h"

#include "common/check.h"

namespace vitbit::core {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kTC:
      return "TC";
    case Strategy::kIC:
      return "IC";
    case Strategy::kFC:
      return "FC";
    case Strategy::kICFC:
      return "IC+FC";
    case Strategy::kTacker:
      return "Tacker";
    case Strategy::kTCICFC:
      return "TC+IC+FC";
    case Strategy::kVitBit:
      return "VitBit";
  }
  return "?";
}

Strategy strategy_from_name(const std::string& name) {
  std::string known;
  for (const auto s : all_strategies()) {
    if (name == strategy_name(s)) return s;
    known += known.empty() ? "" : "|";
    known += strategy_name(s);
  }
  // A user-level error (no source location): the name came from a flag.
  throw CheckError("unknown strategy: " + name + " (want " + known + ")");
}

std::vector<Strategy> all_strategies() {
  return {Strategy::kTC,     Strategy::kIC,     Strategy::kFC,
          Strategy::kICFC,   Strategy::kTacker, Strategy::kTCICFC,
          Strategy::kVitBit};
}

std::vector<Strategy> figure5_strategies() {
  return {Strategy::kTC, Strategy::kTacker, Strategy::kTCICFC,
          Strategy::kVitBit};
}

std::vector<Strategy> figure7_strategies() {
  return {Strategy::kIC, Strategy::kFC, Strategy::kICFC, Strategy::kVitBit};
}

bool uses_tensor_cores(Strategy s) {
  return s == Strategy::kTC || s == Strategy::kTacker ||
         s == Strategy::kTCICFC || s == Strategy::kVitBit;
}

bool uses_int_cuda_cores(Strategy s) {
  return s != Strategy::kTC && s != Strategy::kFC;
}

bool uses_fp_cuda_cores(Strategy s) {
  return s == Strategy::kFC || s == Strategy::kICFC ||
         s == Strategy::kTCICFC || s == Strategy::kVitBit;
}

bool uses_packing(Strategy s) { return s == Strategy::kVitBit; }

}  // namespace vitbit::core
