//===- sim/Precision.h - Evaluation precision tiers -------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The precision tiers of the fidelity-evaluation substrate.
///
/// FP64 is the default and the determinism contract: bit-identical results
/// for every kernel dispatch, worker count, and shard split, pinned by
/// frozen goldens. FP32 is an opt-in throughput tier for ratio sweeps —
/// panel columns evolve in single precision (twice the SIMD lanes, half
/// the memory traffic), per-rotation constants are rounded to float once,
/// and overlaps accumulate in double. FP32 results are defined only to a
/// tolerance of the FP64 value (see README "Evaluation kernels"), so every
/// bit-exact artifact path — shard manifests, frozen goldens — rejects it.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_PRECISION_H
#define MARQSIM_SIM_PRECISION_H

#include "support/NameTable.h"

namespace marqsim {

/// Which floating-point tier evaluates fidelity columns.
enum class EvalPrecision {
  FP64, ///< double everywhere; the bit-exact default
  FP32, ///< float panel amplitudes; tolerance-defined, opt-in
};

/// CLI/stats spellings of the tiers, indexed by EvalPrecision.
inline constexpr const char *PrecisionNames[] = {"fp64", "fp32"};

/// CLI/stats spelling of a tier ("fp64" / "fp32").
inline const char *precisionName(EvalPrecision P) {
  return enumName(PrecisionNames, P);
}

/// Inverse of precisionName. std::nullopt for unknown spellings.
inline std::optional<EvalPrecision> parsePrecision(const std::string &Name) {
  return parseEnumName<EvalPrecision>(PrecisionNames, Name);
}

} // namespace marqsim

#endif // MARQSIM_SIM_PRECISION_H
