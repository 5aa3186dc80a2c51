//===- sim/Kernels.cpp - Scalar reference kernels and dispatch ---------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The scalar tier is the semantic definition of every kernel: the SIMD
// tiers (one shared body, sim/KernelBody.h) must reproduce its
// per-element arithmetic bit for bit, in FP64 and in FP32. Every kernel
// runs the real butterfly of the rotation's phase class (sim/Kernels.h):
// two multiplies and one add per component. The panel body is the
// statevector body restated over SoA planes, chained with the
// ascending-basis accumulation loop of StatePanel::overlapWith, one lane
// chain per column.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#include "support/CpuFeatures.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>

using namespace marqsim;
using marqsim::detail::PauliPhases;
using marqsim::detail::PauliPhasesF32;

namespace {

/// The real butterfly of one rotation: C = cos Theta, and S0 the sin
/// Theta of ISinT times the sign of i * Ph.Pos (exact, a sign flip). Row
/// X's scalar is S0 or, at odd parity of ZMask & X, -S0 — the same choice
/// Ph.at(X) makes between Pos and Neg. OddClass is true when i * Pos is
/// +/-i: the partner's real and imaginary parts then cross.
template <typename Real> struct Butterfly {
  Real C;
  Real S[2]; ///< S0 and -S0, indexed by parity: no branch per row
  bool OddClass;
  uint64_t ZMask;

  template <typename Phases>
  Butterfly(std::complex<Real> CosT, std::complex<Real> ISinT,
            const Phases &Ph)
      : C(CosT.real()), OddClass(Ph.Pos.imag() == 0), ZMask(Ph.ZMask) {
    S[0] = (Ph.Pos.real() - Ph.Pos.imag()) * ISinT.imag();
    S[1] = -S[0];
  }

  Real s(uint64_t X) const { return S[__builtin_popcountll(ZMask & X) & 1]; }
};

/// N = cos * A + i sin * Ph(Y) * A2 for the partner A2 at basis index Y,
/// with S = s(Y): (C*ar - S*a2i, C*ai + S*a2r) in the odd class and
/// (C*ar + S*a2r, C*ai + S*a2i) in the even class.
template <bool OddClass, typename Real>
void turn(Real C, Real S, Real Ar, Real Ai, Real A2r, Real A2i, Real &Nr,
          Real &Ni) {
  if constexpr (OddClass) {
    Nr = C * Ar - S * A2i;
    Ni = C * Ai + S * A2r;
  } else {
    Nr = C * Ar + S * A2r;
    Ni = C * Ai + S * A2i;
  }
}

/// Runs \p Body with \p Flag as a compile-time constant (the phase class,
/// the diagonal path), so the per-element loops carry no branch on it.
template <typename Fn> void withConstant(bool Flag, const Fn &Body) {
  if (Flag)
    Body(std::true_type{});
  else
    Body(std::false_type{});
}

//===----------------------------------------------------------------------===//
// Scalar statevector kernel (interleaved complex amplitudes)
//===----------------------------------------------------------------------===//

// Each {X, X ^ XM} pair is visited once and updated in place; XM == 0 is
// the Z-diagonal path, where every element is its own partner. Every
// nonzero result has the bits of the complex expression
// CosT * A + ISinT * (Ph.at(Y) * A2); only the sign of a zero result may
// differ from it (the contract and its proof are in sim/Kernels.h).
template <typename Real, typename Phases>
void scalarExp(std::complex<Real> *Amp, size_t Dim, uint64_t XM,
               std::complex<Real> CosT, std::complex<Real> ISinT,
               const Phases &Ph) {
  using Cx = std::complex<Real>;
  const Butterfly<Real> B(CosT, ISinT, Ph);
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM; 0 if diagonal
  withConstant(B.OddClass, [&](auto OddClass) {
    auto update = [&](const Cx &A, const Cx &A2, uint64_t Y) {
      Real Nr, Ni;
      turn<OddClass>(B.C, B.s(Y), A.real(), A.imag(), A2.real(), A2.imag(),
                     Nr, Ni);
      return Cx(Nr, Ni);
    };
    for (uint64_t X = 0; X < Dim; ++X) {
      if (X & Pivot)
        continue;
      const uint64_t Y = X ^ XM;
      const Cx A0 = Amp[X];
      const Cx A1 = Amp[Y];
      Amp[X] = update(A0, A1, Y);
      if (XM)
        Amp[Y] = update(A1, A0, X);
    }
  });
}

//===----------------------------------------------------------------------===//
// Scalar panel kernel (split real/imag planes, row X at [X * Stride])
//===----------------------------------------------------------------------===//

// The sweeps cover the full Stride of every row, padding lanes included —
// padding holds zeros and the updates are elementwise, so the dead lanes
// stay zero and never leak into live columns. This matches the SIMD
// tiers, which process whole vectors per row.

template <typename Real, typename Phases>
void panelSweep(Real *Re, Real *Im, size_t Dim, size_t Stride, uint64_t XM,
                std::complex<Real> CosT, std::complex<Real> ISinT,
                const Phases &Ph) {
  const Butterfly<Real> B(CosT, ISinT, Ph);
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM; 0 if diagonal
  withConstant(B.OddClass, [&](auto OddClass) {
    withConstant(XM == 0, [&](auto Diagonal) {
      for (uint64_t X = 0; X < Dim; ++X) {
        if (X & Pivot)
          continue;
        const uint64_t Y = X ^ XM;
        const Real SX = B.s(X), SY = B.s(Y);
        Real *ReX = Re + X * Stride, *ImX = Im + X * Stride;
        Real *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
        for (size_t L = 0; L < Stride; ++L) {
          const Real A0r = ReX[L], A0i = ImX[L];
          const Real A1r = ReY[L], A1i = ImY[L];
          turn<OddClass>(B.C, SY, A0r, A0i, A1r, A1i, ReX[L], ImX[L]);
          if constexpr (!Diagonal)
            turn<OddClass>(B.C, SX, A1r, A1i, A0r, A0i, ReY[L], ImY[L]);
        }
      }
    });
  });
}

// The overlap accumulation: lane L of AccRe/AccIm runs column L's chain
// S += conj(Target[X]) * at(Col, X) in ascending basis order. With the
// target's imaginary plane pre-negated (TImNeg = -imag, an exact sign
// flip), conj(T) * A expands to exactly
//   re: TRe*ar - TImNeg*ai ; im: TRe*ai + TImNeg*ar
// with each multiply, the subtract/add, and the accumulate add rounded
// individually — operation for operation the std::complex chain of
// StatePanel::overlapWith. FP32 amplitudes widen to double first (exact),
// matching at()'s widening.
template <typename Real>
void panelOverlapAccum(const Real *Re, const Real *Im, size_t Dim,
                       size_t Stride, const double *TRe, const double *TImNeg,
                       double *AccRe, double *AccIm) {
  for (uint64_t X = 0; X < Dim; ++X) {
    const Real *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    const double *WR = TRe + X * Stride, *WI = TImNeg + X * Stride;
    for (size_t L = 0; L < Stride; ++L) {
      const double Ar = static_cast<double>(ReX[L]);
      const double Ai = static_cast<double>(ImX[L]);
      AccRe[L] += WR[L] * Ar - WI[L] * Ai;
      AccIm[L] += WR[L] * Ai + WI[L] * Ar;
    }
  }
}

template <typename Real, typename Phases>
void scalarPanelExp(Real *Re, Real *Im, size_t Dim, size_t Stride,
                    uint64_t XM, std::complex<Real> CosT,
                    std::complex<Real> ISinT, const Phases &Ph,
                    const double *TRe, const double *TImNeg, double *AccRe,
                    double *AccIm) {
  panelSweep<Real>(Re, Im, Dim, Stride, XM, CosT, ISinT, Ph);
  // Rotation sweep first, then one streaming accumulation pass: the
  // butterfly visits rows in pair order, so accumulating inside it would
  // reorder the per-column chains.
  if (TRe)
    panelOverlapAccum<Real>(Re, Im, Dim, Stride, TRe, TImNeg, AccRe, AccIm);
}

constexpr kernels::Ops ScalarOps = {
    "scalar",
    scalarExp<double, PauliPhases>,
    scalarExp<float, PauliPhasesF32>,
    scalarPanelExp<double, PauliPhases>,
    scalarPanelExp<float, PauliPhasesF32>,
};

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

const kernels::Ops *bestOpsForHost() {
  if (const kernels::Ops *V = kernels::detail::avx512Ops())
    return V;
  if (const kernels::Ops *V = kernels::detail::avx2Ops())
    return V;
  if (const kernels::Ops *V = kernels::detail::neonOps())
    return V;
  return &ScalarOps;
}

[[noreturn]] void failUnknownTier(const std::string &Requested) {
  const CpuFeatures &F = cpuFeatures();
  std::string Have;
  for (const kernels::Ops *T : kernels::availableOps()) {
    if (!Have.empty())
      Have += ", ";
    Have += T->Name;
  }
  std::fprintf(stderr,
               "marqsim: MARQSIM_KERNEL_TIER=%s is not runnable on this host "
               "(available tiers: %s; detected features: avx2=%d fma=%d "
               "avx512f=%d avx512dq=%d avx512-os=%d neon=%d)\n",
               Requested.c_str(), Have.c_str(), F.AVX2, F.FMA, F.AVX512F,
               F.AVX512DQ, F.AVX512OS, F.NEON);
  std::exit(1);
}

/// The default policy: the environment pin when present (fail fast on a
/// tier this host cannot run), else the best tier the CPU supports.
const kernels::Ops *selectFromPolicy() {
  const std::string Pinned = kernels::tierOverrideFromEnv();
  if (!Pinned.empty()) {
    if (const kernels::Ops *T = kernels::findTier(Pinned))
      return T;
    failUnknownTier(Pinned);
  }
  return bestOpsForHost();
}

// The cached selection. Null until the first active() call (or an explicit
// select*); stores are release so the pointed-to table is visible to
// acquire loads on other threads.
std::atomic<const kernels::Ops *> Active{nullptr};

} // namespace

std::string kernels::tierOverrideFromEnv() {
  const char *E = std::getenv("MARQSIM_KERNEL_TIER");
  return E ? E : "";
}

std::vector<const kernels::Ops *> kernels::availableOps() {
  std::vector<const Ops *> Tiers;
  if (const Ops *V = detail::avx512Ops())
    Tiers.push_back(V);
  if (const Ops *V = detail::avx2Ops())
    Tiers.push_back(V);
  if (const Ops *V = detail::neonOps())
    Tiers.push_back(V);
  Tiers.push_back(&ScalarOps);
  return Tiers;
}

const kernels::Ops *kernels::findTier(const std::string &Name) {
  for (const Ops *T : availableOps())
    if (Name == T->Name)
      return T;
  return nullptr;
}

const kernels::Ops &kernels::active() {
  const Ops *K = Active.load(std::memory_order_acquire);
  if (K)
    return *K;
  // First use: apply the default policy. Racing threads compute the same
  // answer, so a benign double-store is fine.
  K = selectFromPolicy();
  Active.store(K, std::memory_order_release);
  return *K;
}

const char *kernels::activeName() { return active().Name; }

const char *kernels::detectedName() { return bestOpsForHost()->Name; }

const kernels::Ops &kernels::scalarOps() { return ScalarOps; }

void kernels::selectTierForTesting(const Ops &Tier) {
  Active.store(&Tier, std::memory_order_release);
}

void kernels::selectAuto() {
  Active.store(selectFromPolicy(), std::memory_order_release);
}
