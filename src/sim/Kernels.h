//===- sim/Kernels.h - Dispatched statevector kernels -----------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-dispatched SIMD layer under StateVector and StatePanel.
///
/// Every hot evaluation loop resolves through one table of four kernel
/// entry points (Ops): exp(i Theta P) on an interleaved statevector and on
/// an SoA panel, each in FP64 and FP32. XM == 0 selects the Z-diagonal
/// path of either; the panel entries fold the final-rotation + target
/// overlap reduction in and skip it when TRe is null. The table is
/// selected once per process from the CPU probe (support/CpuFeatures.h),
/// best tier first: AVX-512F/DQ hosts whose OS enables the ZMM state get
/// 512-bit kernels ("avx512"), AVX2+FMA hosts 256-bit kernels
/// ("avx2-fma"), AArch64 128-bit kernels ("neon"), and everything else the
/// scalar reference implementations, which are always compiled in.
/// MARQSIM_KERNEL_TIER pins a specific tier by name; pinning a tier the
/// host cannot run aborts the process with a message naming the detected
/// features, never a silent fallback.
///
/// The SIMD tiers share one body per kernel (sim/KernelBody.h), written
/// over a vector-extension lane type and instantiated at each tier's
/// vector width; a pivot run or a Z-diagonal shorter than one vector
/// halves the width inside the same tier, down to one complex.
///
/// Determinism contract. Every kernel computes exp(i Theta P) as the real
/// butterfly of the rotation's phase class. P|Y> carries the phase
/// Ph(Y) = +/- i^k (detail::PauliPhases), so i * Ph(Y) is +/-1 (the even
/// class) or +/-i (the odd class); Neg = -Pos, so the class is one per
/// rotation and only the sign varies by row. With c = cos Theta, the sign of
/// i * Ph(Y) folded into S = +/- sin Theta, and A2 the partner amplitude
/// (A itself on the Z-diagonal path), each update is
///
///   odd class:  N.re = c*A.re - S*A2.im,  N.im = c*A.im + S*A2.re
///   even class: N.re = c*A.re + S*A2.re,  N.im = c*A.im + S*A2.im
///
/// — two multiplies and one add per component, each rounded on its own,
/// no fused multiply-adds (the whole project builds with
/// -ffp-contract=off). The scalar tier is the reference, and every SIMD
/// lane performs exactly its arithmetic: the interleaved walk carries -S
/// in the real lanes of the odd class, and c*a + (-S)*b rounds exactly
/// as c*a - S*b does. Updates are elementwise-independent maps, so lane
/// order and vector width never matter: every dispatch choice emits
/// bit-identical amplitudes, zero signs included.
///
/// Against the complex expression CosT*A + ISinT*(Ph(Y)*A2), with
/// CosT = (c, 0) and ISinT = (0, sin Theta) — three std::complex
/// multiplies, the form the two-pass reference in the tests runs — every
/// nonzero amplitude keeps its bits and only the sign of a zero is
/// unspecified:
///   - every term the butterfly drops is an exact +/-0 addend, a product
///     with a literal zero component of CosT, ISinT or Ph;
///   - every product by +/-1 or +/-i is an exact sign flip or a re/im
///     swap, so the products that remain are the same rounded values
///     up to sign, and a + (-b) is a - b;
///   - so each component sums the same two rounded products, whose
///     result differs only when it is an exact zero, and then only in
///     its sign.
/// No consumer sees that sign: a zero enters later products and sums as
/// a zero (x + (+/-0) = x for nonzero x), and overlaps, std::abs,
/// std::norm, every fidelity, hash, artifact and golden are blind to it.
/// SimTest's ButterflyContractTest holds every tier to this against the
/// two-pass reference; KernelTest holds the tiers to each other bit for
/// bit.
///
/// The fused overlap accumulates each column's overlap as its own lane
/// chain in ascending basis order — the exact chain
/// StatePanel::overlapWith runs — so fusing never changes a single bit.
/// The FP32 kernels keep the same contract among themselves but are only
/// tolerance-comparable to FP64 (sim/Precision.h).
///
/// Panel-plane layout contract (BasicStatePanel): split real/imag planes,
/// row-major by basis index — element (X, column) of a plane lives at
/// [X * Stride + column] — with Stride a multiple of one 64-byte vector
/// (8 doubles / 16 floats) and both plane bases 64-byte aligned. Rows
/// therefore start on cache lines and a column sweep is a run of
/// contiguous full-width vector lanes; kernels process the zero-filled
/// padding lanes along with the live ones (lanes never interact, so
/// padding stays inert).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_KERNELS_H
#define MARQSIM_SIM_KERNELS_H

#include "linalg/Matrix.h"
#include "pauli/PauliString.h"

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

namespace marqsim {

namespace detail {
/// The per-rotation phase table of one Pauli string. applyToBasis(X) is
/// always +/- i^{|xMask & zMask|} with the sign given by the parity of
/// zMask & X, so a kernel can precompute the two constants once per
/// rotation and select per element — the selected value is bit-identical
/// to what PauliString::applyToBasis returns, at a fraction of the cost.
struct PauliPhases {
  Complex Pos, Neg;
  uint64_t ZMask;

  explicit PauliPhases(const PauliString &P) : ZMask(P.zMask()) {
    static const Complex IPow[4] = {
        {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
    Pos = IPow[__builtin_popcountll(P.xMask() & P.zMask()) % 4];
    Neg = -Pos; // the same unary negation applyToBasis applies
  }

  const Complex &at(uint64_t X) const {
    return (__builtin_popcountll(ZMask & X) & 1) ? Neg : Pos;
  }
};

/// The FP32 tier's phase table: the same +/- i^k constants narrowed once.
/// The constants are 0/±1 valued, so the narrowing is exact.
struct PauliPhasesF32 {
  std::complex<float> Pos, Neg;
  uint64_t ZMask;

  explicit PauliPhasesF32(const PauliPhases &P)
      : Pos(static_cast<float>(P.Pos.real()),
            static_cast<float>(P.Pos.imag())),
        Neg(-Pos), ZMask(P.ZMask) {}

  const std::complex<float> &at(uint64_t X) const {
    return (__builtin_popcountll(ZMask & X) & 1) ? Neg : Pos;
  }
};
} // namespace detail

namespace kernels {

using ComplexF = std::complex<float>;

/// One implementation tier of every dispatched kernel. CosT carries
/// (cos Theta, 0) and ISinT (0, sin Theta); the kernels read c and
/// sin Theta from them and run the real butterfly (contract above).
struct Ops {
  /// Tier name as reported by --stats and the bench CSVs:
  /// "avx512", "avx2-fma", "neon", or "scalar".
  const char *Name;

  /// exp(i Theta P) on one interleaved std::complex<double> statevector:
  /// the fused in-place butterfly over {X, X ^ XM} pairs, or the
  /// per-element Z-diagonal path when XM == 0.
  void (*ExpF64)(Complex *Amp, size_t Dim, uint64_t XM, Complex CosT,
                 Complex ISinT, const detail::PauliPhases &Ph);

  /// The same on a std::complex<float> statevector — the FP32 walk tier
  /// behind BasicStateVector<float>.
  void (*ExpF32)(ComplexF *Amp, size_t Dim, uint64_t XM, ComplexF CosT,
                 ComplexF ISinT, const detail::PauliPhasesF32 &Ph);

  /// exp(i Theta P) swept over the SoA planes of an FP64 panel (layout
  /// contract above; XM == 0 selects the diagonal path). When TRe is
  /// non-null the sweep is followed, in the same call, by per-lane
  /// overlaps against a packed conjugated target panel: one streaming
  /// pass instead of one strided re-read per column.
  ///
  /// TRe / TImNeg hold the targets at the same [X * Stride + column]
  /// layout with the imaginary plane already negated (exact, sign flip
  /// only), so each lane's update is AccRe += TRe*ar - TImNeg*ai and
  /// AccIm += TRe*ai + TImNeg*ar — operation for operation the chain
  /// S += conj(Target[X]) * at(Col, X) runs in overlapWith. AccRe/AccIm
  /// are Stride doubles each, zeroed by the caller; lane L's final value
  /// is column L's overlap, accumulated in ascending basis order, so
  /// fused and unfused evaluation are bit-identical.
  void (*PanelExpF64)(double *Re, double *Im, size_t Dim, size_t Stride,
                      uint64_t XM, Complex CosT, Complex ISinT,
                      const detail::PauliPhases &Ph, const double *TRe,
                      const double *TImNeg, double *AccRe, double *AccIm);

  /// The FP32 panel sweep: amplitudes rotate in float, then widen to
  /// double (exact) before the overlap multiply-accumulate — the same
  /// widening StatePanel::at performs, so fused FP32 overlaps equal the
  /// unfused FP32 overlaps bit for bit. Targets and accumulators stay
  /// double.
  void (*PanelExpF32)(float *Re, float *Im, size_t Dim, size_t Stride,
                      uint64_t XM, ComplexF CosT, ComplexF ISinT,
                      const detail::PauliPhasesF32 &Ph, const double *TRe,
                      const double *TImNeg, double *AccRe, double *AccIm);
};

/// The dispatched table: selected on first use from the CPU probe and the
/// MARQSIM_KERNEL_TIER environment pin, then cached. Thread-safe. Aborts
/// the process (exit 1, message on stderr) when the environment pins a
/// tier this host cannot run.
const Ops &active();

/// Name of the dispatched tier ("avx512" / "avx2-fma" / "neon" /
/// "scalar").
const char *activeName();

/// Name of the best tier the CPU supports, ignoring every environment
/// override — what dispatch *would* pick on a clean environment. Stats
/// report detected vs selected so a pinned process is visible.
const char *detectedName();

/// The always-available scalar reference tier.
const Ops &scalarOps();

/// Every tier this host can run, best first; scalar is always last. The
/// list depends only on the CPU probe (never on the environment), so
/// test sweeps and bench tables are stable across pinned runs.
std::vector<const Ops *> availableOps();

/// Tier lookup by name. Returns null when the name is unknown or the
/// tier is not runnable on this host.
const Ops *findTier(const std::string &Name);

/// The environment's tier pin: MARQSIM_KERNEL_TIER verbatim; empty when
/// it is unset.
std::string tierOverrideFromEnv();

/// Test/bench hook: pin dispatch to an explicit tier (one of
/// availableOps(), or scalarOps()). Production code never calls this;
/// restore the default policy with selectAuto().
void selectTierForTesting(const Ops &Tier);

/// Restores the default dispatch policy (CPU probe + environment).
void selectAuto();

namespace detail {
/// Per-ISA tables; null when the binary was built without the ISA or the
/// host CPU (or, for AVX-512, the OS XSAVE state) lacks it. Defined in
/// KernelsAVX512.cpp / KernelsAVX2.cpp / KernelsNEON.cpp so the stubs
/// exist on every platform.
const Ops *avx512Ops();
const Ops *avx2Ops();
const Ops *neonOps();
} // namespace detail

} // namespace kernels
} // namespace marqsim

#endif // MARQSIM_SIM_KERNELS_H
