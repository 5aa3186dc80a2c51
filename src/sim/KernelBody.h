//===- sim/KernelBody.h - One kernel body for every SIMD tier ---*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four dispatched kernels of kernels::Ops, written once over a
/// GCC/Clang vector-extension lane type and instantiated by each SIMD tier
/// at its vector width in bytes: opsAt<64> for AVX-512, opsAt<32> for
/// AVX2, opsAt<16> for NEON. The lane operations are plain vector *, + and
/// - (one IEEE rounding per lane, never fused under -ffp-contract=off),
/// __builtin_shufflevector and __builtin_convertvector, so every width
/// computes, lane for lane, the scalar reference's real butterfly
/// (sim/Kernels.cpp) and stays bit-identical to it, zero signs included.
/// Against the complex expression CosT*A + ISinT*(Ph*A2) that butterfly
/// keeps every nonzero bit and leaves only the sign of a zero unspecified
/// (the proof is in sim/Kernels.h).
///
/// Include only from a tier translation unit. Everything here has internal
/// linkage, and complex numbers and phase tables are read through their
/// fields, never through shared inline members: a tier TU is compiled with
/// its ISA flags, and any inline function it emitted would be a weak symbol
/// the linker could hand to every other caller, the scalar tier included.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_KERNELBODY_H
#define MARQSIM_SIM_KERNELBODY_H

#include "sim/Kernels.h"

#include <type_traits>
#include <utility>

namespace {
namespace kernel_body {

/// B bytes of T, one vector register of a tier. Plane rows and amplitudes
/// are addressed through it; vector types alias their element type.
template <typename T, size_t B> struct LaneOf {
  typedef T Type __attribute__((vector_size(B)));
};
template <typename T, size_t B> using Lane = typename LaneOf<T, B>::Type;

template <typename V, typename T> V &lanes(T *P) {
  return *reinterpret_cast<V *>(P);
}

/// Broadcast. X - 0 is exact for every X, -0.0 included, and compiles to a
/// register splat rather than a lane-by-lane build through the stack.
template <typename V, typename T> V splat(T X) { return X - V{}; }

template <typename T> T re(const std::complex<T> &C) {
  return reinterpret_cast<const T *>(&C)[0];
}
template <typename T> T im(const std::complex<T> &C) {
  return reinterpret_cast<const T *>(&C)[1];
}

template <typename V> struct CVec {
  V Re, Im;
};

/// (Wr + i Wi)(Ar + i Ai) expanded as std::complex expands it, each
/// product and sum rounded on its own: the overlap accumulation's step.
template <typename V> CVec<V> mul(V Wr, V Wi, V Ar, V Ai) {
  return {Wr * Ar - Wi * Ai, Wr * Ai + Wi * Ar};
}

/// The rotation's sign scalar S0: sin Theta times the sign of i * Ph.Pos
/// (Pos.re - Pos.im is that sign, exactly +/-1). Row X takes S0, or -S0
/// when ZMask & X has odd parity.
template <typename Real, typename Phases>
Real signedSin(std::complex<Real> ISinT, const Phases &Ph) {
  return (re(Ph.Pos) - im(Ph.Pos)) * im(ISinT);
}

/// Runs \p Body with \p Flag as a compile-time constant (the phase class,
/// the diagonal path), so the lane loops carry no branch on it.
template <typename Fn> void withConstant(bool Flag, const Fn &Body) {
  if (Flag)
    Body(std::true_type{});
  else
    Body(std::false_type{});
}

/// The real butterfly on split planes: C*A + S*(A2 crossed in the odd
/// class, A2 itself in the even class), the scalar reference's update.
template <bool OddClass, typename V>
CVec<V> turn(V C, V S, V Ar, V Ai, V A2r, V A2i) {
  if constexpr (OddClass)
    return {C * Ar - S * A2i, C * Ai + S * A2r};
  else
    return {C * Ar + S * A2r, C * Ai + S * A2i};
}

template <typename V, size_t... I>
V swapPairs(V A, std::index_sequence<I...>) {
  return __builtin_shufflevector(A, A, (I ^ 1)...);
}

/// exp(i Theta P) on an interleaved statevector (Ops::ExpF64 / ExpF32).
template <size_t B, typename Real, typename Phases>
void stateExp(std::complex<Real> *Amp, size_t Dim, uint64_t XM,
              std::complex<Real> CosT, std::complex<Real> ISinT,
              const Phases &Ph) {
  constexpr size_t K = B / (2 * sizeof(Real)); // complexes per vector
  const uint64_t Pivot = XM & (~XM + 1);       // lowest set bit of XM
  // A pivot run, or a diagonal statevector, shorter than one vector halves
  // the width, down to one complex per vector.
  if constexpr (K > 1)
    if ((XM ? Pivot : Dim) < K)
      return stateExp<B / 2>(Amp, Dim, XM, CosT, ISinT, Ph);
  using V = Lane<Real, B>;
  constexpr auto Idx = std::make_index_sequence<2 * K>{};
  const bool OddClass = im(Ph.Pos) == 0;
  const Real S0 = signedSin(ISinT, Ph);
  // Every vector starts at a multiple X of K, so X + k = X | k for k < K
  // and parity(ZMask & (X + k)) = parity(ZMask & X) ^ parity(ZMask & k):
  // its row scalars are the lane pattern of X = 0 or, at odd parity, its
  // negation. Both patterns are built once; one scalar parity per vector
  // then picks one. In the odd class the real lane of each pair carries
  // -S, so C*A + S*swapPairs(A2) is (C*ar + (-S)*a2i, C*ai + S*a2r) —
  // bit for bit the scalar's C*ar - S*a2i, since (-S)*x is -(S*x) and
  // a + (-b) is a - b.
  V SL[2] = {};
  for (size_t Lo = 0; Lo < K; ++Lo)
    for (int Parity = 0; Parity < 2; ++Parity) {
      const bool Flip = __builtin_parityll(Ph.ZMask & Lo) != Parity;
      const Real S = Flip ? -S0 : S0;
      SL[Parity][2 * Lo] = OddClass ? -S : S;
      SL[Parity][2 * Lo + 1] = S;
    }
  const V C = splat<V>(re(CosT));
  Real *P = reinterpret_cast<Real *>(Amp);
  withConstant(OddClass, [&](auto Odd) {
    // CosT*A + ISinT*(Ph*A2) as the real butterfly, with Y the basis index
    // of A2's first complex.
    auto update = [&](V A, V A2, uint64_t Y) {
      const V &S = SL[__builtin_parityll(Ph.ZMask & Y)];
      if constexpr (Odd)
        return C * A + S * swapPairs(A2, Idx);
      else
        return C * A + S * A2;
    };
    if (XM == 0) {
      for (uint64_t X = 0; X < Dim; X += K) {
        V &A = lanes<V>(P + 2 * X);
        A = update(A, A, X);
      }
      return;
    }
    // X without the pivot bit runs Pivot consecutive indices every
    // 2*Pivot; the partners Y = X ^ XM are consecutive too (XM has no
    // lower bits).
    for (uint64_t Base = 0; Base < Dim; Base += 2 * Pivot)
      for (uint64_t X = Base; X < Base + Pivot; X += K) {
        const uint64_t Y = X ^ XM;
        V &A0 = lanes<V>(P + 2 * X), &A1 = lanes<V>(P + 2 * Y);
        const V N0 = update(A0, A1, Y);
        A1 = update(A1, A0, X);
        A0 = N0;
      }
  });
}

/// exp(i Theta P) over panel planes, then the fused overlap when TRe is
/// non-null (Ops::PanelExpF64 / PanelExpF32).
template <size_t B, typename Real, typename Phases>
void panelExp(Real *Re, Real *Im, size_t Dim, size_t Stride, uint64_t XM,
              std::complex<Real> CosT, std::complex<Real> ISinT,
              const Phases &Ph, const double *TRe, const double *TImNeg,
              double *AccRe, double *AccIm) {
  using V = Lane<Real, B>;
  const V C = splat<V>(re(CosT));
  // Row X's scalar, indexed by the parity of ZMask & X: a load, never a
  // branch on a parity that varies row to row.
  const Real S0 = signedSin(ISinT, Ph);
  const V SRow[2] = {splat<V>(S0), splat<V>(-S0)};
  // Pivot is 0 on the diagonal path (XM == 0): every row is its own
  // partner and none is skipped. The class and the diagonal path are
  // constants, so each instantiation of the row loop is branch-free.
  const uint64_t Pivot = XM & (~XM + 1);
  auto sweep = [&](auto OddClass, auto Diagonal) {
    for (uint64_t X = 0; X < Dim; ++X) {
      if (X & Pivot)
        continue;
      const uint64_t Y = X ^ XM;
      const V SX = SRow[__builtin_parityll(Ph.ZMask & X)];
      const V SY = SRow[__builtin_parityll(Ph.ZMask & Y)];
      Real *ReX = Re + X * Stride, *ImX = Im + X * Stride;
      Real *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
      for (size_t L = 0; L < Stride; L += B / sizeof(Real)) {
        V &A0r = lanes<V>(ReX + L), &A0i = lanes<V>(ImX + L);
        V &A1r = lanes<V>(ReY + L), &A1i = lanes<V>(ImY + L);
        const CVec<V> N0 = turn<OddClass>(C, SY, A0r, A0i, A1r, A1i);
        if constexpr (!Diagonal) {
          const CVec<V> N1 = turn<OddClass>(C, SX, A1r, A1i, A0r, A0i);
          A1r = N1.Re;
          A1i = N1.Im;
        }
        A0r = N0.Re;
        A0i = N0.Im;
      }
    }
  };
  withConstant(im(Ph.Pos) == 0, [&](auto OddClass) {
    withConstant(XM == 0, [&](auto Diagonal) { sweep(OddClass, Diagonal); });
  });
  if (!TRe)
    return;
  // Streaming accumulation, row by row in ascending basis order: the
  // amplitudes widen (exactly) to double lanes, and each lane runs the
  // scalar chain Acc += conj(T) * A against the pre-negated TImNeg plane.
  using D = Lane<double, B>;
  using R = Lane<Real, B / sizeof(double) * sizeof(Real)>;
  for (uint64_t X = 0; X < Dim; ++X) {
    const Real *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    const double *WR = TRe + X * Stride, *WI = TImNeg + X * Stride;
    for (size_t L = 0; L < Stride; L += B / sizeof(double)) {
      const D Ar = __builtin_convertvector(lanes<const R>(ReX + L), D);
      const D Ai = __builtin_convertvector(lanes<const R>(ImX + L), D);
      const CVec<D> T =
          mul(lanes<const D>(WR + L), lanes<const D>(WI + L), Ar, Ai);
      lanes<D>(AccRe + L) += T.Re;
      lanes<D>(AccIm + L) += T.Im;
    }
  }
}

/// The kernels::Ops table of a tier whose vectors are B bytes wide.
template <size_t B> constexpr marqsim::kernels::Ops opsAt(const char *Name) {
  using marqsim::detail::PauliPhases;
  using marqsim::detail::PauliPhasesF32;
  return {Name, stateExp<B, double, PauliPhases>,
          stateExp<B, float, PauliPhasesF32>,
          panelExp<B, double, PauliPhases>, panelExp<B, float, PauliPhasesF32>};
}

} // namespace kernel_body
} // namespace

#endif // MARQSIM_SIM_KERNELBODY_H
