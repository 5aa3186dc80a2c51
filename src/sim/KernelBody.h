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
/// computes, lane for lane, the scalar reference's std::complex expression
/// (sim/Kernels.cpp) and stays bit-identical to it.
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

/// PauliPhases::at, read from the fields.
template <typename Phases>
const auto &phaseAt(const Phases &Ph, uint64_t X) {
  return __builtin_parityll(Ph.ZMask & X) ? Ph.Neg : Ph.Pos;
}

template <typename V> struct CVec {
  V Re, Im;
};

/// (Wr + i Wi)(Ar + i Ai) expanded as std::complex expands it, each
/// product and sum rounded on its own.
template <typename V> CVec<V> mul(V Wr, V Wi, V Ar, V Ai) {
  return {Wr * Ar - Wi * Ai, Wr * Ai + Wi * Ar};
}

/// CosT*A + ISinT*(P*A2) on split planes, with CosT = (C, 0) and
/// ISinT = (0, S): the scalar update, its 0-component products included.
template <typename V>
CVec<V> rotate(V C, V S, V Ar, V Ai, V Pr, V Pi, V A2r, V A2i) {
  const V Z{};
  const CVec<V> U = mul(Pr, Pi, A2r, A2i);
  const CVec<V> T2 = mul(Z, S, U.Re, U.Im);
  const CVec<V> T1 = mul(C, Z, Ar, Ai);
  return {T1.Re + T2.Re, T1.Im + T2.Im};
}

template <typename V, size_t... I>
V swapPairs(V A, std::index_sequence<I...>) {
  return __builtin_shufflevector(A, A, (I ^ 1)...);
}

/// Even lanes of D, odd lanes of S.
template <typename V, size_t... I>
V evenOdd(V D, V S, std::index_sequence<I...>) {
  return __builtin_shufflevector(D, S, (I % 2 ? sizeof...(I) + I : I)...);
}

/// W * A on interleaved [re, im] lanes, Wr and Wi duplicated across each
/// lane pair: T1 = Wr*[ar, ai], T2 = Wi*[ai, ar], and the even (real) lanes
/// take one rounded T1 - T2, the odd lanes one rounded T1 + T2.
template <typename Real, typename V> V cmul(V WrDup, V WiDup, V A) {
  constexpr auto Idx = std::make_index_sequence<sizeof(V) / sizeof(Real)>{};
  const V T1 = WrDup * A, T2 = WiDup * swapPairs(A, Idx);
  return evenOdd(T1 - T2, T1 + T2, Idx);
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
  // Every vector starts at a multiple X of K, so X + k = X | k for k < K
  // and parity(ZMask & (X + k)) = parity(ZMask & X) ^ parity(ZMask & k):
  // its phases are the lane pattern of X = 0 or, at odd parity, the other
  // constant in every lane. Both patterns are built once, real and
  // imaginary parts duplicated per lane pair; one scalar parity per vector
  // then picks one.
  V PhR[2] = {}, PhI[2] = {};
  for (size_t Lo = 0; Lo < K; ++Lo)
    for (int Odd = 0; Odd < 2; ++Odd) {
      const bool Flip = __builtin_parityll(Ph.ZMask & Lo) != Odd;
      const auto &P = Flip ? Ph.Neg : Ph.Pos;
      PhR[Odd][2 * Lo] = PhR[Odd][2 * Lo + 1] = re(P);
      PhI[Odd][2 * Lo] = PhI[Odd][2 * Lo + 1] = im(P);
    }
  const V C = splat<V>(re(CosT)), S = splat<V>(im(ISinT)), Z{};
  // CosT*A + ISinT*(Ph*A2), with Y the basis index of A2's first complex.
  auto update = [&](V A, V A2, uint64_t Y) {
    const int Odd = __builtin_parityll(Ph.ZMask & Y);
    return cmul<Real>(C, Z, A) +
           cmul<Real>(Z, S, cmul<Real>(PhR[Odd], PhI[Odd], A2));
  };
  Real *P = reinterpret_cast<Real *>(Amp);
  if (XM == 0) {
    for (uint64_t X = 0; X < Dim; X += K) {
      V &A = lanes<V>(P + 2 * X);
      A = update(A, A, X);
    }
    return;
  }
  // X without the pivot bit runs Pivot consecutive indices every 2*Pivot;
  // the partners Y = X ^ XM are consecutive too (XM has no lower bits).
  for (uint64_t Base = 0; Base < Dim; Base += 2 * Pivot)
    for (uint64_t X = Base; X < Base + Pivot; X += K) {
      const uint64_t Y = X ^ XM;
      V &A0 = lanes<V>(P + 2 * X), &A1 = lanes<V>(P + 2 * Y);
      const V N0 = update(A0, A1, Y);
      A1 = update(A1, A0, X);
      A0 = N0;
    }
}

/// exp(i Theta P) over panel planes, then the fused overlap when TRe is
/// non-null (Ops::PanelExpF64 / PanelExpF32).
template <size_t B, typename Real, typename Phases>
void panelExp(Real *Re, Real *Im, size_t Dim, size_t Stride, uint64_t XM,
              std::complex<Real> CosT, std::complex<Real> ISinT,
              const Phases &Ph, const double *TRe, const double *TImNeg,
              double *AccRe, double *AccIm) {
  using V = Lane<Real, B>;
  const V C = splat<V>(re(CosT)), S = splat<V>(im(ISinT));
  // Pivot is 0 on the diagonal path (XM == 0): every row is its own
  // partner and none is skipped. Diagonal is a constant so each
  // instantiation of the row loop is branch-free.
  const uint64_t Pivot = XM & (~XM + 1);
  auto sweep = [&](auto Diagonal) {
    for (uint64_t X = 0; X < Dim; ++X) {
      if (X & Pivot)
        continue;
      const uint64_t Y = X ^ XM;
      const V PXr = splat<V>(re(phaseAt(Ph, X)));
      const V PXi = splat<V>(im(phaseAt(Ph, X)));
      const V PYr = splat<V>(re(phaseAt(Ph, Y)));
      const V PYi = splat<V>(im(phaseAt(Ph, Y)));
      Real *ReX = Re + X * Stride, *ImX = Im + X * Stride;
      Real *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
      for (size_t L = 0; L < Stride; L += B / sizeof(Real)) {
        V &A0r = lanes<V>(ReX + L), &A0i = lanes<V>(ImX + L);
        V &A1r = lanes<V>(ReY + L), &A1i = lanes<V>(ImY + L);
        const CVec<V> N0 = rotate(C, S, A0r, A0i, PYr, PYi, A1r, A1i);
        if constexpr (!Diagonal) {
          const CVec<V> N1 = rotate(C, S, A1r, A1i, PXr, PXi, A0r, A0i);
          A1r = N1.Re;
          A1i = N1.Im;
        }
        A0r = N0.Re;
        A0i = N0.Im;
      }
    }
  };
  if (XM == 0)
    sweep(std::true_type{});
  else
    sweep(std::false_type{});
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
