//===- sim/StatePanel.cpp - Multi-column statevector panel -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/StatePanel.h"

#include "sim/Kernels.h"

#include <cmath>
#include <type_traits>

using namespace marqsim;

TargetPanel::TargetPanel(const CVector *Targets, size_t Count, size_t Stride)
    : Dim(Count ? Targets[0].size() : 0), Cols(Count), Stride(Stride),
      TRe(Dim * Stride, 0.0), TImNeg(Dim * Stride, 0.0) {
  assert(Count > 0 && Stride >= Count && "bad target panel shape");
  for (size_t Col = 0; Col < Cols; ++Col) {
    assert(Targets[Col].size() == Dim && "target size mismatch");
    for (uint64_t X = 0; X < Dim; ++X) {
      const Complex &T = Targets[Col][X];
      TRe[size_t(X) * Stride + Col] = T.real();
      TImNeg[size_t(X) * Stride + Col] = -T.imag(); // exact sign flip
    }
  }
}

template <typename Real>
BasicStatePanel<Real>::BasicStatePanel(unsigned NumQubits,
                                       const uint64_t *Basis,
                                       size_t NumColumns)
    : NQubits(NumQubits), Dim(size_t(1) << NumQubits), Cols(NumColumns),
      Stride((NumColumns + LaneMultiple - 1) & ~(LaneMultiple - 1)),
      Re(Dim * Stride, Real(0)), Im(Dim * Stride, Real(0)) {
  assert(NumQubits <= 26 && "statevector too large");
  for (size_t Col = 0; Col < Cols; ++Col) {
    assert(Basis[Col] < Dim && "basis state out of range");
    Re[size_t(Basis[Col]) * Stride + Col] = Real(1);
  }
}

template <typename Real>
BasicStatePanel<Real>::BasicStatePanel(unsigned NumQubits,
                                       const std::vector<uint64_t> &Basis)
    : BasicStatePanel(NumQubits, Basis.data(), Basis.size()) {}

template <typename Real>
CVector BasicStatePanel<Real>::column(size_t Col) const {
  assert(Col < Cols && "column out of range");
  CVector Out(Dim);
  for (uint64_t X = 0; X < Dim; ++X)
    Out[X] = at(Col, X);
  return Out;
}

template <typename Real>
void BasicStatePanel<Real>::applyPauliExpAll(const PauliString &P,
                                             double Theta) {
  assert((P.supportMask() >> NQubits) == 0 &&
         "Pauli string acts outside the register");
  using C = std::complex<Real>;
  // Per-rotation setup — masks, trig, the +/- i^k phase constants — done
  // once here and amortized over every column below. The trig runs in
  // double for every instantiation; the FP32 tier narrows the constants
  // exactly once per rotation.
  const C CosT(Real(std::cos(Theta)), Real(0));
  const C ISinT(Real(0), Real(std::sin(Theta)));
  if (P.isIdentity()) {
    // exp(i Theta I) is the global phase cos + i sin; elementwise over
    // the planes, padding lanes included (they stay zero).
    const C Phase = CosT + ISinT;
    for (size_t I = 0, E = Re.size(); I < E; ++I) {
      const C A(Re[I], Im[I]);
      const C N = A * Phase;
      Re[I] = N.real();
      Im[I] = N.imag();
    }
    return;
  }
  const uint64_t XM = P.xMask();
  const detail::PauliPhases Phases(P);
  const kernels::Ops &K = kernels::active();
  // Null targets: the sweep alone, no overlap accumulation.
  if constexpr (std::is_same_v<Real, double>)
    K.PanelExpF64(Re.data(), Im.data(), Dim, Stride, XM, CosT, ISinT, Phases,
                  nullptr, nullptr, nullptr, nullptr);
  else
    K.PanelExpF32(Re.data(), Im.data(), Dim, Stride, XM, CosT, ISinT,
                  detail::PauliPhasesF32(Phases), nullptr, nullptr, nullptr,
                  nullptr);
}

template <typename Real> void BasicStatePanel<Real>::applyAll(const Gate &G) {
  using C = std::complex<Real>;
  Complex M64[2][2];
  if (detail::singleQubitMatrix(G, M64)) {
    assert(G.Qubit0 < NQubits && "qubit out of range");
    // Matrix entries narrow once per gate; for the double panel this is
    // the identical matrix a standalone StateVector applies.
    const C M00(M64[0][0]), M01(M64[0][1]), M10(M64[1][0]), M11(M64[1][1]);
    const uint64_t Bit = 1ULL << G.Qubit0;
    for (uint64_t Base = 0; Base < Dim; ++Base) {
      if (Base & Bit)
        continue;
      Real *Re0 = Re.data() + Base * Stride;
      Real *Im0 = Im.data() + Base * Stride;
      Real *Re1 = Re.data() + (Base | Bit) * Stride;
      Real *Im1 = Im.data() + (Base | Bit) * Stride;
      for (size_t L = 0; L < Stride; ++L) {
        const C A0(Re0[L], Im0[L]);
        const C A1(Re1[L], Im1[L]);
        const C N0 = M00 * A0 + M01 * A1;
        const C N1 = M10 * A0 + M11 * A1;
        Re0[L] = N0.real();
        Im0[L] = N0.imag();
        Re1[L] = N1.real();
        Im1[L] = N1.imag();
      }
    }
    return;
  }
  assert(G.Kind == GateKind::CNOT && "invalid GateKind");
  if (G.Kind != GateKind::CNOT)
    return; // release builds: an invalid kind stays a no-op
  const uint64_t CBit = 1ULL << G.Qubit0;
  const uint64_t TBit = 1ULL << G.Qubit1;
  for (uint64_t X = 0; X < Dim; ++X) {
    if (!(X & CBit) || (X & TBit))
      continue;
    Real *Re0 = Re.data() + X * Stride;
    Real *Im0 = Im.data() + X * Stride;
    Real *Re1 = Re.data() + (X | TBit) * Stride;
    Real *Im1 = Im.data() + (X | TBit) * Stride;
    for (size_t L = 0; L < Stride; ++L) {
      std::swap(Re0[L], Re1[L]);
      std::swap(Im0[L], Im1[L]);
    }
  }
}

template <typename Real>
void BasicStatePanel<Real>::applyAll(const Circuit &C) {
  assert(C.numQubits() <= NQubits && "circuit wider than panel");
  for (const Gate &G : C.gates())
    applyAll(G);
}

template <typename Real>
void BasicStatePanel<Real>::applyPauliExpAllFused(const PauliString &P,
                                                  double Theta,
                                                  const TargetPanel &Targets,
                                                  Complex *Out) {
  assert(Targets.laneStride() == Stride && Targets.dim() == Dim &&
         Targets.numColumns() == Cols && "target panel shape mismatch");
  using C = std::complex<Real>;
  const C CosT(Real(std::cos(Theta)), Real(0));
  const C ISinT(Real(0), Real(std::sin(Theta)));
  const double *WR = Targets.realPlane();
  const double *WI = Targets.negImagPlane();
  if (P.isIdentity()) {
    // The kernels have no identity path; rotate via the global-phase loop
    // and accumulate here with the same per-lane ascending-basis chain
    // the fused kernels run (each op individually rounded), so this path
    // is bit-identical to applyPauliExpAll + overlapWith too.
    applyPauliExpAll(P, Theta);
    for (size_t Col = 0; Col < Cols; ++Col) {
      double AccRe = 0.0, AccIm = 0.0;
      for (uint64_t X = 0; X < Dim; ++X) {
        const size_t I = size_t(X) * Stride + Col;
        const double Ar = static_cast<double>(Re[I]);
        const double Ai = static_cast<double>(Im[I]);
        AccRe += WR[I] * Ar - WI[I] * Ai;
        AccIm += WR[I] * Ai + WI[I] * Ar;
      }
      Out[Col] = Complex(AccRe, AccIm);
    }
    return;
  }
  const uint64_t XM = P.xMask();
  const detail::PauliPhases Phases(P);
  const kernels::Ops &K = kernels::active();
  // Lane L of the accumulator planes carries column L's overlap chain;
  // padding lanes accumulate zeros against zero targets and are dropped.
  std::vector<double, AlignedAllocator<double, 64>> AccRe(Stride, 0.0);
  std::vector<double, AlignedAllocator<double, 64>> AccIm(Stride, 0.0);
  if constexpr (std::is_same_v<Real, double>)
    K.PanelExpF64(Re.data(), Im.data(), Dim, Stride, XM, CosT, ISinT, Phases,
                  WR, WI, AccRe.data(), AccIm.data());
  else
    K.PanelExpF32(Re.data(), Im.data(), Dim, Stride, XM, CosT, ISinT,
                  detail::PauliPhasesF32(Phases), WR, WI, AccRe.data(),
                  AccIm.data());
  for (size_t Col = 0; Col < Cols; ++Col)
    Out[Col] = Complex(AccRe[Col], AccIm[Col]);
}

template <typename Real>
Complex BasicStatePanel<Real>::overlapWith(const CVector &Target,
                                           size_t Col) const {
  assert(Target.size() == Dim && "overlap size mismatch");
  assert(Col < Cols && "column out of range");
  Complex S = 0.0;
  for (uint64_t X = 0; X < Dim; ++X)
    S += std::conj(Target[X]) * at(Col, X);
  return S;
}

template class marqsim::BasicStatePanel<double>;
template class marqsim::BasicStatePanel<float>;
