//===- sim/StateVector.cpp - Statevector simulator ---------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/StateVector.h"

#include "sim/Kernels.h"
#include "sim/StatePanel.h"

#include <cmath>
#include <type_traits>

using namespace marqsim;

template <typename Real>
BasicStateVector<Real>::BasicStateVector(unsigned NumQubits, uint64_t Basis)
    : NQubits(NumQubits),
      Amp(size_t(1) << NumQubits, std::complex<Real>(0, 0)) {
  assert(NumQubits <= 26 && "statevector too large");
  assert(Basis < Amp.size() && "basis state out of range");
  Amp[Basis] = std::complex<Real>(1, 0);
}

template <typename Real>
BasicStateVector<Real>::BasicStateVector(unsigned NumQubits,
                                         AmpVector Amplitudes)
    : NQubits(NumQubits), Amp(std::move(Amplitudes)) {
  assert(Amp.size() == size_t(1) << NumQubits &&
         "amplitude vector size mismatch");
}

bool marqsim::detail::singleQubitMatrix(const Gate &G, Complex M[2][2]) {
  const Complex I(0.0, 1.0);
  switch (G.Kind) {
  case GateKind::H: {
    const double S = 1.0 / std::sqrt(2.0);
    M[0][0] = S;
    M[0][1] = S;
    M[1][0] = S;
    M[1][1] = -S;
    return true;
  }
  case GateKind::X:
    M[0][0] = 0.0;
    M[0][1] = 1.0;
    M[1][0] = 1.0;
    M[1][1] = 0.0;
    return true;
  case GateKind::Y:
    M[0][0] = 0.0;
    M[0][1] = -I;
    M[1][0] = I;
    M[1][1] = 0.0;
    return true;
  case GateKind::Z:
    M[0][0] = 1.0;
    M[0][1] = 0.0;
    M[1][0] = 0.0;
    M[1][1] = -1.0;
    return true;
  case GateKind::S:
    M[0][0] = 1.0;
    M[0][1] = 0.0;
    M[1][0] = 0.0;
    M[1][1] = I;
    return true;
  case GateKind::Sdg:
    M[0][0] = 1.0;
    M[0][1] = 0.0;
    M[1][0] = 0.0;
    M[1][1] = -I;
    return true;
  case GateKind::Rx: {
    double C = std::cos(G.Angle / 2), Sn = std::sin(G.Angle / 2);
    M[0][0] = C;
    M[0][1] = -I * Sn;
    M[1][0] = -I * Sn;
    M[1][1] = C;
    return true;
  }
  case GateKind::Ry: {
    double C = std::cos(G.Angle / 2), Sn = std::sin(G.Angle / 2);
    M[0][0] = C;
    M[0][1] = -Sn;
    M[1][0] = Sn;
    M[1][1] = C;
    return true;
  }
  case GateKind::Rz:
    M[0][0] = std::exp(-I * (G.Angle / 2));
    M[0][1] = 0.0;
    M[1][0] = 0.0;
    M[1][1] = std::exp(I * (G.Angle / 2));
    return true;
  case GateKind::CNOT:
    return false;
  }
  assert(false && "invalid GateKind");
  return false;
}

template <typename Real>
void BasicStateVector<Real>::applySingleQubit(unsigned Q,
                                              const Complex M[2][2]) {
  assert(Q < NQubits && "qubit out of range");
  using C = std::complex<Real>;
  // Entries narrow once per gate; the double instantiation applies the
  // identical matrix this class always has.
  const C M00(M[0][0]), M01(M[0][1]), M10(M[1][0]), M11(M[1][1]);
  const uint64_t Bit = 1ULL << Q;
  const size_t Dim = Amp.size();
  for (uint64_t Base = 0; Base < Dim; ++Base) {
    if (Base & Bit)
      continue;
    const C A0 = Amp[Base];
    const C A1 = Amp[Base | Bit];
    Amp[Base] = M00 * A0 + M01 * A1;
    Amp[Base | Bit] = M10 * A0 + M11 * A1;
  }
}

template <typename Real> void BasicStateVector<Real>::apply(const Gate &G) {
  Complex M[2][2];
  if (detail::singleQubitMatrix(G, M)) {
    applySingleQubit(G.Qubit0, M);
    return;
  }
  assert(G.Kind == GateKind::CNOT && "invalid GateKind");
  if (G.Kind != GateKind::CNOT)
    return; // release builds: an invalid kind stays a no-op
  const uint64_t CBit = 1ULL << G.Qubit0;
  const uint64_t TBit = 1ULL << G.Qubit1;
  const size_t Dim = Amp.size();
  for (uint64_t X = 0; X < Dim; ++X)
    if ((X & CBit) && !(X & TBit))
      std::swap(Amp[X], Amp[X | TBit]);
}

template <typename Real> void BasicStateVector<Real>::apply(const Circuit &C) {
  assert(C.numQubits() <= NQubits && "circuit wider than state");
  for (const Gate &G : C.gates())
    apply(G);
}

template <typename Real>
void BasicStateVector<Real>::applyPauli(const PauliString &P) {
  assert((P.supportMask() >> NQubits) == 0 &&
         "Pauli string acts outside the register");
  const uint64_t XM = P.xMask();
  const detail::PauliPhases Phases64(P);
  // The +/- i^k constants are 0/±1 valued; the FP32 narrowing is exact.
  const auto phase = [&](uint64_t X) {
    if constexpr (std::is_same_v<Real, double>)
      return Phases64.at(X);
    else
      return std::complex<Real>(
          static_cast<Real>(Phases64.at(X).real()),
          static_cast<Real>(Phases64.at(X).imag()));
  };
  if (XM == 0) {
    // Diagonal: a pure per-element phase, in place.
    for (uint64_t X = 0; X < Amp.size(); ++X)
      Amp[X] = phase(X) * Amp[X];
    return;
  }
  // One in-place pass over the {X, X ^ XM} pairs: P|psi>[X] is the
  // partner amplitude times its phase, exactly the value the old scratch
  // pass stored.
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM
  for (uint64_t X = 0; X < Amp.size(); ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const std::complex<Real> A0 = Amp[X];
    const std::complex<Real> A1 = Amp[Y];
    Amp[X] = phase(Y) * A1;
    Amp[Y] = phase(X) * A0;
  }
}

template <typename Real>
void BasicStateVector<Real>::applyPauliExp(const PauliString &P,
                                           double Theta) {
  assert((P.supportMask() >> NQubits) == 0 &&
         "Pauli string acts outside the register");
  using C = std::complex<Real>;
  // Trig in double for every instantiation; the FP32 tier narrows the
  // per-rotation constants exactly once.
  const C CosT(Real(std::cos(Theta)), Real(0));
  const C ISinT(Real(0), Real(std::sin(Theta)));
  if (P.isIdentity()) {
    // exp(i Theta I) is the global phase cos + i sin.
    const C Phase = CosT + ISinT;
    for (C &A : Amp)
      A *= Phase;
    return;
  }
  // The diagonal fast path and the fused butterfly both live behind the
  // kernel dispatch: scalar reference or a bit-identical SIMD variant.
  const uint64_t XM = P.xMask();
  const detail::PauliPhases Phases(P);
  const kernels::Ops &K = kernels::active();
  if constexpr (std::is_same_v<Real, double>)
    K.ExpF64(Amp.data(), Amp.size(), XM, CosT, ISinT, Phases);
  else
    K.ExpF32(Amp.data(), Amp.size(), XM, CosT, ISinT,
             detail::PauliPhasesF32(Phases));
}

template <typename Real>
Complex BasicStateVector<Real>::overlap(const BasicStateVector &Other) const {
  assert(Amp.size() == Other.Amp.size() && "overlap size mismatch");
  if constexpr (std::is_same_v<Real, double>) {
    return innerProduct(Amp, Other.Amp);
  } else {
    // The same ascending-index double chain as innerProduct, with the
    // FP32 amplitudes widened exactly first.
    Complex S = 0.0;
    for (uint64_t X = 0; X < Amp.size(); ++X) {
      const Complex A(static_cast<double>(Amp[X].real()),
                      static_cast<double>(Amp[X].imag()));
      const Complex B(static_cast<double>(Other.Amp[X].real()),
                      static_cast<double>(Other.Amp[X].imag()));
      S += std::conj(A) * B;
    }
    return S;
  }
}

template <typename Real>
Complex
BasicStateVector<Real>::overlapWithTarget(const CVector &Target) const {
  assert(Target.size() == Amp.size() && "overlap size mismatch");
  Complex S = 0.0;
  for (uint64_t X = 0; X < Amp.size(); ++X) {
    const Complex A(static_cast<double>(Amp[X].real()),
                    static_cast<double>(Amp[X].imag()));
    S += std::conj(Target[X]) * A;
  }
  return S;
}

template <typename Real> double BasicStateVector<Real>::norm() const {
  if constexpr (std::is_same_v<Real, double>) {
    return vectorNorm(Amp);
  } else {
    // Per-element |a|^2 accumulated in double after an exact widening.
    double S = 0.0;
    for (const std::complex<Real> &A : Amp) {
      const double R = static_cast<double>(A.real());
      const double I = static_cast<double>(A.imag());
      S += R * R + I * I;
    }
    return std::sqrt(S);
  }
}

template class marqsim::BasicStateVector<double>;
template class marqsim::BasicStateVector<float>;

Matrix marqsim::circuitUnitary(const Circuit &C) {
  assert(C.numQubits() <= 12 && "circuit unitary too large");
  const size_t Dim = size_t(1) << C.numQubits();
  Matrix U(Dim, Dim);
  // Panels of basis columns share each gate's setup; every column still
  // sees the exact per-element arithmetic of a standalone StateVector.
  for (uint64_t Base = 0; Base < Dim; Base += StatePanel::PreferredWidth) {
    const size_t Count =
        std::min<size_t>(StatePanel::PreferredWidth, Dim - Base);
    std::vector<uint64_t> Cols(Count);
    for (size_t L = 0; L < Count; ++L)
      Cols[L] = Base + L;
    StatePanel Panel(C.numQubits(), Cols);
    Panel.applyAll(C);
    for (size_t L = 0; L < Count; ++L)
      for (size_t Row = 0; Row < Dim; ++Row)
        U.at(Row, Base + L) = Panel.at(L, Row);
  }
  return U;
}
