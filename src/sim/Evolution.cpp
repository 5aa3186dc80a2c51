//===- sim/Evolution.cpp - Exact Hamiltonian evolution -----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Evolution.h"

#include "linalg/Expm.h"
#include "sim/Kernels.h"

#include <algorithm>
#include <cmath>

using namespace marqsim;

namespace {

/// One term of H prepared for the panel sweep. T.Coeff * applyToBasis(B)
/// takes only two values (detail::PauliPhases); the parity of ZMask & B
/// selects one per basis index, and every column reuses the selection.
struct PreparedTerm {
  uint64_t XMask, ZMask;
  Complex Pos, Neg; // T.Coeff * PauliPhases::{Pos, Neg}
};

std::vector<PreparedTerm> prepareTerms(const Hamiltonian &H) {
  std::vector<PreparedTerm> Terms;
  Terms.reserve(H.numTerms());
  for (const PauliTerm &T : H.terms()) {
    const detail::PauliPhases Ph(T.String);
    Terms.push_back({T.String.xMask(), Ph.ZMask, T.Coeff * Ph.Pos,
                     T.Coeff * Ph.Neg});
  }
  return Terms;
}

/// Width states stored basis-major with the columns innermost, as split
/// re/im arrays: amplitude I of column C is (Re[I * Width + C],
/// Im[I * Width + C]).
struct Panel {
  size_t Width;
  std::vector<double> Re, Im;

  Panel(size_t Dim, size_t Width)
      : Width(Width), Re(Dim * Width, 0.0), Im(Dim * Width, 0.0) {}

  explicit Panel(const std::vector<CVector> &States)
      : Panel(States.front().size(), States.size()) {
    for (size_t C = 0; C < Width; ++C)
      for (size_t I = 0; I < States[C].size(); ++I) {
        Re[I * Width + C] = States[C][I].real();
        Im[I * Width + C] = States[C][I].imag();
      }
  }

  size_t dim() const { return Re.size() / Width; }

  std::vector<CVector> columns() const {
    std::vector<CVector> Out(Width, CVector(dim()));
    for (size_t C = 0; C < Width; ++C)
      for (size_t I = 0; I < dim(); ++I)
        Out[C][I] = Complex(Re[I * Width + C], Im[I * Width + C]);
    return Out;
  }
};

/// Y = H X for every column of the panel. The loops run term-outer,
/// basis-middle, column-inner, so each column sees exactly the
/// operations of the one-state loop `Y[B ^ XM] += T.Coeff *
/// applyToBasis(B) * X[B]`: the same products, written out as
/// (ac - bd, ad + bc), added in the same order.
void applyTerms(const std::vector<PreparedTerm> &Terms, const Panel &X,
                Panel &Y) {
  const size_t W = X.Width, Dim = X.dim();
  std::fill(Y.Re.begin(), Y.Re.end(), 0.0);
  std::fill(Y.Im.begin(), Y.Im.end(), 0.0);
  for (const PreparedTerm &T : Terms)
    for (uint64_t B = 0; B < Dim; ++B) {
      const Complex &P =
          __builtin_parityll(T.ZMask & B) ? T.Neg : T.Pos;
      const double PRe = P.real(), PIm = P.imag();
      const double *__restrict XR = &X.Re[B * W];
      const double *__restrict XI = &X.Im[B * W];
      double *__restrict YR = &Y.Re[(B ^ T.XMask) * W];
      double *__restrict YI = &Y.Im[(B ^ T.XMask) * W];
      for (size_t C = 0; C < W; ++C) {
        YR[C] += PRe * XR[C] - PIm * XI[C];
        YI[C] += PRe * XI[C] + PIm * XR[C];
      }
    }
}

/// State <- e^{i T H} State for every column, by a scaled, truncated
/// Taylor expansion. Slices depend only on H and T and are shared; each
/// column keeps its own cutoff, so a column whose term norm falls below
/// 1e-14 stops updating at the same K as it would evolved alone.
void evolvePanel(const Hamiltonian &H, double T, Panel &State) {
  const std::vector<PreparedTerm> Terms = prepareTerms(H);
  // Split T into slices with lambda * |slice| <= 0.5 so the Taylor series
  // converges in a handful of terms; lambda bounds the spectral norm of H.
  const double Lambda = H.lambda();
  const double Horizon = Lambda * std::fabs(T);
  const unsigned Slices =
      std::max(1u, static_cast<unsigned>(std::ceil(Horizon / 0.5)));
  const double Dt = T / Slices;

  const size_t W = State.Width, Dim = State.dim();
  Panel Acc(Dim, W), Term(Dim, W), HTerm(Dim, W);
  std::vector<char> Live(W);
  std::vector<double> TermNorm(W);
  for (unsigned S = 0; S < Slices; ++S) {
    // State <- sum_k (i Dt H)^k / k! State.
    Acc = State;
    Term = State;
    std::fill(Live.begin(), Live.end(), 1);
    for (unsigned K = 1; K <= 40; ++K) {
      applyTerms(Terms, Term, HTerm);
      const Complex Factor = Complex(0.0, Dt) / static_cast<double>(K);
      const double FRe = Factor.real(), FIm = Factor.imag();
      std::fill(TermNorm.begin(), TermNorm.end(), 0.0);
      for (size_t I = 0; I < Dim; ++I)
        for (size_t C = 0; C < W; ++C) {
          if (!Live[C])
            continue;
          const size_t J = I * W + C;
          const double HR = HTerm.Re[J], HI = HTerm.Im[J];
          const double TR = FRe * HR - FIm * HI;
          const double TI = FRe * HI + FIm * HR;
          Term.Re[J] = TR;
          Term.Im[J] = TI;
          TermNorm[C] += TR * TR + TI * TI;
          Acc.Re[J] += TR;
          Acc.Im[J] += TI;
        }
      bool AnyLive = false;
      for (size_t C = 0; C < W; ++C) {
        if (Live[C] && std::sqrt(TermNorm[C]) < 1e-14)
          Live[C] = 0;
        AnyLive |= Live[C] != 0;
      }
      if (!AnyLive)
        break;
    }
    std::swap(State, Acc);
  }
}

} // namespace

CVector marqsim::applyHamiltonian(const Hamiltonian &H, const CVector &X) {
  assert(X.size() == size_t(1) << H.numQubits() && "state size mismatch");
  Panel Y(X.size(), 1);
  applyTerms(prepareTerms(H), Panel({X}), Y);
  return std::move(Y.columns().front());
}

std::vector<CVector>
marqsim::evolveExactPanel(const Hamiltonian &H, double T,
                          const std::vector<CVector> &In) {
  if (In.empty())
    return {};
  for ([[maybe_unused]] const CVector &V : In)
    assert(V.size() == size_t(1) << H.numQubits() && "state size mismatch");
  Panel State(In);
  evolvePanel(H, T, State);
  return State.columns();
}

CVector marqsim::evolveExact(const Hamiltonian &H, double T,
                             const CVector &In) {
  return std::move(evolveExactPanel(H, T, {In}).front());
}

Matrix marqsim::exactUnitary(const Hamiltonian &H, double T) {
  assert(H.numQubits() <= 12 && "dense exact unitary too large");
  Matrix HM = H.toMatrix();
  return expm(HM * Complex(0.0, T));
}
