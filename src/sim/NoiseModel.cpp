//===- sim/NoiseModel.cpp - Per-gate noise channels ---------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/NoiseModel.h"

#include "sim/DensityMatrix.h"
#include "sim/Fidelity.h"

#include <algorithm>
#include <cmath>

using namespace marqsim;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *marqsim::noiseChannelName(NoiseChannelKind K) {
  return enumName(NoiseChannelNames, K);
}

std::optional<NoiseChannelKind>
marqsim::parseNoiseChannel(const std::string &Name) {
  return parseEnumName<NoiseChannelKind>(NoiseChannelNames, Name);
}

const char *marqsim::noiseModeName(NoiseMode M) {
  return enumName(NoiseModeNames, M);
}

std::optional<NoiseMode> marqsim::parseNoiseMode(const std::string &Name) {
  return parseEnumName<NoiseMode>(NoiseModeNames, Name);
}

//===----------------------------------------------------------------------===//
// Channel algebra
//===----------------------------------------------------------------------===//

double NoiseModel::effectiveProb(unsigned Weight) const {
  if (Weight == 0 || !Spec.enabled())
    return 0.0;
  double P = Spec.Prob;
  if (Weight >= 2)
    P *= Spec.TwoQubitFactor;
  return std::min(P, 1.0);
}

PauliTwirlWeights NoiseModel::twirlWeights(double P) const {
  PauliTwirlWeights W;
  switch (Spec.Kind) {
  case NoiseChannelKind::None:
    break;
  case NoiseChannelKind::Depolarizing:
    W.PX = W.PY = W.PZ = P / 3.0;
    break;
  case NoiseChannelKind::PhaseFlip:
    W.PZ = P;
    break;
  case NoiseChannelKind::AmplitudeDamping:
    // Twirling K0 = diag(1, sqrt(1-g)), K1 = sqrt(g)|0><1| over the Pauli
    // group: pX = pY = g/4, pZ = (2 - g - 2 sqrt(1-g))/4.
    W.PX = W.PY = P / 4.0;
    W.PZ = (2.0 - P - 2.0 * std::sqrt(1.0 - P)) / 4.0;
    break;
  }
  return W;
}

namespace {

Matrix pauli2x2(PauliOpKind K) {
  Matrix M(2, 2);
  switch (K) {
  case PauliOpKind::I:
    M.at(0, 0) = M.at(1, 1) = 1.0;
    break;
  case PauliOpKind::X:
    M.at(0, 1) = M.at(1, 0) = 1.0;
    break;
  case PauliOpKind::Y:
    M.at(0, 1) = Complex(0.0, -1.0);
    M.at(1, 0) = Complex(0.0, 1.0);
    break;
  case PauliOpKind::Z:
    M.at(0, 0) = 1.0;
    M.at(1, 1) = -1.0;
    break;
  }
  return M;
}

/// Entry-wise complex conjugate (A-bar, not the adjoint).
Matrix conjugated(const Matrix &A) {
  Matrix Out(A.rows(), A.cols());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      Out.at(I, J) = std::conj(A.at(I, J));
  return Out;
}

} // namespace

std::vector<Matrix> NoiseModel::krausOperators(double P) const {
  if (Spec.Kind == NoiseChannelKind::AmplitudeDamping) {
    Matrix K0(2, 2), K1(2, 2);
    K0.at(0, 0) = 1.0;
    K0.at(1, 1) = std::sqrt(1.0 - P);
    K1.at(0, 1) = std::sqrt(P);
    return {std::move(K0), std::move(K1)};
  }
  return twirledKraus(P);
}

std::vector<Matrix> NoiseModel::twirledKraus(double P) const {
  PauliTwirlWeights W = twirlWeights(P);
  std::vector<Matrix> Kraus;
  Kraus.push_back(pauli2x2(PauliOpKind::I) *
                  Complex(std::sqrt(1.0 - W.total()), 0.0));
  if (W.PX > 0.0)
    Kraus.push_back(pauli2x2(PauliOpKind::X) * Complex(std::sqrt(W.PX), 0.0));
  if (W.PY > 0.0)
    Kraus.push_back(pauli2x2(PauliOpKind::Y) * Complex(std::sqrt(W.PY), 0.0));
  if (W.PZ > 0.0)
    Kraus.push_back(pauli2x2(PauliOpKind::Z) * Complex(std::sqrt(W.PZ), 0.0));
  return Kraus;
}

//===----------------------------------------------------------------------===//
// Stochastic tier
//===----------------------------------------------------------------------===//

std::vector<ScheduledRotation>
NoiseModel::injectErrors(const std::vector<ScheduledRotation> &Schedule,
                         RNG &Rng) const {
  // e^{i pi/2 P} = i P: the injected rotation applies the drawn Pauli
  // exactly, up to a global phase the |overlap|^2 metric cancels.
  constexpr double HalfPi = 1.5707963267948966;
  std::vector<ScheduledRotation> Noisy;
  Noisy.reserve(Schedule.size() * 2);
  for (const ScheduledRotation &Step : Schedule) {
    Noisy.push_back(Step);
    PauliTwirlWeights W = twirlWeights(effectiveProb(Step.String.weight()));
    if (W.total() <= 0.0)
      continue;
    // One draw per support qubit, in ascending qubit order — a fixed
    // iteration order is part of the determinism contract.
    uint64_t Support = Step.String.supportMask();
    for (unsigned Q = 0; Support != 0; ++Q, Support >>= 1) {
      if (!(Support & 1))
        continue;
      double U = Rng.uniform();
      PauliOpKind Err;
      if (U < W.PX)
        Err = PauliOpKind::X;
      else if (U < W.PX + W.PY)
        Err = PauliOpKind::Y;
      else if (U < W.total())
        Err = PauliOpKind::Z;
      else
        continue;
      PauliString P;
      P.setOp(Q, Err);
      Noisy.emplace_back(P, HalfPi);
    }
  }
  return Noisy;
}

uint64_t NoiseModel::noiseStreamSeed(uint64_t Seed) {
  // Salt-decoupled like PerturbSeed: the noise stream never consumes from
  // (or perturbs) the sampling stream, so a noisy batch walks the exact
  // Markov paths of its noiseless twin.
  return Seed ^ 0x6e6f6973655eedULL;
}

//===----------------------------------------------------------------------===//
// Density oracle
//===----------------------------------------------------------------------===//

double
NoiseModel::densityFidelity(const std::vector<ScheduledRotation> &Schedule,
                            unsigned NumQubits,
                            const FidelityEvaluator &Eval) const {
  double Acc = 0.0;
  const size_t NumCols = Eval.numColumns();
  for (size_t C = 0; C < NumCols; ++C) {
    DensityMatrix Rho(NumQubits, Eval.columns()[C]);
    for (const ScheduledRotation &Step : Schedule) {
      Rho.applyPauliExp(Step.String, Step.Tau);
      std::vector<Matrix> Kraus =
          twirledKraus(effectiveProb(Step.String.weight()));
      uint64_t Support = Step.String.supportMask();
      for (unsigned Q = 0; Support != 0; ++Q, Support >>= 1)
        if (Support & 1)
          Rho.applyChannel(Kraus, Q);
    }
    Acc += Rho.overlap(StateVector(NumQubits, Eval.targets()[C]));
  }
  return Acc / static_cast<double>(NumCols);
}

Matrix
NoiseModel::buildSuperoperator(const std::vector<ScheduledRotation> &Schedule,
                               unsigned NumQubits) const {
  const size_t Dim = size_t(1) << NumQubits;
  // Row-major vec: vec(rho)_{i D + j} = rho_ij, so a conjugation
  // rho -> A rho B^dag becomes (A (x) B-bar) vec(rho).
  Matrix Super = Matrix::identity(Dim * Dim);
  for (const ScheduledRotation &Step : Schedule) {
    // The gate e^{i tau P} = cos(tau) I + i sin(tau) P.
    Matrix U = Matrix::identity(Dim) * Complex(std::cos(Step.Tau), 0.0);
    U += Step.String.toMatrix(NumQubits) *
         Complex(0.0, std::sin(Step.Tau));
    Super = Matrix::kron(U, conjugated(U)) * Super;
    std::vector<Matrix> Kraus =
        twirledKraus(effectiveProb(Step.String.weight()));
    uint64_t Support = Step.String.supportMask();
    for (unsigned Q = 0; Support != 0; ++Q, Support >>= 1) {
      if (!(Support & 1))
        continue;
      Matrix Channel(Dim * Dim, Dim * Dim);
      for (const Matrix &K : Kraus) {
        Matrix Full = embedSingleQubit(K, Q, NumQubits);
        Channel += Matrix::kron(Full, conjugated(Full));
      }
      Super = Channel * Super;
    }
  }
  return Super;
}

double NoiseModel::densityFidelityFromSuper(const Matrix &Super,
                                            const FidelityEvaluator &Eval) const {
  const size_t Dim = size_t(1) << Eval.numQubits();
  if (Super.rows() != Dim * Dim || Super.cols() != Dim * Dim)
    throw std::invalid_argument("superoperator dimension mismatch");
  double Acc = 0.0;
  const size_t NumCols = Eval.numColumns();
  for (size_t C = 0; C < NumCols; ++C) {
    // vec(|x><x|) = e_{x D + x}: the evolved state is column x D + x of
    // the superoperator, read as a D x D density matrix.
    const uint64_t X = Eval.columns()[C];
    const CVector &Psi = Eval.targets()[C];
    Complex F = 0.0;
    for (size_t I = 0; I < Dim; ++I)
      for (size_t J = 0; J < Dim; ++J)
        F += std::conj(Psi[I]) * Super.at(I * Dim + J, X * Dim + X) * Psi[J];
    Acc += F.real();
  }
  return Acc / static_cast<double>(NumCols);
}
