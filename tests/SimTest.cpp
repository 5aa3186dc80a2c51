//===- tests/SimTest.cpp - simulator and fidelity tests ------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamgen/Models.h"
#include "hamgen/Registry.h"
#include "linalg/Expm.h"
#include "sim/Evolution.h"
#include "sim/Fidelity.h"
#include "sim/KernelBody.h"
#include "sim/Kernels.h"
#include "sim/StatePanel.h"
#include "sim/StateVector.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace marqsim;

namespace {

Matrix gateMatrix(const Gate &G, unsigned N) {
  Circuit C(N);
  C.append(G);
  return circuitUnitary(C);
}

CVector randomState(unsigned N, RNG &Rng) {
  CVector V(size_t(1) << N);
  for (auto &A : V)
    A = Complex(Rng.gaussian(), Rng.gaussian());
  double Norm = vectorNorm(V);
  for (auto &A : V)
    A /= Norm;
  return V;
}

/// The pre-fusion two-pass scratch kernels, kept verbatim as references.
/// applyPauli must reproduce referencePauli bit for bit, signs of zeros
/// included (EXPECT_EQ on doubles treats -0.0 == +0.0, so the comparisons
/// below go through the raw bit patterns). The exp kernels must reproduce
/// every nonzero bit of referencePauliExp; a zero's sign is unspecified
/// (sim/Kernels.h).
void referencePauliExp(CVector &Amp, const PauliString &P, double Theta) {
  const Complex CosT(std::cos(Theta), 0.0);
  const Complex ISinT(0.0, std::sin(Theta));
  if (P.isIdentity()) {
    const Complex Phase = CosT + ISinT;
    for (Complex &A : Amp)
      A *= Phase;
    return;
  }
  CVector Scratch(Amp.size());
  const uint64_t XM = P.xMask();
  for (uint64_t X = 0; X < Amp.size(); ++X)
    Scratch[X ^ XM] = P.applyToBasis(X) * Amp[X];
  for (size_t X = 0; X < Amp.size(); ++X)
    Amp[X] = CosT * Amp[X] + ISinT * Scratch[X];
}

void referencePauli(CVector &Amp, const PauliString &P) {
  CVector Scratch(Amp.size());
  const uint64_t XM = P.xMask();
  for (uint64_t X = 0; X < Amp.size(); ++X)
    Scratch[X ^ XM] = P.applyToBasis(X) * Amp[X];
  Amp.swap(Scratch);
}

::testing::AssertionResult bitIdentical(const CVector &A, const Complex *B,
                                        size_t N) {
  for (size_t I = 0; I < N; ++I) {
    if (serial::doubleBits(A[I].real()) != serial::doubleBits(B[I].real()) ||
        serial::doubleBits(A[I].imag()) != serial::doubleBits(B[I].imag()))
      return ::testing::AssertionFailure()
             << "amplitude " << I << " differs: (" << A[I].real() << ", "
             << A[I].imag() << ") vs (" << B[I].real() << ", " << B[I].imag()
             << ")";
  }
  return ::testing::AssertionSuccess();
}

/// The kernels' determinism contract against the complex-expression
/// reference (sim/Kernels.h): every nonzero component has the reference's
/// exact bits, and every zero component is a zero of either sign. Zeros
/// whose sign differs are counted into \p ZeroSignFlips when given.
::testing::AssertionResult sameNonzeroBits(const CVector &A, const Complex *B,
                                           size_t N,
                                           size_t *ZeroSignFlips = nullptr) {
  auto same = [&](double X, double Y) {
    if (X != 0.0)
      return serial::doubleBits(X) == serial::doubleBits(Y);
    if (ZeroSignFlips && Y == 0.0 && std::signbit(X) != std::signbit(Y))
      ++*ZeroSignFlips;
    return Y == 0.0;
  };
  for (size_t I = 0; I < N; ++I) {
    if (!same(A[I].real(), B[I].real()) || !same(A[I].imag(), B[I].imag()))
      return ::testing::AssertionFailure()
             << "amplitude " << I << " differs: (" << A[I].real() << ", "
             << A[I].imag() << ") vs (" << B[I].real() << ", " << B[I].imag()
             << ")";
  }
  return ::testing::AssertionSuccess();
}

/// A random Pauli string; \p ZOnly restricts to the diagonal alphabet.
PauliString randomString(unsigned N, RNG &Rng, bool ZOnly = false) {
  PauliString P;
  for (unsigned Q = 0; Q < N; ++Q)
    P.setOp(Q, ZOnly ? (Rng.bernoulli(0.5) ? PauliOpKind::Z : PauliOpKind::I)
                     : static_cast<PauliOpKind>(Rng.uniformInt(4)));
  return P;
}

} // namespace

TEST(StateVectorTest, BasisInitialization) {
  StateVector SV(3, 5);
  EXPECT_EQ(SV.dim(), 8u);
  EXPECT_EQ(SV.amplitudes()[5], Complex(1, 0));
  EXPECT_NEAR(SV.norm(), 1.0, 1e-14);
}

TEST(StateVectorTest, HadamardCreatesSuperposition) {
  StateVector SV(1, 0);
  SV.apply(Gate(GateKind::H, 0));
  const double S = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(SV.amplitudes()[0] - Complex(S, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(SV.amplitudes()[1] - Complex(S, 0)), 0.0, 1e-14);
}

TEST(StateVectorTest, CNOTEntangles) {
  StateVector SV(2, 0);
  SV.apply(Gate(GateKind::H, 0));
  SV.apply(Gate::cnot(0, 1));
  const double S = 1.0 / std::sqrt(2.0);
  // (|00> + |11>)/sqrt2.
  EXPECT_NEAR(std::abs(SV.amplitudes()[0] - Complex(S, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(SV.amplitudes()[3] - Complex(S, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(SV.amplitudes()[1]), 0.0, 1e-14);
}

TEST(StateVectorTest, GateMatricesAreUnitary) {
  for (GateKind K :
       {GateKind::H, GateKind::X, GateKind::Y, GateKind::Z, GateKind::S,
        GateKind::Sdg, GateKind::Rx, GateKind::Ry, GateKind::Rz}) {
    Gate G(K, 0, 0.37);
    Matrix U = gateMatrix(G, 1);
    EXPECT_TRUE(U.isUnitary(1e-12)) << gateKindName(K);
  }
  EXPECT_TRUE(gateMatrix(Gate::cnot(0, 1), 2).isUnitary(1e-12));
}

TEST(StateVectorTest, SGateSquaredIsZ) {
  Matrix S = gateMatrix(Gate(GateKind::S, 0), 1);
  Matrix Z = gateMatrix(Gate(GateKind::Z, 0), 1);
  EXPECT_NEAR((S * S).maxAbsDiff(Z), 0.0, 1e-14);
}

TEST(StateVectorTest, RzMatchesDefinition) {
  double Theta = 0.81;
  Matrix Rz = gateMatrix(Gate(GateKind::Rz, 0, Theta), 1);
  EXPECT_NEAR(std::abs(Rz.at(0, 0) - std::exp(Complex(0, -Theta / 2))), 0.0,
              1e-14);
  EXPECT_NEAR(std::abs(Rz.at(1, 1) - std::exp(Complex(0, Theta / 2))), 0.0,
              1e-14);
}

TEST(StateVectorTest, ApplyPauliMatchesDense) {
  RNG Rng(71);
  for (int Trial = 0; Trial < 20; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(4);
    PauliString P;
    for (unsigned Q = 0; Q < N; ++Q)
      P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
    CVector In = randomState(N, Rng);
    StateVector SV(N, In);
    SV.applyPauli(P);
    CVector Expected = P.toMatrix(N) * In;
    for (size_t I = 0; I < In.size(); ++I)
      ASSERT_NEAR(std::abs(SV.amplitudes()[I] - Expected[I]), 0.0, 1e-12);
  }
}

TEST(StateVectorTest, ApplyPauliExpMatchesExpm) {
  RNG Rng(72);
  for (int Trial = 0; Trial < 20; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(3);
    PauliString P;
    for (unsigned Q = 0; Q < N; ++Q)
      P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
    double Theta = Rng.uniform(-2.0, 2.0);
    CVector In = randomState(N, Rng);
    StateVector SV(N, In);
    SV.applyPauliExp(P, Theta);
    Matrix U = expm(P.toMatrix(N) * Complex(0, Theta));
    CVector Expected = U * In;
    for (size_t I = 0; I < In.size(); ++I)
      ASSERT_NEAR(std::abs(SV.amplitudes()[I] - Expected[I]), 0.0, 1e-10);
  }
}

TEST(StateVectorTest, PauliExpComposition) {
  // exp(i a P) exp(i b P) == exp(i (a+b) P).
  RNG Rng(82);
  PauliString P = *PauliString::parse("XZY");
  CVector In = randomState(3, Rng);
  StateVector Twice(3, In);
  Twice.applyPauliExp(P, 0.4);
  Twice.applyPauliExp(P, 0.35);
  StateVector Once(3, In);
  Once.applyPauliExp(P, 0.75);
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_NEAR(std::abs(Twice.amplitudes()[I] - Once.amplitudes()[I]), 0.0,
                1e-12);
}

TEST(StateVectorTest, PauliExpInverseRestoresState) {
  RNG Rng(84);
  PauliString P = *PauliString::parse("YYX");
  CVector In = randomState(3, Rng);
  StateVector SV(3, In);
  SV.applyPauliExp(P, 1.3);
  SV.applyPauliExp(P, -1.3);
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_NEAR(std::abs(SV.amplitudes()[I] - In[I]), 0.0, 1e-12);
}

TEST(EvolutionTest, ApplyHamiltonianMatchesDense) {
  RNG Rng(73);
  Hamiltonian H = makeRandomHamiltonian(3, 5, Rng);
  CVector In = randomState(3, Rng);
  CVector Got = applyHamiltonian(H, In);
  CVector Expected = H.toMatrix() * In;
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_NEAR(std::abs(Got[I] - Expected[I]), 0.0, 1e-12);
}

TEST(EvolutionTest, EvolveExactMatchesDenseExponential) {
  RNG Rng(74);
  Hamiltonian H = makeRandomHamiltonian(3, 6, Rng);
  double T = 0.9;
  Matrix U = exactUnitary(H, T);
  for (uint64_t Col : {0ull, 3ull, 7ull}) {
    CVector Basis(8, Complex(0, 0));
    Basis[Col] = 1.0;
    CVector Evolved = evolveExact(H, T, Basis);
    for (size_t I = 0; I < 8; ++I)
      EXPECT_NEAR(std::abs(Evolved[I] - U.at(I, Col)), 0.0, 1e-9);
  }
}

TEST(EvolutionTest, EvolutionPreservesNorm) {
  RNG Rng(75);
  Hamiltonian H = makeTransverseFieldIsing(4, 1.0, 0.7);
  CVector In = randomState(4, Rng);
  CVector Out = evolveExact(H, 1.7, In);
  EXPECT_NEAR(vectorNorm(Out), 1.0, 1e-10);
}

TEST(EvolutionTest, ZeroTimeIsIdentity) {
  RNG Rng(76);
  Hamiltonian H = makeRandomHamiltonian(3, 4, Rng);
  CVector In = randomState(3, Rng);
  CVector Out = evolveExact(H, 0.0, In);
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_NEAR(std::abs(Out[I] - In[I]), 0.0, 1e-12);
}

TEST(FidelityTest, IdenticalUnitariesGiveOne) {
  RNG Rng(77);
  Hamiltonian H = makeRandomHamiltonian(2, 3, Rng);
  Matrix U = exactUnitary(H, 0.5);
  EXPECT_NEAR(unitaryFidelity(U, U), 1.0, 1e-12);
}

TEST(FidelityTest, GlobalPhaseInvariance) {
  RNG Rng(78);
  Hamiltonian H = makeRandomHamiltonian(2, 3, Rng);
  Matrix U = exactUnitary(H, 0.5);
  Matrix V = U * std::exp(Complex(0, 1.23));
  EXPECT_NEAR(unitaryFidelity(U, V), 1.0, 1e-12);
}

TEST(FidelityTest, OrthogonalUnitariesScoreLow) {
  // X vs I on one qubit: tr(X * I) = 0.
  Matrix X = Matrix::fromRows({{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_NEAR(unitaryFidelity(X, Matrix::identity(2)), 0.0, 1e-12);
}

TEST(FidelityEvaluatorTest, ExactModeMatchesDenseFidelity) {
  RNG Rng(79);
  Hamiltonian H = makeRandomHamiltonian(3, 5, Rng);
  double T = 0.4;
  // Schedule: a crude 1-step Trotter of H.
  std::vector<ScheduledRotation> Schedule;
  for (const auto &Term : H.terms())
    Schedule.emplace_back(Term.String, Term.Coeff * T);

  FidelityEvaluator Eval(H, T, /*NumColumns=*/8);
  ASSERT_TRUE(Eval.isExact());
  double Estimated = Eval.fidelity(Schedule);

  // Dense reference.
  Matrix UApp = Matrix::identity(8);
  for (const auto &Step : Schedule)
    UApp = expm(Step.String.toMatrix(3) * Complex(0, Step.Tau)) * UApp;
  double Exact = unitaryFidelity(UApp, exactUnitary(H, T));
  EXPECT_NEAR(Estimated, Exact, 1e-9);
}

TEST(FidelityEvaluatorTest, SampledModeApproximatesExact) {
  RNG Rng(80);
  Hamiltonian H = makeRandomHamiltonian(4, 8, Rng);
  double T = 0.3;
  std::vector<ScheduledRotation> Schedule;
  for (int Rep = 0; Rep < 2; ++Rep)
    for (const auto &Term : H.terms())
      Schedule.emplace_back(Term.String, Term.Coeff * T / 2);

  FidelityEvaluator Exact(H, T, 16);
  FidelityEvaluator Sampled(H, T, 6, /*Seed=*/99);
  ASSERT_FALSE(Sampled.isExact());
  EXPECT_NEAR(Sampled.fidelity(Schedule), Exact.fidelity(Schedule), 0.05);
}

TEST(FidelityEvaluatorTest, CircuitAndScheduleAgree) {
  // The gate-level circuit of a schedule realizes the same fidelity.
  RNG Rng(81);
  Hamiltonian H = makeTransverseFieldIsing(3, 1.0, 0.5);
  double T = 0.6;
  std::vector<ScheduledRotation> Schedule;
  for (const auto &Term : H.terms())
    Schedule.emplace_back(Term.String, Term.Coeff * T);
  Circuit C(3);
  for (const auto &Step : Schedule)
    appendPauliRotation(C, Step.String, 2.0 * Step.Tau);
  FidelityEvaluator Eval(H, T, 8);
  EXPECT_NEAR(Eval.fidelity(Schedule), Eval.fidelityOfCircuit(C), 1e-10);
}

//===----------------------------------------------------------------------===//
// Fused kernels & StatePanel bit-identity
//===----------------------------------------------------------------------===//

TEST(FusedKernelTest, MatchesTwoPassReferenceBitForBit) {
  // Random states AND basis states (exact zeros exercise the sign-of-zero
  // corners), across the full string alphabet, Z-only strings, and the
  // identity. Nonzero amplitudes must match the reference bit for bit;
  // the real butterfly drops only exact-zero addends, so a zero may come
  // out with the other sign.
  RNG Rng(90);
  for (int Trial = 0; Trial < 60; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(5);
    PauliString P = randomString(N, Rng, /*ZOnly=*/Trial % 3 == 1);
    if (Trial % 10 == 9)
      P = PauliString(); // identity path
    double Theta = Rng.uniform(-2.0, 2.0);
    CVector In = Trial % 2 ? randomState(N, Rng)
                           : CVector(size_t(1) << N, Complex(0.0, 0.0));
    if (!(Trial % 2))
      In[Rng.uniformInt(In.size())] = 1.0; // basis state, mostly zeros

    CVector Reference = In;
    referencePauliExp(Reference, P, Theta);
    StateVector Fused(N, In);
    Fused.applyPauliExp(P, Theta);
    ASSERT_TRUE(sameNonzeroBits(Reference, Fused.amplitudes().data(),
                                Reference.size()))
        << "exp trial " << Trial << " string " << P.str(N);

    CVector PauliRef = In;
    referencePauli(PauliRef, P);
    StateVector FusedPauli(N, In);
    FusedPauli.applyPauli(P);
    ASSERT_TRUE(bitIdentical(PauliRef, FusedPauli.amplitudes().data(),
                             PauliRef.size()))
        << "pauli trial " << Trial << " string " << P.str(N);
  }
}

//===----------------------------------------------------------------------===//
// The real butterfly against the two-pass reference, on every tier
//===----------------------------------------------------------------------===//
//
// Every kernel path — statevector and panel, FP64 and FP32, butterfly,
// Z-diagonal, short pivot runs and the fused overlap tail — on every tier
// this host runs (plus the shared body at 16 bytes, the NEON width),
// against the verbatim two-pass reference above. Inputs are built to land
// on exact zeros of both signs: components drawn from {+0, -0, +-1,
// +-1/2} and gaussians, and angles with cos(Theta) < 0. Nonzero values
// must keep every bit and zeros must stay zeros; the tests also count the
// zeros whose sign moved, to show the inputs reach that clause.

namespace {

using CVectorF32 = StateVectorF32::AmpVector;

struct DispatchRestorer {
  ~DispatchRestorer() { kernels::selectAuto(); }
};

/// Every kernel tier this host runs, plus the shared kernel body at 16
/// bytes built in this baseline-ISA translation unit.
std::vector<const kernels::Ops *> everyTier() {
  static constexpr kernels::Ops Body16 = kernel_body::opsAt<16>("body16");
  std::vector<const kernels::Ops *> Tiers = kernels::availableOps();
  Tiers.insert(Tiers.end(), &Body16);
  return Tiers;
}

/// referencePauliExp as the FP32 tier defines it: cos, sin and the phase
/// constants narrowed once (the phases exactly), then the same two
/// passes in std::complex<float>.
void referencePauliExpF32(CVectorF32 &Amp, const PauliString &P,
                          double Theta) {
  using CF = std::complex<float>;
  const CF CosT(static_cast<float>(std::cos(Theta)), 0.0f);
  const CF ISinT(0.0f, static_cast<float>(std::sin(Theta)));
  if (P.isIdentity()) {
    const CF Phase = CosT + ISinT;
    for (CF &A : Amp)
      A *= Phase;
    return;
  }
  CVectorF32 Scratch(Amp.size());
  const uint64_t XM = P.xMask();
  for (uint64_t X = 0; X < Amp.size(); ++X) {
    const Complex Ph = P.applyToBasis(X);
    Scratch[X ^ XM] = CF(static_cast<float>(Ph.real()),
                         static_cast<float>(Ph.imag())) *
                      Amp[X];
  }
  for (size_t X = 0; X < Amp.size(); ++X)
    Amp[X] = CosT * Amp[X] + ISinT * Scratch[X];
}

CVector widen(const CVectorF32 &V) {
  CVector W(V.size());
  for (size_t I = 0; I < V.size(); ++I)
    W[I] = Complex(V[I].real(), V[I].imag());
  return W;
}

CVectorF32 narrow(const CVector &V) {
  CVectorF32 F(V.size());
  for (size_t I = 0; I < V.size(); ++I)
    F[I] = std::complex<float>(static_cast<float>(V[I].real()),
                               static_cast<float>(V[I].imag()));
  return F;
}

/// Components from signed zeros, signed units and halves, and gaussians.
CVector adversarialState(unsigned N, RNG &Rng) {
  static const double Pool[6] = {0.0, -0.0, 1.0, -1.0, 0.5, -0.5};
  auto draw = [&] {
    return Rng.bernoulli(0.25) ? Rng.gaussian() : Pool[Rng.uniformInt(6)];
  };
  CVector V(size_t(1) << N);
  for (Complex &A : V) {
    const double Re = draw();
    const double Im = draw();
    A = Complex(Re, Im);
  }
  return V;
}

/// Half the angles have cos(Theta) < 0; a few are exactly +-0.
double adversarialAngle(RNG &Rng) {
  switch (Rng.uniformInt(8)) {
  case 0:
    return 0.0;
  case 1:
    return -0.0;
  case 2:
  case 3:
  case 4:
    return (Rng.bernoulli(0.5) ? 1.0 : -1.0) * Rng.uniform(1.7, 3.1);
  default:
    return Rng.gaussian() * 0.7;
  }
}

/// Full-alphabet strings, Z-only diagonals, the identity, and single X/Y
/// flips at a random qubit (pivot runs of every length) under random Zs.
PauliString adversarialString(unsigned N, RNG &Rng) {
  switch (Rng.uniformInt(8)) {
  case 0:
    return PauliString();
  case 1:
  case 2:
    return randomString(N, Rng, /*ZOnly=*/true);
  case 3:
  case 4: {
    PauliString P = randomString(N, Rng, /*ZOnly=*/true);
    P.setOp(static_cast<unsigned>(Rng.uniformInt(N)),
            Rng.bernoulli(0.5) ? PauliOpKind::X : PauliOpKind::Y);
    return P;
  }
  default:
    return randomString(N, Rng);
  }
}

} // namespace

TEST(ButterflyContractTest, StateVectorsMatchTwoPassReferenceOnEveryTier) {
  DispatchRestorer Restore;
  size_t Flips = 0;
  for (const kernels::Ops *Tier : everyTier()) {
    kernels::selectTierForTesting(*Tier);
    RNG Rng(1919);
    for (unsigned N : {1u, 2u, 3u, 4u, 5u, 7u}) {
      for (unsigned Trial = 0; Trial < 24; ++Trial) {
        CVector Ref = adversarialState(N, Rng);
        CVectorF32 RefF = narrow(Ref);
        StateVector SV(N, Ref);
        StateVectorF32 SVF(N, RefF);
        for (unsigned Step = 0; Step < 6; ++Step) {
          const PauliString P = adversarialString(N, Rng);
          const double Theta = adversarialAngle(Rng);
          referencePauliExp(Ref, P, Theta);
          SV.applyPauliExp(P, Theta);
          ASSERT_TRUE(sameNonzeroBits(Ref, SV.amplitudes().data(), Ref.size(),
                                      &Flips))
              << Tier->Name << ", fp64, " << P.str(N) << " at " << Theta;
          referencePauliExpF32(RefF, P, Theta);
          SVF.applyPauliExp(P, Theta);
          ASSERT_TRUE(sameNonzeroBits(widen(RefF),
                                      widen(SVF.amplitudes()).data(),
                                      RefF.size(), &Flips))
              << Tier->Name << ", fp32, " << P.str(N) << " at " << Theta;
        }
      }
    }
  }
  EXPECT_GT(Flips, 0u) << "no zero changed sign: the inputs miss the clause";
}

namespace {

/// Writes \p States column by column into \p Panel's planes (padding
/// lanes stay zero).
template <typename Real>
void loadColumns(BasicStatePanel<Real> &Panel,
                 const std::vector<CVector> &States) {
  const size_t Stride = Panel.laneStride();
  for (size_t C = 0; C < States.size(); ++C)
    for (uint64_t X = 0; X < Panel.dim(); ++X) {
      Panel.realPlane()[X * Stride + C] =
          static_cast<Real>(States[C][X].real());
      Panel.imagPlane()[X * Stride + C] =
          static_cast<Real>(States[C][X].imag());
    }
}

} // namespace

TEST(ButterflyContractTest, PanelsAndFusedTailMatchTwoPassReferenceOnEveryTier) {
  DispatchRestorer Restore;
  size_t Flips = 0;
  for (const kernels::Ops *Tier : everyTier()) {
    kernels::selectTierForTesting(*Tier);
    RNG Rng(2323);
    for (unsigned N : {1u, 2u, 3u, 5u}) {
      for (size_t Cols : {size_t(1), size_t(3), size_t(8), size_t(11)}) {
        std::vector<CVector> Ref(Cols), Targets(Cols);
        std::vector<CVectorF32> RefF(Cols);
        for (size_t C = 0; C < Cols; ++C) {
          Ref[C] = adversarialState(N, Rng);
          RefF[C] = narrow(Ref[C]);
          Targets[C] = adversarialState(N, Rng);
        }
        const std::vector<uint64_t> Basis(Cols, 0);
        StatePanel Panel(N, Basis);
        StatePanelF32 PanelF(N, Basis);
        loadColumns(Panel, Ref);
        loadColumns(PanelF, Ref);
        const TargetPanel Packed(Targets.data(), Cols, Panel.laneStride());
        const TargetPanel PackedF(Targets.data(), Cols, PanelF.laneStride());
        for (unsigned Step = 0; Step < 6; ++Step) {
          const PauliString P = adversarialString(N, Rng);
          const double Theta = adversarialAngle(Rng);
          const bool Fused = Step == 5;
          std::vector<Complex> Out(Cols), OutF(Cols);
          if (Fused) {
            Panel.applyPauliExpAllFused(P, Theta, Packed, Out.data());
            PanelF.applyPauliExpAllFused(P, Theta, PackedF, OutF.data());
          } else {
            Panel.applyPauliExpAll(P, Theta);
            PanelF.applyPauliExpAll(P, Theta);
          }
          for (size_t C = 0; C < Cols; ++C) {
            referencePauliExp(Ref[C], P, Theta);
            referencePauliExpF32(RefF[C], P, Theta);
            const CVector WideF = widen(RefF[C]);
            ASSERT_TRUE(sameNonzeroBits(Ref[C], Panel.column(C).data(),
                                        Ref[C].size(), &Flips))
                << Tier->Name << ", fp64, " << Cols << " columns, column "
                << C << ", " << P.str(N) << " at " << Theta;
            ASSERT_TRUE(sameNonzeroBits(WideF, PanelF.column(C).data(),
                                        WideF.size(), &Flips))
                << Tier->Name << ", fp32, " << Cols << " columns, column "
                << C << ", " << P.str(N) << " at " << Theta;
            if (!Fused)
              continue;
            const CVector Overlap{innerProduct(Targets[C], Ref[C])};
            const CVector OverlapF{innerProduct(Targets[C], WideF)};
            ASSERT_TRUE(sameNonzeroBits(Overlap, &Out[C], 1, &Flips))
                << Tier->Name << ", fp64 fused overlap, column " << C;
            ASSERT_TRUE(sameNonzeroBits(OverlapF, &OutF[C], 1, &Flips))
                << Tier->Name << ", fp32 fused overlap, column " << C;
          }
        }
      }
    }
  }
  EXPECT_GT(Flips, 0u) << "no zero changed sign: the inputs miss the clause";
}

TEST(ButterflyContractTest, FidelityBitsMatchTwoPassReferenceOnEveryTier) {
  // Nine columns: one panel block of eight with its fused tail, and the
  // width-1 statevector walk. cos(Theta) < 0 angles and exact-zero
  // amplitudes (the columns start as basis states) on every path.
  DispatchRestorer Restore;
  const unsigned N = 5;
  RNG Rng(4711);
  std::vector<ScheduledRotation> Schedule;
  for (int Step = 0; Step < 40; ++Step)
    Schedule.emplace_back(adversarialString(N, Rng), adversarialAngle(Rng));
  const Hamiltonian H = makeTransverseFieldIsing(N, 1.0, 0.7);
  const FidelityEvaluator Eval(H, 0.4, 9, /*Seed=*/3);
  ASSERT_EQ(Eval.numColumns(), 9u);

  Complex Trace = 0.0, TraceF = 0.0;
  double Norms = 0.0, NormsF = 0.0;
  for (size_t C = 0; C < Eval.numColumns(); ++C) {
    CVector Amp(size_t(1) << N, Complex(0.0, 0.0));
    Amp[Eval.columns()[C]] = 1.0;
    CVectorF32 AmpF = narrow(Amp);
    for (const ScheduledRotation &Step : Schedule) {
      referencePauliExp(Amp, Step.String, Step.Tau);
      referencePauliExpF32(AmpF, Step.String, Step.Tau);
    }
    const Complex O = innerProduct(Eval.targets()[C], Amp);
    const Complex OF = innerProduct(Eval.targets()[C], widen(AmpF));
    Trace += O;
    TraceF += OF;
    Norms += std::norm(O);
    NormsF += std::norm(OF);
  }
  const double Cols = static_cast<double>(Eval.numColumns());
  const uint64_t Fid = serial::doubleBits(std::abs(Trace) / Cols);
  const uint64_t FidF = serial::doubleBits(std::abs(TraceF) / Cols);
  const uint64_t StateFid = serial::doubleBits(Norms / Cols);
  const uint64_t StateFidF = serial::doubleBits(NormsF / Cols);
  for (const kernels::Ops *Tier : everyTier()) {
    kernels::selectTierForTesting(*Tier);
    EXPECT_EQ(serial::doubleBits(Eval.fidelity(Schedule)), Fid) << Tier->Name;
    EXPECT_EQ(serial::doubleBits(Eval.stateFidelity(Schedule)), StateFid)
        << Tier->Name;
    EXPECT_EQ(serial::doubleBits(
                  Eval.fidelity(Schedule, 1, EvalPrecision::FP32)),
              FidF)
        << Tier->Name << ", fp32";
    EXPECT_EQ(serial::doubleBits(
                  Eval.stateFidelity(Schedule, 1, EvalPrecision::FP32)),
              StateFidF)
        << Tier->Name << ", fp32";
  }
}

TEST(StatePanelTest, MatchesSerialReplayAcrossColumnCounts) {
  RNG Rng(91);
  const unsigned N = 4;
  const size_t Dim = size_t(1) << N;
  // A schedule mixing butterfly, diagonal, and identity rotations.
  std::vector<ScheduledRotation> Schedule;
  for (int Step = 0; Step < 24; ++Step) {
    PauliString P = randomString(N, Rng, /*ZOnly=*/Step % 4 == 1);
    if (Step % 12 == 11)
      P = PauliString();
    Schedule.emplace_back(P, Rng.uniform(-1.5, 1.5));
  }
  for (size_t Columns : {size_t(1), size_t(3), size_t(8), Dim}) {
    std::vector<uint64_t> Basis(Columns);
    for (size_t C = 0; C < Columns; ++C)
      Basis[C] = (C * 5) % Dim; // distinct for every width above
    StatePanel Panel(N, Basis);
    for (const ScheduledRotation &Step : Schedule)
      Panel.applyPauliExpAll(Step.String, Step.Tau);
    for (size_t C = 0; C < Columns; ++C) {
      StateVector SV(N, Basis[C]);
      for (const ScheduledRotation &Step : Schedule)
        SV.applyPauliExp(Step.String, Step.Tau);
      const CVector Col = Panel.column(C);
      ASSERT_TRUE(bitIdentical(SV.amplitudes(), Col.data(), Dim))
          << Columns << " columns, column " << C;
    }
  }
}

TEST(StatePanelTest, GateApplicationMatchesSerialBitForBit) {
  RNG Rng(92);
  const unsigned N = 3;
  Circuit C(N);
  C.append(Gate(GateKind::H, 0));
  C.append(Gate::cnot(0, 2));
  C.append(Gate(GateKind::Rz, 1, 0.37));
  C.append(Gate(GateKind::S, 2));
  C.append(Gate(GateKind::Rx, 0, -0.81));
  C.append(Gate::cnot(2, 1));
  C.append(Gate(GateKind::Ry, 2, 1.13));
  std::vector<uint64_t> Basis = {0, 3, 5, 6, 7};
  StatePanel Panel(N, Basis);
  Panel.applyAll(C);
  for (size_t Col = 0; Col < Basis.size(); ++Col) {
    StateVector SV(N, Basis[Col]);
    SV.apply(C);
    const CVector PanelCol = Panel.column(Col);
    ASSERT_TRUE(bitIdentical(SV.amplitudes(), PanelCol.data(), SV.dim()))
        << "column " << Col;
  }
}

TEST(FidelityEvaluatorTest, GoldenHexUnchangedByKernelFusion) {
  // Pinned against the pre-fusion seed implementation: a TFIM Trotter
  // schedule whose ZZ terms take the diagonal fast path. A kernel change
  // that perturbs a single bit of any amplitude shows up here. The hex
  // passes through libm transcendentals, so it assumes the CI platform's
  // libm (x86-64 glibc) — the portable contract is the reference-kernel
  // comparisons above.
  Hamiltonian TF = makeTransverseFieldIsing(4, 1.0, 0.7);
  std::vector<ScheduledRotation> Schedule;
  const unsigned Reps = 3;
  for (unsigned R = 0; R < Reps; ++R)
    for (const auto &Term : TF.terms())
      Schedule.emplace_back(Term.String, Term.Coeff * 0.8 / Reps);
  FidelityEvaluator Eval(TF, 0.8, 5, 11);
  EXPECT_EQ(serial::hex16(serial::doubleBits(Eval.fidelity(Schedule))),
            "3fef1a73701db0e5");
}

TEST(FidelityEvaluatorTest, ChunkedEvaluationBitIdenticalForEveryEvalJobs) {
  Hamiltonian H = makeHeisenbergXXZ(5, 1.0, 1.0, 0.8, 0.3);
  std::vector<ScheduledRotation> Schedule;
  for (unsigned R = 0; R < 4; ++R)
    for (const auto &Term : H.terms())
      Schedule.emplace_back(Term.String, Term.Coeff * 0.6 / 4);
  // 32 columns = 4 fixed-width panel blocks: enough to give every EvalJobs
  // value a different block-to-worker assignment.
  FidelityEvaluator Eval(H, 0.6, 32, 5);
  const uint64_t Reference = serial::doubleBits(Eval.fidelity(Schedule, 1));
  for (unsigned Jobs : {2u, 3u, 4u, 8u, 0u})
    EXPECT_EQ(serial::doubleBits(Eval.fidelity(Schedule, Jobs)), Reference)
        << "eval-jobs " << Jobs;

  Circuit C(5);
  for (const auto &Step : Schedule)
    appendPauliRotation(C, Step.String, 2.0 * Step.Tau);
  const uint64_t CircuitRef =
      serial::doubleBits(Eval.fidelityOfCircuit(C, 1));
  for (unsigned Jobs : {3u, 0u})
    EXPECT_EQ(serial::doubleBits(Eval.fidelityOfCircuit(C, Jobs)),
              CircuitRef)
        << "eval-jobs " << Jobs;
}

TEST(FidelityEvaluatorTest, TrotterFidelityImprovesWithReps) {
  Hamiltonian H = makeHeisenbergXXZ(3, 1.0, 1.0, 0.8, 0.3);
  double T = 1.0;
  FidelityEvaluator Eval(H, T, 8);
  double Prev = 0.0;
  for (unsigned Reps : {1u, 4u, 16u}) {
    std::vector<ScheduledRotation> Schedule;
    for (unsigned R = 0; R < Reps; ++R)
      for (const auto &Term : H.terms())
        Schedule.emplace_back(Term.String, Term.Coeff * T / Reps);
    double F = Eval.fidelity(Schedule);
    EXPECT_GT(F, Prev - 1e-6);
    Prev = F;
  }
  EXPECT_GT(Prev, 0.99);
}

namespace {

/// FNV-1a-64 over the little-endian bytes of every amplitude's (re, im)
/// bits, states in order: one word that moves if any bit of any target
/// does, signs of zeros included.
uint64_t stateBitsHash(const std::vector<CVector> &States) {
  uint64_t H = serial::FNVOffset;
  for (const CVector &S : States)
    for (const Complex &A : S) {
      H = serial::fnv1aWord(serial::doubleBits(A.real()), H);
      H = serial::fnv1aWord(serial::doubleBits(A.imag()), H);
    }
  return H;
}

} // namespace

TEST(TargetBitsTest, PanelEvolutionKeepsThePerColumnBits) {
  // Captured from the one-column-at-a-time evolution that preceded the
  // panel body (each column evolved alone through applyToBasis), so
  // these pin that evolving columns together moves no bit. C = 1, 5, 8
  // and 13 give a single column, a partial block, a full block and a
  // full block plus a partial one. OH- at T = 1 is pinned at C = 1 only:
  // its wider cases take seconds each.
  struct Case {
    const char *Model;
    double T;
    size_t C;
    const char *Hash;
  };
  const Case Cases[] = {
      {"OH-", 0.125, 1, "57959ec9dede48df"},
      {"OH-", 0.125, 5, "72b9b672d259ce19"},
      {"OH-", 0.125, 8, "fc3294c1bf211f2b"},
      {"OH-", 0.125, 13, "8f7945cbedd45a0e"},
      {"OH-", 1.0, 1, "09d6c2a320829bc5"},
      {"SYK-1", 0.125, 1, "f691a1ab6e49a0bd"},
      {"SYK-1", 0.125, 5, "eadd5bca90b87b6b"},
      {"SYK-1", 0.125, 8, "62017c40ba9870a6"},
      {"SYK-1", 0.125, 13, "8d274e56b8f53938"},
      {"SYK-1", 1.0, 1, "93db478e7674288f"},
      {"SYK-1", 1.0, 5, "eba9c341f8c8d359"},
      {"SYK-1", 1.0, 8, "0cff71784ed5177e"},
      {"SYK-1", 1.0, 13, "a926caca16a9cb7d"},
      {"Na+", 0.125, 1, "6c149a91d57fe64b"},
      {"Na+", 0.125, 5, "9d6b77e92fb29dc5"},
      {"Na+", 0.125, 8, "a746a85a3bfd5c56"},
      {"Na+", 0.125, 13, "d791c0952fcc7989"},
      {"Na+", 1.0, 1, "c49c1e340165f628"},
      {"Na+", 1.0, 5, "ce505265a385b01d"},
      {"Na+", 1.0, 8, "fd8e09f0262c7049"},
      {"Na+", 1.0, 13, "0cb73be4b211c313"},
  };
  for (const Case &K : Cases) {
    const Hamiltonian H = makeBenchmark(*findBenchmark(K.Model));
    FidelityEvaluator Eval(H, K.T, K.C, 0x5eed);
    EXPECT_EQ(serial::hex16(stateBitsHash(Eval.targets())), K.Hash)
        << K.Model << " T=" << K.T << " C=" << K.C;
  }
  // The eval-warm shape: 8 columns at T = 0.125.
  for (auto [Model, Hash] : {std::pair{"OH-", "53c8473c6c978c66"},
                             std::pair{"SYK-2", "d556f8cf2ef8384f"},
                             std::pair{"Na+", "02baf54e7ef0852a"}}) {
    FidelityEvaluator Eval(makeBenchmark(*findBenchmark(Model)), 0.125, 8,
                           0x1234567);
    EXPECT_EQ(serial::hex16(stateBitsHash(Eval.targets())), Hash) << Model;
  }

  // Every column of a 6-qubit TFIM: exact mode, 8 full blocks.
  const Hamiltonian TF = makeTransverseFieldIsing(6, 1.0, 0.7);
  FidelityEvaluator Exact(TF, 0.8, 64, 3);
  ASSERT_TRUE(Exact.isExact());
  EXPECT_EQ(serial::hex16(stateBitsHash(Exact.targets())),
            "e172df9f82914d55");

  // A random, unnormalized non-basis state through the width-1 wrappers.
  RNG Rng(91);
  CVector In(size_t(1) << 6);
  for (Complex &A : In)
    A = Complex(Rng.gaussian(), Rng.gaussian());
  EXPECT_EQ(serial::hex16(stateBitsHash({evolveExact(TF, 1.3, In)})),
            "70b47f39f8df836e");
  EXPECT_EQ(serial::hex16(stateBitsHash({applyHamiltonian(TF, In)})),
            "ed8eb06764c47edd");
}

TEST(TargetBitsTest, TargetsIdenticalForEveryJobs) {
  // 64 columns are 8 blocks and 20 are 3 (the last one partial): enough
  // for every Jobs value to hand the blocks out differently.
  const Hamiltonian TF = makeTransverseFieldIsing(6, 1.0, 0.7);
  const Hamiltonian Na = makeBenchmark(*findBenchmark("Na+"));
  for (auto [H, C] : {std::pair{&TF, size_t(64)}, std::pair{&Na, size_t(20)}}) {
    const uint64_t Reference =
        stateBitsHash(FidelityEvaluator(*H, 0.5, C, 9, 1).targets());
    for (unsigned Jobs : {2u, 4u, 0u}) {
      FidelityEvaluator Eval(*H, 0.5, C, 9, Jobs);
      EXPECT_EQ(stateBitsHash(Eval.targets()), Reference)
          << C << " columns, jobs " << Jobs;
    }
    // Each target is also the column evolved alone.
    FidelityEvaluator Eval(*H, 0.5, C, 9, 4);
    for (size_t I = 0; I < C; I += 7) {
      CVector Basis(Eval.targets()[I].size(), Complex(0.0, 0.0));
      Basis[Eval.columns()[I]] = 1.0;
      EXPECT_EQ(stateBitsHash({evolveExact(*H, 0.5, Basis)}),
                stateBitsHash({Eval.targets()[I]}))
          << C << " columns, column " << I;
    }
  }
}
