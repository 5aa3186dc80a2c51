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
#include "sim/StatePanel.h"
#include "sim/StateVector.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <cmath>

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

/// The pre-fusion two-pass scratch kernels, kept verbatim as the reference
/// the fused in-place kernels must reproduce bit for bit (including the
/// signs of zeros — EXPECT_EQ on doubles treats -0.0 == +0.0, so the
/// comparisons below go through the raw bit patterns).
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
  // corners of the diagonal fast path), across the full string alphabet,
  // Z-only strings, and the identity.
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
    ASSERT_TRUE(bitIdentical(Reference, Fused.amplitudes().data(),
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
