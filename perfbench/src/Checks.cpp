//===- perfbench/src/Checks.cpp - Independent output checks ---------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "hamgen/Models.h"
#include "linalg/Expm.h"
#include "sim/Fidelity.h"
#include "support/Serial.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace marqsim;

namespace perfbench {

namespace {

/// Tolerance the compiler applies in HTTGraph::isValidForCompilation.
constexpr double MatrixTol = 1e-6;

/// Every state reachable from state 0 along p_ij > 0 edges, walking the
/// rows (Forward) or the columns (backward).
bool reachesAll(const TransitionMatrix &P, bool Forward) {
  const size_t N = P.size();
  std::vector<char> Seen(N, 0);
  std::vector<size_t> Stack{0};
  Seen[0] = 1;
  size_t Count = 1;
  while (!Stack.empty()) {
    size_t I = Stack.back();
    Stack.pop_back();
    for (size_t J = 0; J < N; ++J) {
      double Edge = Forward ? P.at(I, J) : P.at(J, I);
      if (Edge > 0.0 && !Seen[J]) {
        Seen[J] = 1;
        ++Count;
        Stack.push_back(J);
      }
    }
  }
  return Count == N;
}

std::string formatError(const char *What, double Value) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%s (%.3g > %.0e)", What, Value, MatrixTol);
  return Buf;
}

/// CNOT gates in \p C, counted gate by gate.
size_t recountCNOTs(const Circuit &C) {
  size_t Count = 0;
  for (const Gate &G : C.gates())
    Count += G.Kind == GateKind::CNOT ? 1 : 0;
  return Count;
}

/// FNV-1a of a term-visit sequence, the hash ShotSummary::SequenceHash
/// records.
uint64_t sequenceHash(const std::vector<size_t> &Sequence) {
  uint64_t H = serial::FNVOffset;
  for (size_t Value : Sequence)
    H = serial::fnv1aWord(static_cast<uint64_t>(Value), H);
  return H;
}

} // namespace

std::optional<std::string> checkTransitionMatrix(const Hamiltonian &H,
                                                 const TransitionMatrix &P,
                                                 MatrixCheckStats *Stats,
                                                 bool RequireConnected) {
  const size_t N = H.numTerms();
  if (P.size() != N)
    return "transition matrix has " + std::to_string(P.size()) +
           " states for " + std::to_string(N) + " terms";
  double Lambda = 0.0;
  for (const PauliTerm &T : H.terms())
    Lambda += std::fabs(T.Coeff);
  std::vector<double> Pi(N);
  for (size_t I = 0; I < N; ++I)
    Pi[I] = std::fabs(H.term(I).Coeff) / Lambda;

  double MinEntry = 0.0, RowErr = 0.0;
  std::vector<double> PiP(N, 0.0);
  for (size_t I = 0; I < N; ++I) {
    double Sum = 0.0;
    for (size_t J = 0; J < N; ++J) {
      double V = P.at(I, J);
      MinEntry = std::min(MinEntry, V);
      Sum += V;
      PiP[J] += Pi[I] * V;
    }
    RowErr = std::max(RowErr, std::fabs(Sum - 1.0));
  }
  double StatErr = 0.0;
  for (size_t J = 0; J < N; ++J)
    StatErr = std::max(StatErr, std::fabs(PiP[J] - Pi[J]));
  if (Stats) {
    ++Stats->Matrices;
    Stats->MaxRowSumError = std::max(Stats->MaxRowSumError, RowErr);
    Stats->MaxStationaryError = std::max(Stats->MaxStationaryError, StatErr);
  }
  if (MinEntry < -MatrixTol)
    return formatError("negative transition probability", -MinEntry);
  if (RowErr > MatrixTol)
    return formatError("row sum differs from 1", RowErr);
  if (StatErr > MatrixTol)
    return formatError("max|pi P - pi|", StatErr);
  if (RequireConnected && (!reachesAll(P, true) || !reachesAll(P, false)))
    return std::string("transition graph is not strongly connected");
  return std::nullopt;
}

std::optional<std::string>
checkShotZero(const TaskSpec &Spec,
              const std::shared_ptr<const HTTGraph> &Graph,
              const TaskResult &R) {
  if (!Graph)
    return std::string("no graph to recompile shot 0 from");
  if (R.Batch.Shots.empty())
    return std::string("batch has no shots");
  SamplingStrategy Strategy(Graph, Spec.Time, Spec.Epsilon, Spec.UseCDF);
  CompilationResult Shot0 =
      CompilerEngine().compileOne(Strategy, Spec.Seed, Spec.Lowering);
  const ShotSummary &S = R.Batch.Shots.front();
  if (sequenceHash(Shot0.Sequence) != S.SequenceHash)
    return std::string("shot 0 recompiled to a different sequence");
  size_t CNOTs = recountCNOTs(Shot0.Circ);
  if (CNOTs != S.Counts.CNOTs)
    return "shot 0 has " + std::to_string(CNOTs) +
           " CNOT gates but its summary counts " +
           std::to_string(S.Counts.CNOTs);
  return std::nullopt;
}

OracleOutcome runOracleCheck(const ChannelMix &Mix, uint64_t Seed) {
  OracleOutcome Out;
  constexpr unsigned Qubits = 6;
  const size_t Dim = size_t(1) << Qubits;
  RNG Rng(Seed);
  Hamiltonian Raw =
      makeRandomHamiltonian(Qubits, 20, Rng).rescaledToLambda(4.0);

  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(Raw);
  Spec.Mix = Mix;
  Spec.Time = 1.0;
  Spec.Epsilon = 0.05;
  Spec.Shots = 16;
  Spec.Jobs = 4;
  Spec.Seed = Seed ^ 0x0AC1E;
  Spec.Evaluate.FidelityColumns = Dim;
  Spec.Evaluate.KeepResults = true;

  SimulationService Service;
  std::string Error;
  std::optional<TaskResult> R = Service.run(Spec, &Error);
  if (!R) {
    Out.Failures.push_back("oracle task failed: " + Error);
    return Out;
  }
  std::optional<Hamiltonian> H =
      SimulationService::resolveHamiltonian(Spec.Source, &Error);
  std::shared_ptr<const HTTGraph> Graph = Service.graphFor(Spec, &Error);
  if (!H || !Graph) {
    Out.Failures.push_back("oracle task cannot be resolved: " + Error);
    return Out;
  }
  if (auto Bad = checkTransitionMatrix(*H, Graph->transitionMatrix(), nullptr))
    Out.Failures.push_back("oracle matrix: " + *Bad);

  const Matrix Exact = expm(H->toMatrix() * Complex(0.0, Spec.Time));
  double Sum = 0.0;
  for (size_t Shot = 0; Shot < R->Batch.Results.size(); ++Shot) {
    const CompilationResult &C = R->Batch.Results[Shot];
    // U = prod_k exp(i tau_k P_k), later rotations on the left:
    // exp(i tau P) U = cos(tau) U + i sin(tau) P U, with P U formed row by
    // row from P|x> = phase(x) |x ^ xmask>.
    Matrix U = Matrix::identity(Dim);
    Matrix PU(Dim, Dim);
    for (const ScheduledRotation &Rot : C.Schedule) {
      const uint64_t XM = Rot.String.xMask();
      for (uint64_t X = 0; X < Dim; ++X) {
        Complex Phase = Rot.String.applyToBasis(X);
        for (size_t J = 0; J < Dim; ++J)
          PU.at(X ^ XM, J) = Phase * U.at(X, J);
      }
      const Complex C0(std::cos(Rot.Tau), 0.0), S0(0.0, std::sin(Rot.Tau));
      for (size_t I = 0; I < Dim; ++I)
        for (size_t J = 0; J < Dim; ++J)
          U.at(I, J) = C0 * U.at(I, J) + S0 * PU.at(I, J);
    }
    double Oracle = unitaryFidelity(U, Exact);
    double Reported = R->ShotFidelities[Shot];
    if (!(std::fabs(Oracle - Reported) <= 1e-9)) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "oracle shot %zu: evaluator fidelity %.15g vs dense "
                    "expm oracle %.15g",
                    Shot, Reported, Oracle);
      Out.Failures.push_back(Buf);
    }
    size_t CNOTs = recountCNOTs(C.Circ);
    if (CNOTs != R->Batch.Shots[Shot].Counts.CNOTs)
      Out.Failures.push_back("oracle shot " + std::to_string(Shot) +
                             ": recounted CNOTs disagree with the summary");
    Sum += Oracle;
    ++Out.Shots;
  }
  if (Out.Shots != Spec.Shots)
    Out.Failures.push_back("oracle task returned " +
                           std::to_string(Out.Shots) + " shot results");
  Out.MeanFidelity = Out.Shots ? Sum / static_cast<double>(Out.Shots) : 0.0;
  return Out;
}

} // namespace perfbench
