//===- perfbench/src/Checks.h - Independent output checks -------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks of the program's outputs that do not trust the code under test:
/// Theorem 4.1 conditions recomputed from a transition matrix's entries,
/// CNOT counts recounted from emitted gates, shot zero recompiled through
/// the public engine, and unitary fidelity against a dense matrix
/// exponential. Every check returns an error message instead of aborting,
/// so a failed check counts against the run and the run goes on.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "core/CompilerEngine.h"
#include "service/SimulationService.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Worst deviations a matrix check observed across a run (reported with
/// the results so the margin to the tolerance is visible).
struct MatrixCheckStats {
  size_t Matrices = 0;
  double MaxRowSumError = 0.0;
  double MaxStationaryError = 0.0;
};

/// Checks the Theorem 4.1 conditions of \p P for \p H directly from the
/// entries: entries in [0, 1], every row summing to 1, max_j |(pi P)_j -
/// pi_j| for pi_i = |h_i| / lambda computed from the terms, and strong
/// connectivity of the p_ij > 0 graph (skipped for MCFP components, which
/// only the combination with Pqd makes connected). Uses the tolerance the
/// compiler itself accepts (1e-6). Returns the failure, or std::nullopt.
std::optional<std::string>
checkTransitionMatrix(const marqsim::Hamiltonian &H,
                      const marqsim::TransitionMatrix &P,
                      MatrixCheckStats *Stats, bool RequireConnected = true);

/// Recompiles shot 0 of \p Spec through CompilerEngine::compileOne over the
/// service's graph and checks its sequence hash and its recounted CNOTs
/// against \p R's shot-zero summary.
std::optional<std::string>
checkShotZero(const marqsim::TaskSpec &Spec,
              const std::shared_ptr<const marqsim::HTTGraph> &Graph,
              const marqsim::TaskResult &R);

/// Outcome of the dense-oracle check.
struct OracleOutcome {
  std::vector<std::string> Failures;
  double MeanFidelity = 0.0;
  size_t Shots = 0;
};

/// Compiles a 6-qubit Hamiltonian drawn from \p Seed with \p Mix through a
/// fresh SimulationService, evaluating fidelity on all 64 columns, and
/// checks every shot against the dense oracle: the schedule's unitary
/// built from its Pauli rotations, compared with expm(i T H) through
/// unitaryFidelity. Also recounts every shot's CNOTs and checks the
/// transition matrix. MeanFidelity is the oracle's mean over the shots.
OracleOutcome runOracleCheck(const marqsim::ChannelMix &Mix, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
