//===- perfbench/src/Replay.h - Traced replay of a task ---------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view of a task: the same sequence of public calls
/// SimulationService::run makes — resolveHamiltonian, the MCFP components,
/// the convex combination, the HTT graph and its validation, the alias
/// tables, the fidelity targets, then CompilerEngine::compileBatch with
/// each shot's produce, materializePlan and fidelity — each wrapped in a
/// span. A ReplayCache mirrors one service's artifact store, so a replay
/// does work exactly where the service does.
///
/// The replay must reproduce the service's batch hash and every fidelity
/// bit; if it does not, its spans describe some other program and the
/// caller counts the task as failed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Checks.h"
#include "Trace.h"

#include "service/SimulationService.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The artifacts a replay reuses, keyed like the service's store; one
/// cache per service lifetime the workload models.
struct ReplayCache {
  std::map<std::string, std::shared_ptr<const marqsim::TransitionMatrix>>
      Components;
  struct Bundle {
    std::shared_ptr<const marqsim::HTTGraph> Graph;
    std::shared_ptr<const marqsim::SamplingStrategy> Base;
  };
  std::map<std::string, Bundle> Bundles;
  std::map<std::string, std::shared_ptr<const marqsim::FidelityEvaluator>>
      Evaluators;
};

/// What one replayed task produced.
struct ReplayResult {
  bool Ok = false;
  /// Replay errors and failed checks of the matrices it built.
  std::vector<std::string> Failures;
  marqsim::BatchResult Batch;
  std::vector<double> Fidelities;
  /// Replay wall time and the sum of its top-level spans.
  double Seconds = 0.0;
  double LayerSeconds = 0.0;
};

/// Replays \p Spec (a sampling task, noiseless or with stochastic noise)
/// through \p Cache, adding spans and counts to \p Trace.
ReplayResult replayTask(const marqsim::TaskSpec &Spec, ReplayCache &Cache,
                        LayerTotals &Trace, MatrixCheckStats *MatrixStats);

/// Compares a replay with the service's result: batch hash, per-shot
/// sequence hashes and CNOT counts, and every fidelity bit. Returns the
/// first difference, or an empty string.
std::string compareWithService(const ReplayResult &Replay,
                               const marqsim::TaskResult &Service);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
