//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a set-up plus a closed loop of TaskSpecs: one caller
/// submits a task, waits for its result, checks it, and submits the next.
/// Tasks come in passes (one pass covers every model/config the workload
/// mixes) and a run measures whole passes, so every run weighs the mix the
/// same. Every input — Hamiltonians, shot seeds, perturbation seeds,
/// channel mixes — derives from the workload seed; the program only ever
/// sees the generated TaskSpecs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"
#include "Replay.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

class Workload {
public:
  explicit Workload(const Options &Opts) : Opts(Opts) {}
  virtual ~Workload() = default;

  /// Builds the workload's state. The harness times it for setup_s.
  /// Returns false (after noting why in \p Rec) when the workload cannot
  /// run.
  virtual bool setUp(RunRecord &Rec) = 0;

  /// Releases what setUp built. The harness calls it, untimed, between
  /// repeated set-ups, so setup_s never includes a teardown.
  virtual void tearDown() = 0;

  /// Called once, after the last set-up, before the first timed task.
  virtual void beginTimedPhase() {}

  /// Tasks per pass.
  virtual size_t passSize() const = 0;

  /// Runs task \p Index (global over the run) and its checks.
  virtual void runTask(size_t Index, RunRecord &Rec) = 0;

  /// Run-level checks and accounting after the last task.
  virtual void finish(RunRecord &Rec) = 0;

  /// The channel mix the run's dense-oracle check compiles with.
  virtual marqsim::ChannelMix oracleMix() const = 0;

protected:
  /// The shared task path of the in-process workloads: runs \p Spec on
  /// \p Service (the wall time counts from \p Submitted), records its
  /// outputs under \p Group, checks them, and — when \p Cache is given —
  /// replays the task traced and compares the replay with the result.
  std::optional<marqsim::TaskResult>
  runServiceTask(marqsim::SimulationService &Service,
                 const marqsim::TaskSpec &Spec, const std::string &Group,
                 Clock::time_point Submitted, ReplayCache *Cache,
                 RunRecord &Rec);

  /// Checks \p R against the graph \p Service compiled \p Spec with: the
  /// transition matrix from its entries, and shot zero recompiled and its
  /// CNOTs recounted.
  void checkAgainstGraph(marqsim::SimulationService &Service,
                         const marqsim::TaskSpec &Spec,
                         const marqsim::TaskResult &R,
                         const std::string &Group, RunRecord &Rec);

  /// Records shots, CNOTs and fidelities of a finished task and checks
  /// the fidelities are finite and within [0, 1].
  void recordOutputs(const marqsim::TaskSpec &Spec,
                     const marqsim::TaskResult &R, const std::string &Group,
                     RunRecord &Rec);

  /// Traced-run bookkeeping shared by every workload: replays \p Spec,
  /// compares it with \p R, and records the service's self time (its
  /// wall, \p ServiceSeconds, minus the replay's layer spans) and the
  /// tracing overhead (the replay's wall minus \p UntracedSeconds, an
  /// untraced in-process run of the same task).
  void replayAndCompare(const marqsim::TaskSpec &Spec,
                        const marqsim::TaskResult &R, double ServiceSeconds,
                        double UntracedSeconds, ReplayCache &Cache,
                        RunRecord &Rec);

  const Options &Opts;
};

/// Instantiates a workload by name (compile-cold, time-sweep, eval-warm,
/// fleet-sweep); nullptr for unknown names.
std::unique_ptr<Workload> makeWorkload(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
