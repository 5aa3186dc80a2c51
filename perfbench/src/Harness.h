//===- perfbench/src/Harness.h - Run record and statistics ------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark run records — set-up times, per-task wall times,
/// shot and quality tallies, failures, and (traced) layer totals — and
/// the statistics the metrics are made of.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Checks.h"
#include "Trace.h"

#include "service/SimulationService.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch directory for fleet manifests (inside the checkout).
  std::string WorkDir = ".bench_build/perfbench-work";
  /// Source revision recorded with the result.
  std::string Commit = "unknown";
};

/// splitmix64 of (A, B): the derivation of every per-task seed from the
/// workload seed.
uint64_t mixSeed(uint64_t A, uint64_t B);

double median(std::vector<double> Values);

/// The highest percentile with at least ten samples beyond it.
struct TailStat {
  double Value = 0.0;
  double Percentile = 100.0;
  size_t Beyond = 0;
  size_t Samples = 0;
};
TailStat tailOf(std::vector<double> Values);

/// Mean over groups of each group's mean, so a run that ends with a
/// different mix of completed tasks still weighs every group the same.
class GroupMeans {
public:
  void add(const std::string &Group, double Sum, double Count);
  double mean() const;
  bool empty() const { return Groups.empty(); }
  /// Group name -> (sum, count).
  const std::map<std::string, std::pair<double, double>> &groups() const {
    return Groups;
  }

private:
  std::map<std::string, std::pair<double, double>> Groups;
};

/// A service's store and cache counters at one moment. Tasks take one
/// just before submitting and account the difference right after the
/// result, so the benchmark's own checks (graphFor) never count.
struct ServiceCounters {
  marqsim::ArtifactStore::Stats Store;
  marqsim::CacheStats Cache;

  static ServiceCounters of(const marqsim::SimulationService &Service) {
    return {Service.storeStats(), Service.stats()};
  }
};

/// Everything one run records.
struct RunRecord {
  std::vector<double> SetupSeconds;

  /// Closed-loop tasks: wall time from submitting the TaskSpec to holding
  /// the result.
  std::vector<double> TaskSeconds;
  size_t Shots = 0;
  /// Shots per second of task wall time, one entry per pass.
  std::vector<double> PassShotsPerSecond;
  GroupMeans CNOTs;
  GroupMeans Fidelity;

  size_t Attempted = 0;
  size_t FailedTasks = 0;
  size_t FailedRunChecks = 0;
  std::vector<std::string> Notes;
  MatrixCheckStats Matrices;

  /// Traced runs only.
  LayerTotals Layers;
  std::vector<double> OverheadSeconds;
  std::vector<double> SelfSeconds;
  std::vector<double> HealthRttSeconds;
  size_t StoreHits = 0;
  size_t StoreComputes = 0;
  size_t StorePeakBytes = 0;
  size_t GCSolves = 0;
  size_t RPSolves = 0;

  void beginTask();
  /// Notes a failed check or task error; inside a task it fails the task,
  /// outside it counts as a failed run-level check.
  void fail(const std::string &Why);
  void endTask();

  /// Adds a service's store and cache accounting since \p Before.
  void addServiceStats(const marqsim::SimulationService &Service,
                       const ServiceCounters &Before);

  /// Failed tasks plus failed run-level checks, at most the tasks
  /// attempted (a run whose every task failed cannot fail more).
  size_t failed() const {
    return std::min(FailedTasks + FailedRunChecks, Attempted);
  }

private:
  bool InTask = false;
  bool TaskFailed = false;
};

/// Peak resident set of the process, in MB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
