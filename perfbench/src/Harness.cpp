//===- perfbench/src/Harness.cpp - Run record, statistics and output ------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

uint64_t mixSeed(uint64_t A, uint64_t B) {
  uint64_t Z = A + 0x9e3779b97f4a7c15ULL * (B + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

TailStat tailOf(std::vector<double> Values) {
  TailStat T;
  T.Samples = Values.size();
  if (Values.empty())
    return T;
  std::sort(Values.begin(), Values.end());
  const size_t N = Values.size();
  // Sample K has N - 1 - K samples beyond it; the highest K with ten
  // beyond is N - 11. Short runs fall back to the maximum.
  size_t K = N >= 11 ? N - 11 : N - 1;
  T.Value = Values[K];
  T.Beyond = N - 1 - K;
  T.Percentile = 100.0 * static_cast<double>(K + 1) / static_cast<double>(N);
  return T;
}

void GroupMeans::add(const std::string &Group, double Sum, double Count) {
  auto &G = Groups[Group];
  G.first += Sum;
  G.second += Count;
}

double GroupMeans::mean() const {
  double Total = 0.0;
  size_t Used = 0;
  for (const auto &[Name, G] : Groups)
    if (G.second > 0.0) {
      Total += G.first / G.second;
      ++Used;
    }
  return Used ? Total / static_cast<double>(Used) : 0.0;
}

void RunRecord::beginTask() {
  InTask = true;
  TaskFailed = false;
  ++Attempted;
}

void RunRecord::fail(const std::string &Why) {
  if (Notes.size() < 20)
    Notes.push_back(Why);
  if (!InTask)
    ++FailedRunChecks;
  else if (!TaskFailed) {
    TaskFailed = true;
    ++FailedTasks;
  }
}

void RunRecord::endTask() { InTask = false; }

void RunRecord::addServiceStats(const marqsim::SimulationService &Service,
                                const ServiceCounters &Before) {
  const ServiceCounters Now = ServiceCounters::of(Service);
  StoreHits += (Now.Store.MemoryHits + Now.Store.DiskHits) -
               (Before.Store.MemoryHits + Before.Store.DiskHits);
  StoreComputes += Now.Store.Computes - Before.Store.Computes;
  StorePeakBytes = std::max(StorePeakBytes, Now.Store.PeakBytes);
  GCSolves += Now.Cache.GCSolveMisses - Before.Cache.GCSolveMisses;
  RPSolves += Now.Cache.RPSolveMisses - Before.Cache.RPSolveMisses;
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
