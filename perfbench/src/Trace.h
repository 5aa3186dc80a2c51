//===- perfbench/src/Trace.h - Benchmark-side layer spans -------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: spans wrapped around each call into a
/// layer's public function, and counts taken at the same boundaries. The
/// spans live in the benchmark's files, not in the library, so an
/// untraced run executes exactly the code a user would.
///
/// A LayerTotals accumulates one task's (or one run's) spans and counts by
/// metric name. It is thread-safe: batch workers record walk, emit and
/// eval spans concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point Begin, Clock::time_point End) {
  return std::chrono::duration<double>(End - Begin).count();
}

/// Named sums of span seconds and event counts.
class LayerTotals {
public:
  void add(const std::string &Name, double Amount) {
    std::lock_guard<std::mutex> Lock(M);
    Values[Name] += Amount;
  }

  double get(const std::string &Name) const {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Values.find(Name);
    return It == Values.end() ? 0.0 : It->second;
  }

  LayerTotals &operator+=(const LayerTotals &O) {
    for (const auto &[Name, Value] : O.snapshot())
      add(Name, Value);
    return *this;
  }

  std::map<std::string, double> snapshot() const {
    std::lock_guard<std::mutex> Lock(M);
    return Values;
  }

private:
  mutable std::mutex M;
  std::map<std::string, double> Values;
};

/// Adds the seconds between construction and destruction to \p Name.
class Span {
public:
  Span(LayerTotals &Totals, const char *Name)
      : Totals(Totals), Name(Name), Begin(Clock::now()) {}
  ~Span() { Totals.add(Name, secondsBetween(Begin, Clock::now())); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  LayerTotals &Totals;
  const char *Name;
  Clock::time_point Begin;
};

/// The spans that partition the work of SimulationService::run; their sum
/// is what service.self_s subtracts from the service's wall time. (walk,
/// emit and eval run inside batch and are not listed separately.)
inline const char *const TopLevelSpans[] = {
    "resolve.s", "mcfp.gc.s", "mcfp.rp.s", "combine.s",
    "graph.s",   "alias.s",   "targets.s", "batch.s"};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
