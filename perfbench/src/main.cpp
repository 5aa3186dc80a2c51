//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--commit REV]
//
// Set-up runs several times (at least three, until a second has passed,
// at most a hundred; once when traced) and setup_s is their median. The
// timed phase then runs whole passes of the workload's closed loop until
// S seconds have passed; shots_per_s is the median over passes of a
// pass's shots per second of task wall time. Every task's output is
// checked; one dense-oracle check runs per run. With --trace 0
// the result carries the end-to-end metrics; with --trace 1 the tasks are
// also replayed through spans and the result carries the per-layer
// metrics instead.
//
// Standard output ends with two lines: "perfbench-report <json>" (host,
// dispatch, sample counts, error rate, every metric, failure notes) and
// the result object {"correct", "attempted", "failed", "metrics"}.
// Exit codes: 0 ran (check "correct"), 1 usage, 2 assert-enabled build.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unistd.h>

using namespace marqsim;
using namespace perfbench;

namespace {

int usage(const char *Message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--commit REV]\n",
               Message);
  return 1;
}

/// Parses "--key value" and "--key=value" pairs.
bool parseOptions(int Argc, char **Argv, Options &Opts, std::string &Error) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I], Value;
    if (Arg.rfind("--", 0) != 0) {
      Error = "unexpected argument '" + Arg + "'";
      return false;
    }
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg = Arg.substr(0, Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      Error = "missing value for " + Arg;
      return false;
    }
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      if (!(Opts.Seconds >= 0.0)) {
        Error = "--seconds must be non-negative";
        return false;
      }
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1") {
        Error = "--trace takes 0 or 1";
        return false;
      }
      Opts.Trace = Value == "1";
    } else if (Arg == "--work-dir") {
      Opts.WorkDir = Value;
    } else if (Arg == "--commit") {
      Opts.Commit = Value;
    } else {
      Error = "unknown option " + Arg;
      return false;
    }
    if (End && *End) {
      Error = "malformed number for " + Arg + ": '" + Value + "'";
      return false;
    }
  }
  if (Opts.Workload.empty())
    Error = "--workload is required";
  return Error.empty();
}

json::Value hostJson(const Options &Opts) {
  json::Value Host = json::Value::object();
  Host.set("kernel", SimulationService::kernelName());
  Host.set("kernel_detected", SimulationService::detectedKernelName());
  Host.set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  Host.set("l2_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  Host.set("l3_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
#if defined(__clang__)
  Host.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  Host.set("compiler", std::string("gcc ") + __VERSION__);
#else
  Host.set("compiler", "unknown");
#endif
  Host.set("commit", Opts.Commit);
#ifdef NDEBUG
  Host.set("ndebug", true);
#else
  Host.set("ndebug", false);
#endif
  return Host;
}

/// Metric name -> (value, unit), in print order.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

MetricList endToEndMetrics(const RunRecord &Rec, double OracleFidelity) {
  const double Attempted =
      static_cast<double>(std::max<size_t>(1, Rec.Attempted));
  return {
      {"setup_s", {median(Rec.SetupSeconds), "s"}},
      {"task_s.p50", {median(Rec.TaskSeconds), "s"}},
      {"task_s.tail", {tailOf(Rec.TaskSeconds).Value, "s"}},
      {"shots_per_s", {median(Rec.PassShotsPerSecond), "1/s"}},
      {"cnot_mean", {Rec.CNOTs.mean(), "count"}},
      {"fidelity_mean",
       {Rec.Fidelity.empty() ? OracleFidelity : Rec.Fidelity.mean(), "ratio"}},
      {"ok_ratio", {1.0 - Rec.failed() / Attempted, "ratio"}},
      {"peak_rss_mb", {peakRssMb(), "MB"}},
  };
}

MetricList perLayerMetrics(const RunRecord &Rec) {
  const LayerTotals &L = Rec.Layers;
  const double Tasks =
      static_cast<double>(std::max<size_t>(1, Rec.TaskSeconds.size()));
  auto PerTask = [&](const char *Name) { return L.get(Name) / Tasks; };
  auto Ratio = [](double Num, double Den) {
    return Den > 0.0 ? Num / Den : 0.0;
  };
  const double Cancelled = L.get("emit.cancelled_cnots");
  MetricList M;
  auto Add = [&](const char *Name, double V, const char *Unit) {
    M.push_back({Name, {V, Unit}});
  };
  Add("resolve.s", PerTask("resolve.s"), "s");
  Add("mcfp.gc.s", PerTask("mcfp.gc.s"), "s");
  Add("mcfp.gc.count", PerTask("mcfp.gc.count"), "count");
  Add("mcfp.rp.s", PerTask("mcfp.rp.s"), "s");
  Add("mcfp.rp.count", PerTask("mcfp.rp.count"), "count");
  Add("combine.s", PerTask("combine.s"), "s");
  Add("graph.s", PerTask("graph.s"), "s");
  Add("alias.s", PerTask("alias.s"), "s");
  Add("walk.s", PerTask("walk.s"), "s");
  Add("walk.steps", PerTask("walk.steps"), "count");
  Add("emit.s", PerTask("emit.s"), "s");
  Add("emit.gates", PerTask("emit.gates"), "count");
  Add("emit.cancel_ratio",
      Ratio(Cancelled, L.get("emit.cnots") + Cancelled), "ratio");
  Add("batch.s", PerTask("batch.s"), "s");
  Add("batch.busy_ratio",
      Ratio(L.get("batch.busy_s"), L.get("batch.capacity_s")), "ratio");
  Add("batch.wait_s",
      (L.get("batch.capacity_s") - L.get("batch.busy_s")) / Tasks, "s");
  Add("targets.s", PerTask("targets.s"), "s");
  Add("targets.columns", PerTask("targets.columns"), "count");
  Add("eval.s", PerTask("eval.s"), "s");
  Add("eval.calls", PerTask("eval.calls"), "count");
  Add("eval.rot_cols", PerTask("eval.rot_cols"), "count");
  Add("eval.bytes_computed", PerTask("eval.bytes_computed"), "B");
  Add("noise.inject.s", PerTask("noise.inject.s"), "s");
  Add("noise.injected", PerTask("noise.injected"), "count");
  Add("store.hit_ratio",
      Ratio(static_cast<double>(Rec.StoreHits),
            static_cast<double>(Rec.StoreHits + Rec.StoreComputes)),
      "ratio");
  Add("store.computes", Rec.StoreComputes / Tasks, "count");
  Add("store.bytes_peak", static_cast<double>(Rec.StorePeakBytes), "B");
  Add("cache.gc_solves", Rec.GCSolves / Tasks, "count");
  Add("cache.rp_solves", Rec.RPSolves / Tasks, "count");
  Add("service.self_s", median(Rec.SelfSeconds), "s");
  Add("fleet.prewarm_s", PerTask("fleet.prewarm_s"), "s");
  Add("fleet.export_s", PerTask("fleet.export_s"), "s");
  Add("fleet.ranges", PerTask("fleet.ranges"), "count");
  Add("fleet.redispatched", PerTask("fleet.redispatched"), "count");
  Add("fleet.fetch_misses", PerTask("fleet.fetch_misses"), "count");
  Add("fleet.artifact_bytes", PerTask("fleet.artifact_bytes"), "B");
  Add("fleet.worker_eval_cpu_s", PerTask("fleet.worker_eval_cpu_s"), "s");
  Add("rpc.health_rtt_s", median(Rec.HealthRttSeconds), "s");
  Add("sched.peak_queue", L.get("sched.peak_queue"), "count");
  Add("sched.failed", L.get("sched.failed"), "count");
  Add("trace.overhead_s", median(Rec.OverheadSeconds), "s");
  return M;
}

json::Value groupsJson(const GroupMeans &Means) {
  json::Value V = json::Value::object();
  for (const auto &[Name, G] : Means.groups())
    V.set(Name, G.second > 0.0 ? G.first / G.second : 0.0);
  return V;
}

json::Value metricsJson(const MetricList &Metrics) {
  json::Value V = json::Value::object();
  for (const auto &[Name, Entry] : Metrics)
    V.set(Name, json::Value::object()
                    .set("value", Entry.first)
                    .set("unit", Entry.second));
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string Error;
  if (!parseOptions(Argc, Argv, Opts, Error))
    return usage(Error.c_str());
  std::unique_ptr<Workload> W = makeWorkload(Opts);
  if (!W)
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to time an assert-enabled build "
                       "(NDEBUG is not defined); build Release\n");
  return 2;
#endif

  // A traced run reports no setup_s, so it sets up once.
  RunRecord Rec;
  bool Ready = true;
  double SetupTotal = 0.0;
  for (size_t Rep = 0; Ready; ++Rep) {
    if (Rep > 0)
      W->tearDown();
    const Clock::time_point Begin = Clock::now();
    Ready = W->setUp(Rec);
    const double S = secondsBetween(Begin, Clock::now());
    Rec.SetupSeconds.push_back(S);
    SetupTotal += S;
    if (Opts.Trace || Rep + 1 >= 100 || (Rep + 1 >= 3 && SetupTotal >= 1.0))
      break;
  }

  size_t Passes = 0;
  OracleOutcome Oracle;
  if (Ready) {
    W->beginTimedPhase();
    const Clock::time_point PhaseBegin = Clock::now();
    size_t Index = 0;
    do {
      const size_t FirstTask = Rec.TaskSeconds.size();
      const size_t ShotsBefore = Rec.Shots;
      for (size_t I = 0; I < W->passSize(); ++I)
        W->runTask(Index++, Rec);
      double PassSeconds = 0.0;
      for (size_t T = FirstTask; T < Rec.TaskSeconds.size(); ++T)
        PassSeconds += Rec.TaskSeconds[T];
      if (PassSeconds > 0.0)
        Rec.PassShotsPerSecond.push_back((Rec.Shots - ShotsBefore) /
                                         PassSeconds);
      ++Passes;
    } while (secondsBetween(PhaseBegin, Clock::now()) < Opts.Seconds);
    W->finish(Rec);
    Oracle = runOracleCheck(W->oracleMix(), mixSeed(Opts.Seed, 0x0AC1E));
    for (const std::string &Failure : Oracle.Failures)
      Rec.fail(Failure);
  }
  if (Rec.Attempted == 0)
    Rec.Attempted = 1; // a run that never got to its tasks still failed

  const MetricList EndToEnd = endToEndMetrics(Rec, Oracle.MeanFidelity);
  const MetricList Layers = perLayerMetrics(Rec);
  const TailStat Tail = tailOf(Rec.TaskSeconds);
  const double ErrorRate =
      static_cast<double>(Rec.failed()) / static_cast<double>(Rec.Attempted);

  json::Value Report = json::Value::object();
  Report.set("workload", Opts.Workload);
  Report.set("seed", std::to_string(Opts.Seed));
  Report.set("seconds", Opts.Seconds);
  Report.set("trace", Opts.Trace);
  Report.set("host", hostJson(Opts));
  Report.set("setup_runs", Rec.SetupSeconds.size());
  Report.set("passes", Passes);
  Report.set("tasks", Rec.TaskSeconds.size());
  Report.set("shots", Rec.Shots);
  json::Value TaskSeconds = json::Value::array();
  for (double S : Rec.TaskSeconds)
    TaskSeconds.push(S);
  Report.set("task_seconds", std::move(TaskSeconds));
  json::Value SetupSeconds = json::Value::array();
  for (double S : Rec.SetupSeconds)
    SetupSeconds.push(S);
  Report.set("setup_seconds", std::move(SetupSeconds));
  Report.set("tail", json::Value::object()
                         .set("percentile", Tail.Percentile)
                         .set("beyond", Tail.Beyond)
                         .set("samples", Tail.Samples));
  Report.set("error_rate", json::Value::object()
                               .set("value", ErrorRate)
                               .set("unit", "ratio"));
  Report.set("cnot_groups", groupsJson(Rec.CNOTs));
  Report.set("fidelity_groups", groupsJson(Rec.Fidelity));
  Report.set("fidelity_source",
             Rec.Fidelity.empty() ? "dense-oracle task" : "workload tasks");
  Report.set("oracle", json::Value::object()
                           .set("shots", Oracle.Shots)
                           .set("mean_fidelity", Oracle.MeanFidelity));
  Report.set("matrix_checks",
             json::Value::object()
                 .set("matrices", Rec.Matrices.Matrices)
                 .set("max_row_sum_error", Rec.Matrices.MaxRowSumError)
                 .set("max_stationary_error", Rec.Matrices.MaxStationaryError));
  Report.set("end_to_end", metricsJson(EndToEnd));
  if (Opts.Trace)
    Report.set("per_layer", metricsJson(Layers));
  json::Value Notes = json::Value::array();
  for (const std::string &N : Rec.Notes)
    Notes.push(N);
  Report.set("failures", std::move(Notes));

  for (const std::string &N : Rec.Notes)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", N.c_str());
  std::printf("perfbench-report %s\n", Report.dump().c_str());

  json::Value Result = json::Value::object();
  Result.set("correct", Rec.failed() == 0);
  Result.set("attempted", Rec.Attempted);
  Result.set("failed", Rec.failed());
  Result.set("metrics", metricsJson(Opts.Trace ? Layers : EndToEnd));
  std::printf("%s\n", Result.dump().c_str());
  return 0;
}
