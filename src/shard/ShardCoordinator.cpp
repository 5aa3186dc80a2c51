//===- shard/ShardCoordinator.cpp - Cross-process batch sharding -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardCoordinator.h"

#include "server/Client.h"
#include "stats/Stats.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

using namespace marqsim;

std::string ShardCoordinator::manifestPath(const std::string &WorkDir,
                                           unsigned Index) {
  return (std::filesystem::path(WorkDir) /
          ("shard-" + std::to_string(Index) + ".manifest"))
      .string();
}

//===----------------------------------------------------------------------===//
// Worker-side execution
//===----------------------------------------------------------------------===//

std::optional<ShardManifest> ShardCoordinator::runShard(
    SimulationService &Service, const TaskSpec &Spec, unsigned Index,
    unsigned Count, std::string *Error) {
  if (Spec.Precision != EvalPrecision::FP64) {
    detail::fail(Error,
                 "shard worker: manifests are bit-exact artifacts and the "
                 "fp32 tier is tolerance-defined; use --precision=fp64 for "
                 "sharded runs");
    return std::nullopt;
  }
  ShardPlan Plan = ShardPlan::split(Spec.Shots, Count);
  if (Index >= Plan.shardCount()) {
    detail::fail(Error, "shard index " + std::to_string(Index) +
                            " out of range: " + std::to_string(Spec.Shots) +
                            " shots split into " +
                            std::to_string(Plan.shardCount()) + " shards");
    return std::nullopt;
  }
  ShotRange Range = Plan.Ranges[Index];
  std::optional<TaskResult> Result =
      Service.run(ShardManifest::workerSpec(Spec), Range, Error);
  if (!Result)
    return std::nullopt;
  return ShardManifest::fromTaskResult(Spec, Range, *Result);
}

//===----------------------------------------------------------------------===//
// Merge
//===----------------------------------------------------------------------===//

std::optional<TaskResult>
ShardCoordinator::merge(const TaskSpec &Spec, uint64_t ExpectedFingerprint,
                        std::vector<ShardManifest> Manifests,
                        std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    detail::fail(Error, "shard merge: " + Message);
    return std::nullopt;
  };
  if (Manifests.empty())
    return Fail("no manifests");
  std::sort(Manifests.begin(), Manifests.end(),
            [](const ShardManifest &A, const ShardManifest &B) {
              return A.Range.Begin < B.Range.Begin;
            });

  const ShardManifest &First = Manifests.front();
  const uint64_t SpecKey = Spec.contentKey();
  bool WantFidelity = Spec.Evaluate.FidelityColumns > 0;
  size_t NextShot = 0;
  for (const ShardManifest &M : Manifests) {
    if (M.Fingerprint != ExpectedFingerprint)
      return Fail("fingerprint mismatch: manifest for range [" +
                  std::to_string(M.Range.Begin) + ", " +
                  std::to_string(M.Range.end()) +
                  ") was compiled from a different Hamiltonian");
    if (M.Seed != Spec.Seed)
      return Fail("seed mismatch");
    if (M.SpecKey != SpecKey)
      return Fail("task configuration mismatch: manifest for range [" +
                  std::to_string(M.Range.Begin) + ", " +
                  std::to_string(M.Range.end()) +
                  ") was compiled with different parameters");
    if (M.TotalShots != Spec.Shots)
      return Fail("batch size mismatch");
    if (M.StrategyName != First.StrategyName ||
        M.NumSamples != First.NumSamples)
      return Fail("manifests disagree on strategy or sampling budget");
    if (M.HasFidelity != WantFidelity)
      return Fail(WantFidelity ? "manifest is missing fidelity samples"
                               : "manifest has unexpected fidelity samples");
    if (M.Range.Begin != NextShot)
      return Fail("shot coverage has a gap or overlap at shot " +
                  std::to_string(NextShot));
    if (M.Shots.size() != M.Range.Count)
      return Fail("manifest shot count disagrees with its range");
    NextShot = M.Range.end();
  }
  if (NextShot != Spec.Shots)
    return Fail("shot coverage ends at " + std::to_string(NextShot) +
                ", expected " + std::to_string(Spec.Shots));

  TaskResult Result;
  Result.Fingerprint = ExpectedFingerprint;
  Result.NumSamples = First.NumSamples;
  BatchResult &B = Result.Batch;
  B.StrategyName = First.StrategyName;
  B.NumShots = Spec.Shots;
  B.Seed = Spec.Seed;
  B.Shots.reserve(Spec.Shots);
  Result.HasFidelity = WantFidelity;
  if (WantFidelity)
    Result.ShotFidelities.reserve(Spec.Shots);
  for (const ShardManifest &M : Manifests) {
    B.JobsUsed = std::max(B.JobsUsed, M.JobsUsed);
    B.EvalSeconds += M.EvalSeconds;
    B.Shots.insert(B.Shots.end(), M.Shots.begin(), M.Shots.end());
    if (WantFidelity)
      Result.ShotFidelities.insert(Result.ShotFidelities.end(),
                                   M.Fidelities.begin(), M.Fidelities.end());
    Result.Stats += M.Stats;
  }

  // The same sequential pass compileBatch runs, so the merged summaries
  // are bit-identical to the single-process run, not merely close.
  B.recomputeAggregates();

  if (WantFidelity) {
    RunningStats Fids;
    for (double F : Result.ShotFidelities)
      Fids.add(F);
    Result.Fidelity.Mean = Fids.mean();
    Result.Fidelity.Std = Fids.stddev();
    Result.Fidelity.Min = Fids.min();
    Result.Fidelity.Max = Fids.max();
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

namespace {

/// What one slot made of one shot range: a manifest, or why not. A
/// transport failure means the slot itself is gone (a dead or hung fleet
/// worker), not that the range is bad.
struct RangeOutcome {
  std::optional<ShardManifest> Manifest;
  std::string Error;
  bool Transport = false;
};

/// One executor of shot ranges, running one range at a time. WarmUp, when
/// set, runs once before the first range and returns why the slot is
/// unusable (empty on success).
struct RangeSlot {
  std::function<RangeOutcome(size_t)> Run;
  std::function<std::string()> WarmUp;
};

} // namespace

std::optional<TaskResult> ShardCoordinator::run(const TaskSpec &Spec,
                                                std::string *Error,
                                                ShardReport *Report) {
  auto Fail = [&](const std::string &Message) {
    detail::fail(Error, "shard coordinator: " + Message);
    return std::nullopt;
  };
  std::string Validation;
  if (!Spec.validate(&Validation))
    return Fail(Validation);
  // Shard manifests carry bit-exact per-shot fidelity hex that the merge
  // re-checks; the fp32 tier only promises a tolerance, so it can never
  // travel through a manifest.
  if (Spec.Precision != EvalPrecision::FP64)
    return Fail("manifests are bit-exact artifacts and the fp32 tier is "
                "tolerance-defined; use --precision=fp64 for sharded runs");
  if (Spec.Evaluate.KeepResults || Spec.Evaluate.ExportShotZero ||
      Spec.Evaluate.DumpDot)
    return Fail("per-shot artifacts (KeepResults/ExportShotZero/DumpDot) "
                "cannot travel through manifests; compile them with a "
                "ranged single-process run instead");
  if (Options.WorkDir.empty())
    return Fail("a work directory is required");
  // A broken shared store must fail loudly: silently degrading to
  // per-worker MCFP solves would violate the one-solve contract without
  // any visible signal.
  std::string DirError;
  if (!ArtifactStore::validateCacheDir(Options.CacheDir, &DirError))
    return Fail(DirError);
  std::error_code EC;
  std::filesystem::create_directories(Options.WorkDir, EC);
  if (EC)
    return Fail("cannot create work directory '" + Options.WorkDir + "'");

  ShardReport LocalReport;
  ShardReport &R = Report ? *Report : LocalReport;
  R.Plan = ShardPlan::split(Spec.Shots, Options.ShardCount);
  const size_t K = R.Plan.shardCount();
  const bool Fleet = !Options.Workers.empty();
  const bool InProcess = !Fleet && Options.WorkerBinary.empty();

  std::optional<Hamiltonian> H =
      SimulationService::resolveHamiltonian(Spec.Source, Error);
  if (!H)
    return std::nullopt;
  const uint64_t Fingerprint = H->fingerprint();
  const uint64_t SpecKey = Spec.contentKey();
  Timer Clock;

  // The coordinator's service runs in-process shards and is the artifact
  // origin for every other worker: its prewarm is the run's single MCFP
  // solve (and column evolution), which subprocess workers load from the
  // shared CacheDir and fleet workers receive as artifact-put frames. It
  // also front-loads the Theorem 4.1 validation before any worker starts.
  std::unique_ptr<SimulationService> Owned;
  SimulationService *Service = Fleet ? Options.SharedService : nullptr;
  if (!Service) {
    ServiceOptions LocalOptions;
    LocalOptions.CacheDir = Options.CacheDir;
    LocalOptions.CacheLimitBytes = Options.CacheLimitBytes;
    Owned = std::make_unique<SimulationService>(LocalOptions);
    Service = Owned.get();
  }
  // Out-of-process workers receive the spec as TaskSpec JSON, which
  // carries every field bit for bit and the Hamiltonian as inline terms:
  // subprocesses read it from one file, fleet workers inside each frame.
  std::optional<json::Value> SpecJson;
  std::optional<std::vector<TaskArtifact>> Artifacts;
  const std::string SpecPath =
      (std::filesystem::path(Options.WorkDir) / "spec.json").string();
  if (!InProcess) {
    SpecJson = Spec.toJson(Error);
    if (!SpecJson)
      return std::nullopt;
    if (Fleet || !Options.CacheDir.empty()) {
      if (!Service->prewarm(Spec, Error))
        return std::nullopt;
      R.LocalStats = Service->stats();
    } else {
      R.Notes.push_back("no cache directory: every worker performs its own "
                        "MCFP solves");
    }
    if (Fleet) {
      Artifacts = Service->exportArtifacts(Spec, Error);
      if (!Artifacts)
        return std::nullopt;
    } else {
      std::ofstream Out(SpecPath);
      Out << SpecJson->dump();
      Out.close();
      if (!Out)
        return Fail("cannot write '" + SpecPath + "'");
    }
  }

  // The one acceptance gate: every manifest, whether reused from disk,
  // written by a child process, received over the wire or computed
  // in-process, passes through it before it can merge.
  auto RejectReason = [&](const ShardManifest &M, size_t I) -> std::string {
    if (M.Fingerprint != Fingerprint)
      return "fingerprint mismatch (different Hamiltonian)";
    if (M.Seed != Spec.Seed || M.TotalShots != Spec.Shots)
      return "seed or batch size mismatch (stale manifest)";
    if (M.SpecKey != SpecKey)
      return "task configuration mismatch (manifest from a run with "
             "different parameters)";
    if (M.Range.Begin != R.Plan.Ranges[I].Begin ||
        M.Range.Count != R.Plan.Ranges[I].Count)
      return "shot range disagrees with the shard plan";
    if (M.HasFidelity != (Spec.Evaluate.FidelityColumns > 0))
      return "fidelity presence disagrees with the task";
    if (M.Shots.size() != M.Range.Count)
      return "manifest shot count disagrees with its range";
    return {};
  };
  auto RangeName = [&](size_t I) {
    return "[" + std::to_string(R.Plan.Ranges[I].Begin) + ", " +
           std::to_string(R.Plan.Ranges[I].end()) + ")";
  };

  // Collect: valid manifests already in the work directory are reused,
  // which doubles as crash recovery for interrupted sweeps.
  std::vector<std::optional<ShardManifest>> Accepted(K);
  for (size_t I = 0; I < K; ++I) {
    std::string Path = manifestPath(Options.WorkDir, I);
    if (!std::filesystem::exists(Path))
      continue;
    std::string ReadError;
    std::optional<ShardManifest> M = ShardManifest::readFile(Path, &ReadError);
    if (M)
      ReadError = RejectReason(*M, I);
    if (M && ReadError.empty()) {
      Accepted[I] = std::move(M);
      ++R.Reused;
      continue;
    }
    R.Notes.push_back("shard " + std::to_string(I) + ": rejected '" + Path +
                      "': " + ReadError + "; re-running the range");
    std::filesystem::remove(Path, EC);
  }

  // Shared dispatch state, guarded by Mutex together with Accepted,
  // R.Notes and R.Retries. Pending holds ranges awaiting (re-)dispatch; Open counts
  // ranges not yet accepted, queued or in flight; Live counts slots still
  // able to take a range.
  std::mutex Mutex;
  std::condition_variable CV;
  std::deque<size_t> Pending;
  size_t Open = 0;
  size_t Live = 0;
  std::string AbortReason;
  std::vector<unsigned> Failures(K, 0);
  std::vector<char> Dispatched(K, 0);
  const unsigned MaxAttempts = std::max(1u, Options.MaxAttempts);
  for (size_t I = 0; I < K; ++I)
    if (!Accepted[I]) {
      Pending.push_back(I);
      ++Open;
    }
  auto Note = [&](std::string Text) {
    std::lock_guard<std::mutex> Lock(Mutex);
    R.Notes.push_back(std::move(Text));
  };

  // The slots: one in-process executor, one re-exec'd marqsim-cli per
  // shard, or one connection per fleet worker.
  std::vector<RangeSlot> Slots;
  std::vector<std::optional<server::DaemonClient>> Clients(
      Options.Workers.size());
  if (InProcess) {
    RangeSlot Slot;
    Slot.Run = [&](size_t I) {
      RangeOutcome Out;
      Out.Manifest = runShard(*Service, Spec, static_cast<unsigned>(I),
                              static_cast<unsigned>(K), &Out.Error);
      return Out;
    };
    Slots.push_back(std::move(Slot));
  } else if (!Fleet) {
    // A child that exits non-zero or leaves no valid manifest fails its
    // range; a child is never a transport, so its slot stays live.
    auto RunChild = [&](size_t I) {
      std::string Path = manifestPath(Options.WorkDir, I);
      SubprocessSpec Child;
      Child.Argv = {Options.WorkerBinary, "--shard-spec=" + SpecPath,
                    "--shard-index=" + std::to_string(I),
                    "--shard-count=" + std::to_string(K),
                    "--shard-out=" + Path};
      if (!Options.CacheDir.empty())
        Child.Argv.push_back("--cache-dir=" + Options.CacheDir);
      if (Options.CacheLimitBytes > 0)
        Child.Argv.push_back("--cache-limit-bytes=" +
                             std::to_string(Options.CacheLimitBytes));
      Child.StdoutFile = (std::filesystem::path(Options.WorkDir) /
                          ("shard-" + std::to_string(I) + ".log"))
                             .string();
      Child.StderrFile = Child.StdoutFile;
      RangeOutcome Out;
      Subprocess Proc;
      if (!Proc.spawn(Child, &Out.Error))
        return Out;
      if (int Exit = Proc.wait(); Exit != 0) {
        Out.Error = "worker exited with status " + std::to_string(Exit);
        std::error_code ExistsEC;
        if (std::filesystem::exists(Path, ExistsEC))
          Out.Error += "; rejected the manifest it left at '" + Path + "'";
        return Out;
      }
      Out.Manifest = ShardManifest::readFile(Path, &Out.Error);
      if (!Out.Manifest)
        Out.Error = "rejected '" + Path + "': " + Out.Error;
      return Out;
    };
    Slots.assign(K, RangeSlot{RunChild, nullptr});
  } else {
    R.Fleet.Used = true;
    R.Fleet.Workers.clear();
    for (size_t Wi = 0; Wi < Options.Workers.size(); ++Wi) {
      FleetWorkerStats WS;
      WS.HostPort = Options.Workers[Wi];
      R.Fleet.Workers.push_back(std::move(WS));
      RangeSlot Slot;
      Slot.Run = [&, Wi](size_t I) {
        RangeOutcome Out;
        std::optional<std::string> Text = Clients[Wi]->runShardRange(
            *SpecJson, R.Plan.Ranges[I], 0, &Out.Transport, &Out.Error);
        if (Text)
          Out.Manifest = ShardManifest::parse(*Text, &Out.Error);
        return Out;
      };
      Slot.WarmUp = [&, Wi]() -> std::string {
        FleetWorkerStats &WS = R.Fleet.Workers[Wi];
        server::ConnectOptions CO;
        CO.Attempts = std::max(1u, Options.ConnectAttempts);
        CO.DelayMs = std::max(1u, Options.ConnectDelayMs);
        std::string Why;
        Clients[Wi] = server::DaemonClient::connectTo(WS.HostPort, &Why, CO);
        if (!Clients[Wi])
          return "connect failed: " + Why;
        if (Options.FleetTimeoutMs)
          Clients[Wi]->setRecvTimeout(Options.FleetTimeoutMs);
        // Probe, then push only what the worker lacks. An artifact too
        // large for a request frame is skipped: the worker recomputes it,
        // which changes cost, never results (flow artifacts are tiny, so
        // the fleet still performs one MCFP solve; only fidelity columns
        // can grow past the cap).
        for (const TaskArtifact &A : *Artifacts) {
          if (A.Body.size() + 4096 > server::MaxRequestFrameBytes) {
            Note("worker " + WS.HostPort + ": artifact '" + A.Key.Id +
                 "' exceeds the request frame cap; the worker will "
                 "recompute it");
            continue;
          }
          std::optional<bool> Present = Clients[Wi]->probeArtifact(A.Key, &Why);
          if (!Present)
            return "artifact probe failed: " + Why;
          if (*Present) {
            ++WS.FetchHits;
            continue;
          }
          if (!Clients[Wi]->putArtifact(*SpecJson, A.Key, A.Body, &Why))
            return "artifact push failed: " + Why;
          ++WS.FetchMisses;
          WS.ArtifactBytesServed += A.Body.size();
        }
        return {};
      };
      Slots.push_back(std::move(Slot));
    }
  }
  Live = Slots.size();
  // Only fleet slots are reported per worker; the others count into a
  // scratch list so the loop below needs no special case. A slot's thread
  // owns its Stats entry exclusively.
  std::vector<FleetWorkerStats> Unreported(Fleet ? 0 : Slots.size());
  std::vector<FleetWorkerStats> &Stats = Fleet ? R.Fleet.Workers : Unreported;

  // Retires slot Si (Mutex held). A range it had in flight goes back to
  // the front of the queue at no attempt cost: a dead worker cannot burn
  // the retry budget, and its range preempts fresh dispatches.
  auto RetireLocked = [&](size_t Si, const std::string &Why,
                          std::optional<size_t> InFlight) {
    Stats[Si].Alive = false;
    --Live;
    std::string Text = "worker " + Stats[Si].HostPort + ": " + Why;
    if (InFlight) {
      Pending.push_front(*InFlight);
      Text += "; re-dispatching range " + RangeName(*InFlight) +
              " to the survivors";
    }
    R.Notes.push_back(std::move(Text));
    if (Live == 0 && Open > 0 && AbortReason.empty())
      AbortReason = "no live workers remain";
    CV.notify_all();
  };

  auto Drive = [&](size_t Si) {
    RangeSlot &Slot = Slots[Si];
    FleetWorkerStats &WS = Stats[Si];
    if (Slot.WarmUp) {
      std::string Why = Slot.WarmUp();
      if (!Why.empty()) {
        std::lock_guard<std::mutex> Lock(Mutex);
        RetireLocked(Si, Why, std::nullopt);
        return;
      }
    }
    for (;;) {
      size_t I;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        CV.wait(Lock, [&] {
          return !AbortReason.empty() || Open == 0 || !Pending.empty();
        });
        if (!AbortReason.empty() || Open == 0)
          return;
        I = Pending.front();
        Pending.pop_front();
        if (Dispatched[I]) {
          ++R.Retries;
          ++WS.RangesRedispatched;
        }
        Dispatched[I] = 1;
      }
      ++WS.RangesDispatched;

      // An exception must become a range failure here: escaping the slot
      // thread would end the process.
      RangeOutcome Out;
      try {
        Out = Slot.Run(I);
      } catch (const std::exception &E) {
        Out.Error = std::string("internal error: ") + E.what();
      }
      if (Out.Manifest) {
        Out.Error = RejectReason(*Out.Manifest, I);
        if (!Out.Error.empty())
          Out.Manifest.reset();
      }
      const std::string Path = manifestPath(Options.WorkDir, I);
      if (Out.Manifest) {
        WS.EvalSeconds += Out.Manifest->EvalSeconds;
        // Persist for crash resume; a write failure costs resumability,
        // not correctness.
        std::string WriteError;
        bool Persisted = Out.Manifest->writeFile(Path, &WriteError);
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!Persisted)
          R.Notes.push_back("shard " + std::to_string(I) +
                            ": cannot persist manifest: " + WriteError);
        Accepted[I] = std::move(Out.Manifest);
        --Open;
        CV.notify_all();
        continue;
      }
      // Whatever a failed attempt left behind must not be resumed later.
      std::error_code RemoveEC;
      std::filesystem::remove(Path, RemoveEC);
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Out.Transport) {
        RetireLocked(Si, Out.Error, I);
        return;
      }
      // A live slot produced a failed, corrupt or mismatched range: that
      // does consume an attempt, bounding how long a lying worker can
      // stall the batch.
      R.Notes.push_back("shard " + std::to_string(I) +
                        (WS.HostPort.empty() ? "" : " on " + WS.HostPort) +
                        ": " + Out.Error + "; re-dispatching the range");
      if (++Failures[I] >= MaxAttempts) {
        AbortReason = "range " + RangeName(I) + " still invalid after " +
                      std::to_string(MaxAttempts) + " attempts";
        CV.notify_all();
        return;
      }
      Pending.push_back(I);
      CV.notify_all();
    }
  };

  if (Open > 0) {
    std::vector<std::thread> Threads;
    Threads.reserve(Slots.size());
    for (size_t Si = 0; Si < Slots.size(); ++Si)
      Threads.emplace_back(Drive, Si);
    for (std::thread &T : Threads)
      T.join();
    if (Open > 0) {
      std::string Message = AbortReason.empty()
                                ? "dispatch ended with " +
                                      std::to_string(Open) +
                                      " range(s) incomplete"
                                : AbortReason;
      for (const std::string &Text : R.Notes)
        Message += "\n  " + Text;
      return Fail(Message);
    }
  }

  std::vector<ShardManifest> Manifests;
  Manifests.reserve(K);
  for (std::optional<ShardManifest> &M : Accepted) {
    R.WorkerStats += M->Stats;
    Manifests.push_back(std::move(*M));
  }
  std::optional<TaskResult> Merged =
      merge(Spec, Fingerprint, std::move(Manifests), Error);
  if (Merged)
    // Wall clock of the whole sharded phase (prewarm, workers, validation,
    // merge): the honest analogue of BatchResult::Seconds.
    Merged->Batch.Seconds = Clock.seconds();
  return Merged;
}
