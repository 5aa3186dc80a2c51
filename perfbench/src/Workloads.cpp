//===- perfbench/src/Workloads.cpp - The benchmark's four workloads -------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "hamgen/Registry.h"
#include "server/Client.h"
#include "server/Daemon.h"
#include "shard/ShardCoordinator.h"
#include "support/Serial.h"

#include <cmath>
#include <filesystem>
#include <thread>

using namespace marqsim;

namespace perfbench {

namespace {

Hamiltonian registryModel(const std::string &Name) {
  return makeBenchmark(*findBenchmark(Name));
}

/// A seed-derived uniform draw in [0, 1).
double unitDraw(uint64_t Seed, uint64_t Index) {
  return static_cast<double>(mixSeed(Seed, Index) >> 11) * 0x1.0p-53;
}

TaskSpec samplingSpec(const Hamiltonian &H, const ChannelMix &Mix) {
  TaskSpec S;
  S.Source = HamiltonianSource::fromHamiltonian(H);
  S.Mix = Mix;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared task path
//===----------------------------------------------------------------------===//

void Workload::recordOutputs(const TaskSpec &Spec, const TaskResult &R,
                             const std::string &Group, RunRecord &Rec) {
  const BatchResult &B = R.Batch;
  if (B.Shots.size() != Spec.Shots) {
    Rec.fail(Group + ": batch returned " + std::to_string(B.Shots.size()) +
             " of " + std::to_string(Spec.Shots) + " shots");
    return;
  }
  double CNOTs = 0.0;
  for (const ShotSummary &S : B.Shots)
    CNOTs += static_cast<double>(S.Counts.CNOTs);
  Rec.Shots += B.Shots.size();
  Rec.CNOTs.add(Group, CNOTs, static_cast<double>(B.Shots.size()));
  if (Spec.Evaluate.FidelityColumns == 0)
    return;
  if (!R.HasFidelity || R.ShotFidelities.size() != Spec.Shots) {
    Rec.fail(Group + ": fidelity missing from the result");
    return;
  }
  double Sum = 0.0;
  for (double F : R.ShotFidelities) {
    if (!std::isfinite(F) || F < 0.0 || F > 1.0 + 1e-9) {
      Rec.fail(Group + ": fidelity " + std::to_string(F) +
               " outside [0, 1]");
      return;
    }
    Sum += F;
  }
  Rec.Fidelity.add(Group, Sum, static_cast<double>(Spec.Shots));
}

void Workload::replayAndCompare(const TaskSpec &Spec, const TaskResult &R,
                                double ServiceSeconds, double UntracedSeconds,
                                ReplayCache &Cache, RunRecord &Rec) {
  ReplayResult Replay = replayTask(Spec, Cache, Rec.Layers, &Rec.Matrices);
  for (const std::string &Failure : Replay.Failures)
    Rec.fail("replay: " + Failure);
  if (!Replay.Ok)
    return;
  std::string Diff = compareWithService(Replay, R);
  if (!Diff.empty())
    Rec.fail("replay does not reproduce the result: " + Diff);
  Rec.OverheadSeconds.push_back(Replay.Seconds - UntracedSeconds);
  Rec.SelfSeconds.push_back(ServiceSeconds - Replay.LayerSeconds);
}

void Workload::checkAgainstGraph(SimulationService &Service,
                                 const TaskSpec &Spec, const TaskResult &R,
                                 const std::string &Group, RunRecord &Rec) {
  std::string Error;
  std::optional<Hamiltonian> H =
      SimulationService::resolveHamiltonian(Spec.Source, &Error);
  std::shared_ptr<const HTTGraph> Graph = Service.graphFor(Spec, &Error);
  if (!H || !Graph) {
    Rec.fail(Group + ": cannot resolve the task for checking: " + Error);
    return;
  }
  if (auto Bad =
          checkTransitionMatrix(*H, Graph->transitionMatrix(), &Rec.Matrices))
    Rec.fail(Group + ": transition matrix: " + *Bad);
  if (auto Bad = checkShotZero(Spec, Graph, R))
    Rec.fail(Group + ": " + *Bad);
}

std::optional<TaskResult>
Workload::runServiceTask(SimulationService &Service, const TaskSpec &Spec,
                         const std::string &Group, Clock::time_point Submitted,
                         ReplayCache *Cache, RunRecord &Rec) {
  const ServiceCounters Before = ServiceCounters::of(Service);
  std::string Error;
  std::optional<TaskResult> R = Service.run(Spec, &Error);
  const double Wall = secondsBetween(Submitted, Clock::now());
  Rec.TaskSeconds.push_back(Wall);
  Rec.addServiceStats(Service, Before);
  if (!R) {
    Rec.fail(Group + ": task failed: " + Error);
    return std::nullopt;
  }
  recordOutputs(Spec, *R, Group, Rec);

  checkAgainstGraph(Service, Spec, *R, Group, Rec);
  if (Cache)
    replayAndCompare(Spec, *R, Wall, Wall, *Cache, Rec);
  return R;
}

namespace {

//===----------------------------------------------------------------------===//
// compile-cold
//===----------------------------------------------------------------------===//

/// How fast a circuit comes out and how good it is: a fresh service per
/// task (nothing cached), the gc-rp mix at the default Prp rounds, no
/// fidelity, over every registry model of at most 10 qubits. Work falls
/// on flow, markov and core walk/emit; sim does none.
class CompileCold : public Workload {
public:
  using Workload::Workload;

  bool setUp(RunRecord &) override {
    for (const char *Name :
         {"Na+", "Cl-", "Ar", "OH-", "HF", "LiH-froze", "SYK-1", "SYK-2"})
      Models.emplace_back(Name, registryModel(Name));
    return true;
  }

  void tearDown() override { Models.clear(); }

  size_t passSize() const override { return Models.size(); }

  void runTask(size_t Index, RunRecord &Rec) override {
    const auto &[Name, H] = Models[Index % Models.size()];
    TaskSpec Spec = samplingSpec(H, *ChannelMix::preset("gc-rp"));
    Spec.PerturbSeed = mixSeed(Opts.Seed, 2 * Index + 1);
    Spec.Seed = mixSeed(Opts.Seed, 2 * Index);
    Spec.Shots = 64;
    Spec.Jobs = 4;

    Rec.beginTask();
    const Clock::time_point Submitted = Clock::now();
    SimulationService Service;
    ReplayCache Cache;
    std::optional<TaskResult> R = runServiceTask(
        Service, Spec, Name, Submitted, Opts.Trace ? &Cache : nullptr, Rec);
    if (R && (R->Stats.GCSolveMisses != 1 || R->Stats.RPSolveMisses != 1))
      Rec.fail(Name + ": a cold task must solve Pgc and Prp once each");
    Rec.endTask();
  }

  void finish(RunRecord &) override {}

  ChannelMix oracleMix() const override {
    return *ChannelMix::preset("gc-rp");
  }

private:
  std::vector<std::pair<std::string, Hamiltonian>> Models;
};

//===----------------------------------------------------------------------===//
// time-sweep
//===----------------------------------------------------------------------===//

/// The cold fidelity prefix: a Fig. 16-style sweep over evolution times
/// with a fresh service per pass. The alias bundle does not depend on T,
/// so the store hits after each model's first T, while the exact target
/// columns miss at every T — evolveExact dominates.
///
/// Each model sweeps its own three times, chosen so that the i-th time
/// costs about the same on both (SYK-1's 256-entry states evolve about
/// five times faster than OH-'s 1024-entry ones): the task times then
/// form three tight levels and the median falls inside the middle one.
class TimeSweep : public Workload {
public:
  using Workload::Workload;

  static constexpr size_t NumTimes = 3;

  bool setUp(RunRecord &) override {
    Models.push_back({"OH-", registryModel("OH-"), {0.05, 0.1, 0.15}});
    Models.push_back({"SYK-1", registryModel("SYK-1"), {0.25, 0.5, 0.75}});
    return true;
  }

  void tearDown() override { Models.clear(); }

  size_t passSize() const override { return Models.size() * NumTimes; }

  void runTask(size_t Index, RunRecord &Rec) override {
    const size_t InPass = Index % passSize();
    const SweepModel &M = Models[InPass / NumTimes];
    const size_t TimeIndex = InPass % NumTimes;
    TaskSpec Spec = samplingSpec(M.H, *ChannelMix::preset("gc"));
    Spec.Time = M.Times[TimeIndex];
    Spec.Shots = 8;
    Spec.Jobs = 4;
    Spec.Seed = mixSeed(Opts.Seed, Index);
    Spec.Evaluate.FidelityColumns = 4;
    Spec.Evaluate.ColumnSeed = mixSeed(Opts.Seed, 0xC0);

    Rec.beginTask();
    if (InPass == 0 && Service) {
      Service.reset();
      Cache = ReplayCache();
    }
    const Clock::time_point Submitted = Clock::now();
    if (!Service)
      Service = std::make_unique<SimulationService>();
    char Group[64];
    std::snprintf(Group, sizeof(Group), "%s/T=%g", M.Name.c_str(),
                  M.Times[TimeIndex]);
    std::optional<TaskResult> R = runServiceTask(
        *Service, Spec, Group, Submitted, Opts.Trace ? &Cache : nullptr, Rec);
    if (R) {
      const CacheStats &S = R->Stats;
      bool First = TimeIndex == 0;
      bool Expected =
          S.EvaluatorMisses == 1 &&
          (First ? S.GraphMisses == 1 && S.GCSolveMisses == 1
                 : S.GraphHits == 1 && S.GraphMisses == 0 &&
                       S.GCSolveMisses == 0);
      if (!Expected)
        Rec.fail(std::string(Group) +
                 ": store did not hit the T-independent bundle or missed "
                 "the T-dependent targets as expected");
    }
    Rec.endTask();
  }

  void finish(RunRecord &) override {}

  ChannelMix oracleMix() const override { return *ChannelMix::preset("gc"); }

private:
  struct SweepModel {
    std::string Name;
    Hamiltonian H;
    double Times[NumTimes];
  };
  std::vector<SweepModel> Models;
  std::unique_ptr<SimulationService> Service;
  ReplayCache Cache;
};

//===----------------------------------------------------------------------===//
// eval-warm
//===----------------------------------------------------------------------===//

/// Steady-state evaluation throughput: one service prewarmed in set-up
/// (MCFP solves and targets), tasks varying only the sampling seed and
/// alternating noiseless with stochastic depolarizing noise. The store
/// hits every time and flow does no work.
///
/// T = 0.125 with epsilon scaled by T^2 keeps the schedules exactly as
/// long as the registry time T = 1 at epsilon = 0.05 makes them (OH-:
/// about 28k rotations), so each shot evaluates the same work, while the
/// set-up's exact target columns cost an eighth as much.
class EvalWarm : public Workload {
public:
  using Workload::Workload;

  static constexpr double Time = 0.125;
  static constexpr double Epsilon = 0.05 * Time * Time;
  static constexpr double NoiseProb = 2e-6;

  bool setUp(RunRecord &Rec) override {
    for (const char *Name : {"OH-", "SYK-2"})
      Models.emplace_back(Name, registryModel(Name));
    Service = std::make_unique<SimulationService>();
    // The models warm concurrently, as concurrent first requests to a
    // resident service would. A traced run warms the replay's own caches
    // the same way; their spans belong to no task.
    std::vector<std::string> Errors(Models.size());
    std::vector<ReplayCache> Caches(Models.size());
    std::vector<std::thread> Threads;
    for (size_t I = 0; I < Models.size(); ++I)
      Threads.emplace_back([&, I] {
        TaskSpec Spec = spec(Models[I].second, 0, false);
        if (!Service->prewarm(Spec, &Errors[I]) && Errors[I].empty())
          Errors[I] = "prewarm failed";
        if (Opts.Trace) {
          LayerTotals Discard;
          Spec.Shots = 1;
          replayTask(Spec, Caches[I], Discard, nullptr);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    for (size_t I = 0; I < Models.size(); ++I) {
      if (!Errors[I].empty()) {
        Rec.fail(Models[I].first + ": prewarm failed: " + Errors[I]);
        return false;
      }
      Cache.Components.merge(Caches[I].Components);
      Cache.Bundles.merge(Caches[I].Bundles);
      Cache.Evaluators.merge(Caches[I].Evaluators);
    }
    return true;
  }

  void tearDown() override {
    Models.clear();
    Service.reset();
    Cache = ReplayCache();
  }

  size_t passSize() const override { return 2 * Models.size(); }

  void runTask(size_t Index, RunRecord &Rec) override {
    const size_t InPass = Index % passSize();
    const auto &[Name, H] = Models[InPass % Models.size()];
    const bool Noisy = InPass >= Models.size();
    TaskSpec Spec = spec(H, Index, Noisy);
    Rec.beginTask();
    std::optional<TaskResult> R =
        runServiceTask(*Service, Spec, Name + (Noisy ? "/noisy" : ""),
                       Clock::now(), Opts.Trace ? &Cache : nullptr, Rec);
    if (R && (R->Stats.GraphHits != 1 || R->Stats.EvaluatorHits != 1 ||
              R->Stats.GraphMisses || R->Stats.EvaluatorMisses ||
              R->Stats.GCSolveMisses))
      Rec.fail(Name + ": a warm task must hit the bundle and the targets");
    Rec.endTask();
  }

  void finish(RunRecord &) override {}

  ChannelMix oracleMix() const override { return *ChannelMix::preset("gc"); }

private:
  TaskSpec spec(const Hamiltonian &H, size_t Index, bool Noisy) const {
    TaskSpec Spec = samplingSpec(H, *ChannelMix::preset("gc"));
    Spec.Time = Time;
    Spec.Epsilon = Epsilon;
    Spec.Shots = 12;
    Spec.Jobs = 4;
    Spec.Seed = mixSeed(Opts.Seed, Index);
    Spec.Evaluate.FidelityColumns = 8;
    Spec.Evaluate.ColumnSeed = mixSeed(Opts.Seed, 0xC0);
    if (Noisy) {
      Spec.Noise.Kind = NoiseChannelKind::Depolarizing;
      Spec.Noise.Mode = NoiseMode::Stochastic;
      Spec.Noise.Prob = NoiseProb;
    }
    return Spec;
  }

  std::vector<std::pair<std::string, Hamiltonian>> Models;
  std::unique_ptr<SimulationService> Service;
  ReplayCache Cache;
};

//===----------------------------------------------------------------------===//
// fleet-sweep
//===----------------------------------------------------------------------===//

/// Every fleet request brings a new alias bundle (up to 0.9 MB for
/// SYK-1) into each service it touches, so the fleet's services run with
/// a bounded store, as a long-lived daemon would: memory stays flat no
/// matter how many requests a run completes. The budget keeps each
/// model's Pgc and targets resident across a pass.
constexpr size_t FleetStoreBytes = size_t(8) << 20;

ServiceOptions fleetServiceOptions() {
  ServiceOptions O;
  O.CacheLimitBytes = FleetStoreBytes;
  return O;
}

/// An in-process loopback worker: a resident daemon over its own service
/// on an ephemeral port, serve() on a thread — one remote host.
struct LoopbackWorker {
  SimulationService Service;
  server::Daemon D;
  std::thread Server;

  static server::DaemonOptions options() {
    server::DaemonOptions O;
    O.Scheduler.Workers = 2;
    O.StoreLimitBytes = FleetStoreBytes;
    return O;
  }

  LoopbackWorker() : Service(fleetServiceOptions()), D(Service, options()) {}
  LoopbackWorker(const LoopbackWorker &) = delete;
  LoopbackWorker &operator=(const LoopbackWorker &) = delete;
  ~LoopbackWorker() {
    if (Server.joinable()) {
      D.notifyShutdown();
      Server.join();
    }
  }

  bool start(std::string *Error) {
    if (!D.start(Error))
      return false;
    Server = std::thread([this] { D.serve(); });
    return true;
  }

  std::string hostPort() const {
    return "127.0.0.1:" + std::to_string(D.port());
  }
};

/// Serving overhead: a ShardCoordinator dispatching a Fig. 14-style ratio
/// sweep to two loopback daemons. Every request carries a channel mix the
/// workers have not seen — one GC solve per Hamiltonian per run, but one
/// alias bundle to combine and artifact-put to each worker per request —
/// and batches are small, so frames, artifact transport and the merge are
/// a visible share.
class FleetSweep : public Workload {
public:
  using Workload::Workload;

  /// Evolution time per model: both come out at about 6k rotations per
  /// shot (Na+ at T = 1, SYK-1 at T = 0.5), so requests cost alike and
  /// batches stay small enough that serving is a visible share.
  static double timeFor(const std::string &Model) {
    return Model == "SYK-1" ? 0.5 : 1.0;
  }
  static constexpr double Ratios[] = {0.2, 0.4, 0.6, 0.8};
  static constexpr size_t NumRatios = sizeof(Ratios) / sizeof(Ratios[0]);
  /// In-process runs match the fleet's four concurrent ranges.
  static constexpr unsigned ReferenceJobs = 4;

  ~FleetSweep() override { tearDown(); }

  bool setUp(RunRecord &Rec) override {
    for (const char *Name : {"Na+", "SYK-1"})
      Models.emplace_back(Name, registryModel(Name));
    Coordinator = std::make_unique<SimulationService>(fleetServiceOptions());
    Reference = std::make_unique<SimulationService>(fleetServiceOptions());
    std::string Error;
    for (int I = 0; I < 2; ++I) {
      Workers.push_back(std::make_unique<LoopbackWorker>());
      if (!Workers.back()->start(&Error)) {
        Rec.fail("daemon start failed: " + Error);
        return false;
      }
      HostPorts.push_back(Workers.back()->hostPort());
      std::optional<server::DaemonClient> Client =
          server::DaemonClient::connectTo(HostPorts.back(), &Error);
      if (!Client) {
        Rec.fail("connect to " + HostPorts.back() + " failed: " + Error);
        return false;
      }
      Health.push_back(std::move(*Client));
    }
    return true;
  }

  void beginTimedPhase() override {
    CoordCache = Coordinator->stats();
    for (auto &W : Workers)
      WorkerCache.push_back(W->Service.stats());
    if (Opts.Trace)
      StatsBefore = collectServerStats();
  }

  size_t passSize() const override { return Models.size() * NumRatios; }

  void runTask(size_t Index, RunRecord &Rec) override {
    const size_t InPass = Index % passSize();
    const auto &[Name, H] = Models[InPass / NumRatios];
    // Each request's GC share is jittered off the sweep point so no two
    // requests of a run share a mix (and an alias bundle).
    const double Ratio =
        Ratios[InPass % NumRatios] + 0.002 * unitDraw(Opts.Seed, Index);
    ChannelMix Mix;
    Mix.WQd = 1.0 - Ratio;
    Mix.WGc = Ratio;
    Mix.WRp = 0.0;
    TaskSpec Spec = samplingSpec(H, Mix);
    Spec.Time = timeFor(Name);
    Spec.Shots = 32;
    Spec.Jobs = 1;
    Spec.Seed = mixSeed(Opts.Seed, Index);
    Spec.Evaluate.FidelityColumns = 2;
    Spec.Evaluate.ColumnSeed = mixSeed(Opts.Seed, 0xC0);
    char Group[64];
    std::snprintf(Group, sizeof(Group), "%s/gc=%g", Name.c_str(),
                  Ratios[InPass % NumRatios]);

    ShardOptions SO;
    SO.ShardCount = 4;
    SO.Workers = HostPorts;
    SO.SharedService = Coordinator.get();
    SO.WorkDir = (std::filesystem::path(Opts.WorkDir) /
                  ("request-" + std::to_string(Index)))
                     .string();
    std::error_code EC;
    std::filesystem::remove_all(SO.WorkDir, EC);

    Rec.beginTask();
    const ServiceCounters CoordBefore = ServiceCounters::of(*Coordinator);
    std::vector<ServiceCounters> WorkersBefore;
    for (auto &W : Workers)
      WorkersBefore.push_back(ServiceCounters::of(W->Service));
    if (Opts.Trace)
      traceBeforeRequest(Spec, Rec);
    std::string Error;
    ShardReport Report;
    const Clock::time_point Submitted = Clock::now();
    std::optional<TaskResult> R =
        ShardCoordinator(SO).run(Spec, &Error, &Report);
    const double Wall = secondsBetween(Submitted, Clock::now());
    Rec.TaskSeconds.push_back(Wall);
    Rec.addServiceStats(*Coordinator, CoordBefore);
    for (size_t I = 0; I < Workers.size(); ++I)
      Rec.addServiceStats(Workers[I]->Service, WorkersBefore[I]);
    std::filesystem::remove_all(SO.WorkDir, EC);
    if (!R) {
      Rec.fail(std::string(Group) + ": fleet request failed: " + Error);
      Rec.endTask();
      return;
    }
    recordOutputs(Spec, *R, Group, Rec);
    std::optional<double> ReferenceSeconds =
        checkRequest(Spec, *R, Report, Group, Rec);
    if (Opts.Trace) {
      for (const FleetWorkerStats &W : Report.Fleet.Workers) {
        Rec.Layers.add("fleet.ranges", static_cast<double>(W.RangesDispatched));
        Rec.Layers.add("fleet.redispatched",
                       static_cast<double>(W.RangesRedispatched));
        Rec.Layers.add("fleet.fetch_misses",
                       static_cast<double>(W.FetchMisses));
        Rec.Layers.add("fleet.artifact_bytes",
                       static_cast<double>(W.ArtifactBytesServed));
        Rec.Layers.add("fleet.worker_eval_cpu_s", W.EvalSeconds);
      }
      // The replay runs in-process with the fleet's parallelism, like the
      // reference run it is the traced counterpart of.
      TaskSpec Local = Spec;
      Local.Jobs = ReferenceJobs;
      if (ReferenceSeconds)
        replayAndCompare(Local, *R, Wall, *ReferenceSeconds, Cache, Rec);
    }
    Rec.endTask();
  }

  void finish(RunRecord &Rec) override {
    // The one-solve contract: the coordinator solved Pgc once per
    // Hamiltonian of the run, the workers never.
    size_t CoordSolves =
        Coordinator->stats().GCSolveMisses - CoordCache.GCSolveMisses;
    // A pass sends every ratio of one model before the next model's.
    size_t Seen =
        std::min(Models.size(), (Rec.Attempted + NumRatios - 1) / NumRatios);
    if (CoordSolves != Seen)
      Rec.fail("coordinator solved Pgc " + std::to_string(CoordSolves) +
               " times for " + std::to_string(Seen) + " Hamiltonians");
    for (size_t I = 0; I < Workers.size(); ++I)
      if (Workers[I]->Service.stats().GCSolveMisses !=
          WorkerCache[I].GCSolveMisses)
        Rec.fail("worker " + HostPorts[I] + " solved an MCFP itself");
    if (Opts.Trace) {
      std::vector<json::Value> After = collectServerStats();
      double PeakQueue = 0.0, Failed = 0.0;
      for (size_t I = 0; I < After.size() && I < StatsBefore.size(); ++I) {
        const json::Value *A = After[I].find("server");
        const json::Value *B = StatsBefore[I].find("server");
        if (!A || !B) {
          Rec.fail("worker " + HostPorts[I] + " stats frame lacks 'server'");
          continue;
        }
        auto Field = [](const json::Value *V, const char *Key) {
          const json::Value *F = V->find(Key);
          return F ? F->asDouble() : 0.0;
        };
        PeakQueue = std::max(PeakQueue, Field(A, "peak_queue_depth"));
        Failed += Field(A, "failed") - Field(B, "failed");
      }
      Rec.Layers.add("sched.peak_queue", PeakQueue);
      Rec.Layers.add("sched.failed", Failed);
    }
    tearDown();
  }

  ChannelMix oracleMix() const override { return *ChannelMix::preset("gc"); }

  void tearDown() override {
    Health.clear();
    Workers.clear(); // each destructor drains and joins its daemon
    HostPorts.clear();
    WorkerCache.clear();
    Models.clear();
    Coordinator.reset();
    Reference.reset();
    Cache = ReplayCache();
  }

private:

  std::vector<json::Value> collectServerStats() {
    std::vector<json::Value> Out;
    for (server::DaemonClient &C : Health) {
      std::optional<json::Value> V = C.serverStats();
      Out.push_back(V ? std::move(*V) : json::Value::object());
    }
    return Out;
  }

  /// Health round trips, then the coordinator-side prewarm and export the
  /// coordinator itself is about to make (its own calls then hit the warm
  /// store).
  void traceBeforeRequest(const TaskSpec &Spec, RunRecord &Rec) {
    for (server::DaemonClient &C : Health) {
      const Clock::time_point Begin = Clock::now();
      std::string Error;
      if (!C.health(&Error))
        Rec.fail("health round trip failed: " + Error);
      Rec.HealthRttSeconds.push_back(secondsBetween(Begin, Clock::now()));
    }
    std::string Error;
    {
      Span S(Rec.Layers, "fleet.prewarm_s");
      if (!Coordinator->prewarm(Spec, &Error))
        Rec.fail("coordinator prewarm failed: " + Error);
    }
    Span S(Rec.Layers, "fleet.export_s");
    if (!Coordinator->exportArtifacts(Spec, &Error))
      Rec.fail("coordinator export failed: " + Error);
  }

  /// The merged fleet result must equal an in-process run of the same
  /// spec bit for bit, and the coordinator's matrix must pass the
  /// independent check. Returns the in-process run's wall time.
  std::optional<double> checkRequest(const TaskSpec &Spec, const TaskResult &R,
                                     const ShardReport &Report,
                                     const std::string &Group, RunRecord &Rec) {
    for (const FleetWorkerStats &W : Report.Fleet.Workers)
      if (!W.Alive)
        Rec.fail(Group + ": worker " + W.HostPort + " was dropped");
    TaskSpec Local = Spec;
    Local.Jobs = ReferenceJobs;
    std::string Error;
    const Clock::time_point Begin = Clock::now();
    std::optional<TaskResult> Ref = Reference->run(Local, &Error);
    const double RefSeconds = secondsBetween(Begin, Clock::now());
    if (!Ref) {
      Rec.fail(Group + ": in-process reference failed: " + Error);
      return std::nullopt;
    }
    if (Ref->Batch.batchHash() != R.Batch.batchHash())
      Rec.fail(Group + ": fleet batch hash differs from the in-process run");
    else if (Ref->ShotFidelities.size() != R.ShotFidelities.size())
      Rec.fail(Group + ": fleet fidelity count differs");
    else
      for (size_t I = 0; I < R.ShotFidelities.size(); ++I)
        if (serial::doubleBits(Ref->ShotFidelities[I]) !=
            serial::doubleBits(R.ShotFidelities[I])) {
          Rec.fail(Group + ": fleet fidelity hex differs at shot " +
                   std::to_string(I));
          break;
        }
    checkAgainstGraph(*Coordinator, Spec, R, Group, Rec);
    return RefSeconds;
  }

  std::vector<std::pair<std::string, Hamiltonian>> Models;
  std::unique_ptr<SimulationService> Coordinator;
  std::unique_ptr<SimulationService> Reference;
  std::vector<std::unique_ptr<LoopbackWorker>> Workers;
  std::vector<std::string> HostPorts;
  std::vector<server::DaemonClient> Health;
  ReplayCache Cache;
  /// Cache counters at the start of the timed phase, for the one-solve
  /// contract.
  CacheStats CoordCache;
  std::vector<CacheStats> WorkerCache;
  std::vector<json::Value> StatsBefore;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const Options &Opts) {
  if (Opts.Workload == "compile-cold")
    return std::make_unique<CompileCold>(Opts);
  if (Opts.Workload == "time-sweep")
    return std::make_unique<TimeSweep>(Opts);
  if (Opts.Workload == "eval-warm")
    return std::make_unique<EvalWarm>(Opts);
  if (Opts.Workload == "fleet-sweep")
    return std::make_unique<FleetSweep>(Opts);
  return nullptr;
}

} // namespace perfbench
