//===- perfbench/src/Replay.cpp - Traced replay of SimulationService::run -===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "core/TransitionBuilders.h"
#include "sim/NoiseModel.h"
#include "support/Serial.h"

using namespace marqsim;

namespace perfbench {

namespace {

/// Where the current batch worker's shot stands: set when produce()
/// starts and returns, read by the per-shot hook on the same thread
/// (compileBatch runs produce, materializePlan and the hook of one shot
/// back to back on one worker).
struct ShotClock {
  Clock::time_point Start;
  Clock::time_point ProduceEnd;
};
thread_local ShotClock CurrentShot;

/// Forwards to the service's sampling strategy, timing produce() as the
/// walk span.
class TracedStrategy : public ScheduleStrategy {
public:
  TracedStrategy(std::shared_ptr<const ScheduleStrategy> Inner,
                 LayerTotals &Trace)
      : Inner(std::move(Inner)), Trace(Trace) {}

  std::string name() const override { return Inner->name(); }
  bool isDeterministic() const override { return Inner->isDeterministic(); }
  const Hamiltonian &hamiltonian() const override {
    return Inner->hamiltonian();
  }
  ShotPlan produce(ShotContext &Ctx) const override {
    CurrentShot.Start = Clock::now();
    ShotPlan Plan = Inner->produce(Ctx);
    CurrentShot.ProduceEnd = Clock::now();
    Trace.add("walk.s", secondsBetween(CurrentShot.Start,
                                       CurrentShot.ProduceEnd));
    Trace.add("walk.steps", static_cast<double>(Plan.Sequence.size()));
    return Plan;
  }

private:
  std::shared_ptr<const ScheduleStrategy> Inner;
  LayerTotals &Trace;
};

std::string hexOf(double V) { return serial::hex16(serial::doubleBits(V)); }

std::string flowKey(uint64_t Fingerprint, const MCFPOptions &Flow) {
  return serial::hex16(Fingerprint) + "/" + std::to_string(Flow.ProbScale) +
         "/" + std::to_string(Flow.CostScale);
}

} // namespace

ReplayResult replayTask(const TaskSpec &Spec, ReplayCache &Cache,
                        LayerTotals &Trace, MatrixCheckStats *MatrixStats) {
  ReplayResult Out;
  auto Fail = [&](std::string Message) {
    Out.Failures.push_back(std::move(Message));
  };
  const Clock::time_point Begin = Clock::now();
  LayerTotals Local;

  if (Spec.Method != TaskMethod::Sampling ||
      (Spec.Noise.enabled() && Spec.Noise.Mode != NoiseMode::Stochastic)) {
    Fail("replay covers sampling tasks with stochastic or no noise only");
    return Out;
  }

  std::string Error;
  std::optional<Hamiltonian> Resolved;
  {
    Span S(Local, "resolve.s");
    Resolved = SimulationService::resolveHamiltonian(Spec.Source, &Error);
  }
  if (!Resolved) {
    Fail("resolve: " + Error);
    return Out;
  }
  const Hamiltonian &H = *Resolved;
  const uint64_t Fingerprint = H.fingerprint();
  ChannelMix Mix = Spec.Mix;
  Mix.normalize();

  // Graph + alias bundle, keyed like store::aliasBundleKey.
  const std::string BundleKey =
      flowKey(Fingerprint, Spec.Flow) + "/" + hexOf(Mix.WQd) + "/" +
      hexOf(Mix.WGc) + "/" + hexOf(Mix.WRp) + "/" +
      std::to_string(Spec.PerturbRounds) + "/" +
      serial::hex16(Spec.PerturbSeed) + (Spec.UseCDF ? "/cdf" : "/alias");
  auto BundleIt = Cache.Bundles.find(BundleKey);
  if (BundleIt == Cache.Bundles.end()) {
    auto Component = [&](const std::string &Key, const char *SpanName,
                         const char *CountName, auto Build) {
      auto It = Cache.Components.find(Key);
      if (It != Cache.Components.end())
        return It->second;
      std::shared_ptr<const TransitionMatrix> P;
      {
        Span S(Local, SpanName);
        P = std::make_shared<const TransitionMatrix>(Build());
      }
      Local.add(CountName, 1.0);
      if (auto Bad = checkTransitionMatrix(H, *P, MatrixStats,
                                           /*RequireConnected=*/false))
        Fail(std::string(SpanName) + " component: " + *Bad);
      Cache.Components.emplace(Key, P);
      return P;
    };

    TransitionMatrix P;
    if (H.numTerms() < 2 || (Mix.WGc <= 0.0 && Mix.WRp <= 0.0)) {
      Span S(Local, "combine.s");
      P = buildQDrift(H);
    } else {
      std::shared_ptr<const TransitionMatrix> GC, RP;
      if (Mix.WGc > 0.0)
        GC = Component(flowKey(Fingerprint, Spec.Flow), "mcfp.gc.s",
                       "mcfp.gc.count",
                       [&] { return buildGateCancellation(H, Spec.Flow); });
      if (Mix.WRp > 0.0)
        RP = Component(flowKey(Fingerprint, Spec.Flow) + "/" +
                           std::to_string(Spec.PerturbRounds) + "/" +
                           serial::hex16(Spec.PerturbSeed),
                       "mcfp.rp.s", "mcfp.rp.count", [&] {
                         RNG PerturbRng(Spec.PerturbSeed);
                         return buildRandomPerturbation(
                             H, Spec.PerturbRounds, PerturbRng, Spec.Flow);
                       });
      Span S(Local, "combine.s");
      TransitionMatrix Pqd;
      std::vector<const TransitionMatrix *> Parts;
      std::vector<double> Weights;
      if (Mix.WQd > 0.0) {
        Pqd = buildQDrift(H);
        Parts.push_back(&Pqd);
        Weights.push_back(Mix.WQd);
      }
      if (GC) {
        Parts.push_back(GC.get());
        Weights.push_back(Mix.WGc);
      }
      if (RP) {
        Parts.push_back(RP.get());
        Weights.push_back(Mix.WRp);
      }
      P = Parts.size() == 1 ? *Parts.front()
                            : TransitionMatrix::combine(Parts, Weights);
    }
    if (auto Bad = checkTransitionMatrix(H, P, MatrixStats))
      Fail("combined matrix: " + *Bad);

    ReplayCache::Bundle B;
    bool Valid;
    {
      Span S(Local, "graph.s");
      B.Graph = std::make_shared<const HTTGraph>(H, std::move(P));
      Valid = B.Graph->isValidForCompilation();
    }
    if (!Valid) {
      Fail("transition matrix failed Theorem 4.1 validation");
      return Out;
    }
    {
      Span S(Local, "alias.s");
      B.Base = std::make_shared<const SamplingStrategy>(
          B.Graph, Spec.Time, Spec.Epsilon, Spec.UseCDF);
    }
    BundleIt = Cache.Bundles.emplace(BundleKey, std::move(B)).first;
  }
  std::shared_ptr<const SamplingStrategy> Sampling;
  {
    Span S(Local, "alias.s");
    Sampling = BundleIt->second.Base->retargeted(Spec.Time, Spec.Epsilon);
  }

  std::shared_ptr<const FidelityEvaluator> Eval;
  if (Spec.Evaluate.FidelityColumns > 0) {
    const std::string EvalKey = serial::hex16(Fingerprint) + "/" +
                                hexOf(Spec.Time) + "/" +
                                std::to_string(Spec.Evaluate.FidelityColumns) +
                                "/" + serial::hex16(Spec.Evaluate.ColumnSeed);
    auto It = Cache.Evaluators.find(EvalKey);
    if (It == Cache.Evaluators.end()) {
      Span S(Local, "targets.s");
      auto Built = std::make_shared<const FidelityEvaluator>(
          H, Spec.Time, Spec.Evaluate.FidelityColumns,
          Spec.Evaluate.ColumnSeed);
      Local.add("targets.columns", static_cast<double>(Built->numColumns()));
      It = Cache.Evaluators.emplace(EvalKey, std::move(Built)).first;
    }
    Eval = It->second;
  }
  std::optional<NoiseModel> Noise;
  if (Eval && Spec.Noise.enabled())
    Noise.emplace(Spec.Noise);

  const size_t Columns = Eval ? Eval->numColumns() : 0;
  const double StateBytes =
      static_cast<double>(size_t(1) << H.numQubits()) * 16.0;
  Out.Fidelities.assign(Eval ? Spec.Shots : 0, 0.0);

  BatchRequest Req;
  Req.Strategy = std::make_shared<TracedStrategy>(Sampling, Local);
  Req.NumShots = Spec.Shots;
  Req.FirstShot = 0;
  Req.Jobs = Spec.Jobs;
  Req.EvalJobs = Spec.EvalJobs;
  Req.Seed = Spec.Seed;
  Req.Opts = Spec.Lowering;
  Req.KeepResults = Spec.Evaluate.KeepResults;
  Req.PerShot = [&](size_t Shot, const CompilationResult &R) {
    // materializePlan (and the engine's shot summary) ran between
    // produce() returning and this hook starting.
    const Clock::time_point Entry = Clock::now();
    Local.add("emit.s", secondsBetween(CurrentShot.ProduceEnd, Entry));
    Local.add("emit.gates", static_cast<double>(R.Counts.total()));
    Local.add("emit.cnots", static_cast<double>(R.Counts.CNOTs));
    Local.add("emit.cancelled_cnots",
              static_cast<double>(R.Stats.CancelledCNOTs));
    if (Eval) {
      size_t Rotations = R.Schedule.size();
      if (Noise) {
        RNG NoiseRng =
            RNG::forShot(NoiseModel::noiseStreamSeed(Spec.Seed), Shot);
        std::vector<ScheduledRotation> Noisy;
        {
          Span S(Local, "noise.inject.s");
          Noisy = Noise->injectErrors(R.Schedule, NoiseRng);
        }
        Local.add("noise.injected",
                  static_cast<double>(Noisy.size() - R.Schedule.size()));
        Rotations = Noisy.size();
        Span S(Local, "eval.s");
        Out.Fidelities[Shot] =
            Eval->stateFidelity(Noisy, Spec.EvalJobs, Spec.Precision);
      } else {
        Span S(Local, "eval.s");
        Out.Fidelities[Shot] =
            Eval->fidelity(R.Schedule, Spec.EvalJobs, Spec.Precision);
      }
      const double RotCols =
          static_cast<double>(Rotations) * static_cast<double>(Columns);
      Local.add("eval.calls", 1.0);
      Local.add("eval.rot_cols", RotCols);
      Local.add("eval.bytes_computed", RotCols * StateBytes);
    }
    Local.add("batch.busy_s", secondsBetween(CurrentShot.Start, Clock::now()));
  };

  const Clock::time_point BatchBegin = Clock::now();
  Out.Batch = CompilerEngine().compileBatch(Req);
  const double BatchSeconds = secondsBetween(BatchBegin, Clock::now());
  Local.add("batch.s", BatchSeconds);
  Local.add("batch.capacity_s",
            BatchSeconds * static_cast<double>(Out.Batch.JobsUsed));

  Out.Seconds = secondsBetween(Begin, Clock::now());
  for (const char *Name : TopLevelSpans)
    Out.LayerSeconds += Local.get(Name);
  Trace += Local;
  Out.Ok = Out.Failures.empty();
  return Out;
}

std::string compareWithService(const ReplayResult &Replay,
                               const TaskResult &Service) {
  const BatchResult &A = Replay.Batch;
  const BatchResult &B = Service.Batch;
  if (A.Shots.size() != B.Shots.size())
    return "replay compiled " + std::to_string(A.Shots.size()) +
           " shots, the service " + std::to_string(B.Shots.size());
  if (A.batchHash() != B.batchHash())
    return "replay batch hash " + serial::hex16(A.batchHash()) +
           " differs from the service's " + serial::hex16(B.batchHash());
  for (size_t I = 0; I < A.Shots.size(); ++I)
    if (A.Shots[I].Counts.CNOTs != B.Shots[I].Counts.CNOTs)
      return "shot " + std::to_string(I) + " CNOT count differs";
  if (Replay.Fidelities.size() != Service.ShotFidelities.size())
    return "replay evaluated a different number of shots";
  for (size_t I = 0; I < Replay.Fidelities.size(); ++I)
    if (serial::doubleBits(Replay.Fidelities[I]) !=
        serial::doubleBits(Service.ShotFidelities[I]))
      return "shot " + std::to_string(I) + " fidelity bits differ (" +
             hexOf(Replay.Fidelities[I]) + " vs " +
             hexOf(Service.ShotFidelities[I]) + ")";
  return {};
}

} // namespace perfbench
