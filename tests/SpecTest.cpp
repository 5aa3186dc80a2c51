//===- tests/SpecTest.cpp - TaskSpec goldens and decoder mutation ---------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins TaskSpec's two compatibility surfaces against goldens minted before
// the field table existed (SpecGoldens.inc):
//   * contentKey: every cache entry and shard manifest on disk is keyed by
//     it, so the key of every spec in the matrix must not move;
//   * marqsim-spec-v1: every frame an older peer sends must decode to the
//     same spec, and today's frames must carry the same members.
// The matrix covers the default spec, every preset mix, a custom mix,
// fp32, each noise channel in each mode, the CDF sampler, Trotter orders
// 1/2/4 with every term order, random-order Trotter, SparSto, non-default
// MCFP options, and non-default lowering/evaluation/batch knobs; each spec
// carries a small inline Hamiltonian so its frame stays short.
// Then drives TaskSpec::fromJson with seeded mutations of those frames:
// every mutant must either be rejected with an error or survive a re-encode
// with its contentKey intact.
//
//===----------------------------------------------------------------------===//

#include "service/SimulationService.h"
#include "service/TaskSpec.h"
#include "support/CommandLine.h"
#include "support/Json.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

using namespace marqsim;

namespace {

struct SpecGolden {
  const char *Name;
  uint64_t Key;
  const char *Frame;
};

const SpecGolden Goldens[] = {
#include "SpecGoldens.inc"
};

Hamiltonian smallHamiltonian() {
  return Hamiltonian::parse({{0.75, "XZI"}, {-0.3, "IYY"}, {0.125, "ZZX"}});
}

/// A spec parsed from CLI flags (source: a placeholder file path, replaced
/// by the inline operator so toJson needs no filesystem).
TaskSpec fromFlags(std::vector<const char *> Args) {
  Args.insert(Args.begin(), {"prog", "h.txt"});
  CommandLine CL(static_cast<int>(Args.size()), Args.data());
  TaskSpec Spec = *TaskSpec::fromCommandLine(CL);
  Spec.Source = HamiltonianSource::fromHamiltonian(smallHamiltonian());
  return Spec;
}

TaskSpec trotter(TaskMethod M, unsigned Order, TermOrderKind Kind) {
  TaskSpec Spec = fromFlags({});
  Spec.Method = M;
  Spec.TrotterOrder = Order;
  Spec.Order = Kind;
  Spec.TrotterReps = 3;
  return Spec;
}

std::vector<std::pair<std::string, TaskSpec>> specMatrix() {
  std::vector<std::pair<std::string, TaskSpec>> M;
  TaskSpec Default;
  Default.Source = HamiltonianSource::fromHamiltonian(smallHamiltonian());
  M.emplace_back("default", Default);
  M.emplace_back("cli-default", fromFlags({}));
  M.emplace_back("baseline", fromFlags({"--config=baseline"}));
  M.emplace_back("gc", fromFlags({"--config=gc"}));
  M.emplace_back("gc-rp", fromFlags({"--config=gc-rp"}));
  M.emplace_back("custom-mix", fromFlags({"--qd=1", "--gc=3", "--rp=0.5"}));
  M.emplace_back("knobs", fromFlags({"--time=0.7311", "--epsilon=0.031",
                                     "--rounds=5", "--perturb-seed=65261",
                                     "--seed=9", "--shots=3", "--jobs=2",
                                     "--eval-jobs=3", "--columns=2"}));
  M.emplace_back("fp32", fromFlags({"--precision=fp32", "--columns=4"}));
  for (const char *Channel : {"depolarizing", "phase-flip",
                              "amplitude-damping"})
    for (const char *Mode : {"stochastic", "density"}) {
      std::string Noise = std::string("--noise=") + Channel;
      std::string NoiseMode = std::string("--noise-mode=") + Mode;
      M.emplace_back(std::string("noise-") + Channel + "-" + Mode,
                     fromFlags({Noise.c_str(), NoiseMode.c_str(),
                                "--noise-prob=0.02", "--noise-2q-factor=1.5",
                                "--columns=3"}));
    }
  // A selected channel at zero probability is inert: same key as noiseless.
  TaskSpec Inert = fromFlags({"--noise=depolarizing", "--columns=1"});
  M.emplace_back("noise-inert", Inert);
  M.emplace_back("cdf", fromFlags({"--cdf"}));
  const std::pair<const char *, TermOrderKind> Orders[] = {
      {"given", TermOrderKind::Given},
      {"lexicographic", TermOrderKind::Lexicographic},
      {"magnitude-descending", TermOrderKind::MagnitudeDescending},
      {"greedy-matched", TermOrderKind::GreedyMatched}};
  for (unsigned Order : {1u, 2u, 4u})
    for (const auto &[Name, Kind] : Orders)
      M.emplace_back("trotter-" + std::to_string(Order) + "-" + Name,
                     trotter(TaskMethod::Trotter, Order, Kind));
  M.emplace_back("random-order-trotter",
                 trotter(TaskMethod::RandomOrderTrotter, 1,
                         TermOrderKind::Given));
  TaskSpec SparSto = trotter(TaskMethod::SparSto, 1, TermOrderKind::Given);
  SparSto.SparStoKeepScale = 2.25;
  M.emplace_back("sparsto", SparSto);
  TaskSpec Flow = fromFlags({"--config=gc-rp"});
  Flow.Flow.ProbScale = 500'000'000;
  Flow.Flow.CostScale = 3;
  M.emplace_back("flow", Flow);
  TaskSpec Knobs = fromFlags({});
  Knobs.Lowering.Emit.CrossCancellation = false;
  Knobs.Lowering.UseCDFSampler = true;
  Knobs.Evaluate.ColumnSeed = 0xFEEDFACECAFEBEEFull;
  Knobs.Evaluate.ExportShotZero = true;
  Knobs.Evaluate.DumpDot = true;
  Knobs.Evaluate.KeepResults = true;
  Knobs.Seed = 0x8000000000000001ull;
  M.emplace_back("lowering-evaluate", Knobs);
  TaskSpec Inline = fromFlags({});
  Inline.Source = HamiltonianSource::fromHamiltonian(Hamiltonian::parse(
      {{1.0, "IIZY"}, {0.8, "XXII"}, {-0.6, "ZXZY"}, {0.1 + 0.025, "IZZX"}}));
  M.emplace_back("inline-source", Inline);
  return M;
}

/// The raw (uncanonicalized) operator a spec's source resolves to.
Hamiltonian rawHamiltonian(const TaskSpec &Spec) {
  std::optional<Hamiltonian> H = SimulationService::resolveHamiltonian(
      Spec.Source, nullptr, /*Canonicalize=*/false);
  EXPECT_TRUE(H);
  return H ? *H : Hamiltonian();
}

/// Every public field of \p A and \p B, doubles compared bit for bit.
void expectSameSpec(const TaskSpec &A, const TaskSpec &B) {
  auto Bits = [](double D) { return serial::doubleBits(D); };
  EXPECT_EQ(Bits(A.Mix.WQd), Bits(B.Mix.WQd));
  EXPECT_EQ(Bits(A.Mix.WGc), Bits(B.Mix.WGc));
  EXPECT_EQ(Bits(A.Mix.WRp), Bits(B.Mix.WRp));
  EXPECT_EQ(A.PerturbRounds, B.PerturbRounds);
  EXPECT_EQ(A.PerturbSeed, B.PerturbSeed);
  EXPECT_EQ(A.Flow.ProbScale, B.Flow.ProbScale);
  EXPECT_EQ(A.Flow.CostScale, B.Flow.CostScale);
  EXPECT_EQ(A.Method, B.Method);
  EXPECT_EQ(Bits(A.Time), Bits(B.Time));
  EXPECT_EQ(Bits(A.Epsilon), Bits(B.Epsilon));
  EXPECT_EQ(A.UseCDF, B.UseCDF);
  EXPECT_EQ(A.TrotterReps, B.TrotterReps);
  EXPECT_EQ(A.TrotterOrder, B.TrotterOrder);
  EXPECT_EQ(A.Order, B.Order);
  EXPECT_EQ(Bits(A.SparStoKeepScale), Bits(B.SparStoKeepScale));
  EXPECT_EQ(A.Shots, B.Shots);
  EXPECT_EQ(A.Jobs, B.Jobs);
  EXPECT_EQ(A.Seed, B.Seed);
  EXPECT_EQ(A.EvalJobs, B.EvalJobs);
  EXPECT_EQ(A.Precision, B.Precision);
  EXPECT_EQ(A.Noise.Kind, B.Noise.Kind);
  EXPECT_EQ(Bits(A.Noise.Prob), Bits(B.Noise.Prob));
  EXPECT_EQ(Bits(A.Noise.TwoQubitFactor), Bits(B.Noise.TwoQubitFactor));
  EXPECT_EQ(A.Noise.Mode, B.Noise.Mode);
  EXPECT_EQ(A.Lowering.Emit.CrossCancellation,
            B.Lowering.Emit.CrossCancellation);
  EXPECT_EQ(A.Lowering.UseCDFSampler, B.Lowering.UseCDFSampler);
  EXPECT_EQ(A.Evaluate.FidelityColumns, B.Evaluate.FidelityColumns);
  EXPECT_EQ(A.Evaluate.ColumnSeed, B.Evaluate.ColumnSeed);
  EXPECT_EQ(A.Evaluate.ExportShotZero, B.Evaluate.ExportShotZero);
  EXPECT_EQ(A.Evaluate.DumpDot, B.Evaluate.DumpDot);
  EXPECT_EQ(A.Evaluate.KeepResults, B.Evaluate.KeepResults);

  Hamiltonian HA = rawHamiltonian(A), HB = rawHamiltonian(B);
  ASSERT_EQ(HA.numQubits(), HB.numQubits());
  ASSERT_EQ(HA.numTerms(), HB.numTerms());
  for (size_t I = 0; I < HA.numTerms(); ++I) {
    EXPECT_EQ(Bits(HA.term(I).Coeff), Bits(HB.term(I).Coeff));
    EXPECT_EQ(HA.term(I).String, HB.term(I).String);
  }
}

/// \p V with every object's members sorted by name: the spec format fixes
/// member names and nesting, not member order.
json::Value sortedMembers(const json::Value &V) {
  if (const std::vector<json::Member> *Members = V.members()) {
    std::vector<json::Member> Sorted = *Members;
    std::sort(Sorted.begin(), Sorted.end(),
              [](const json::Member &A, const json::Member &B) {
                return A.first < B.first;
              });
    json::Value Out = json::Value::object();
    for (const json::Member &M : Sorted)
      Out.set(M.first, sortedMembers(M.second));
    return Out;
  }
  if (const std::vector<json::Value> *Items = V.items()) {
    json::Value Out = json::Value::array();
    for (const json::Value &Item : *Items)
      Out.push(sortedMembers(Item));
    return Out;
  }
  return V;
}

json::Value parseFrame(const char *Text) {
  std::string Error;
  std::optional<json::Value> V = json::Value::parse(Text, &Error);
  EXPECT_TRUE(V) << Error;
  return V ? *V : json::Value();
}

} // namespace

TEST(TaskSpecGoldenTest, ContentKeysMatchParentGoldens) {
  std::vector<std::pair<std::string, TaskSpec>> Matrix =
      specMatrix();
  ASSERT_EQ(Matrix.size(), std::size(Goldens));
  for (size_t I = 0; I < Matrix.size(); ++I) {
    SCOPED_TRACE(Matrix[I].first);
    EXPECT_EQ(Matrix[I].first, Goldens[I].Name);
    EXPECT_EQ(Matrix[I].second.contentKey(), Goldens[I].Key);
  }
}

TEST(TaskSpecGoldenTest, ParentFramesDecodeToTheSameSpec) {
  std::vector<std::pair<std::string, TaskSpec>> Matrix =
      specMatrix();
  ASSERT_EQ(Matrix.size(), std::size(Goldens));
  for (size_t I = 0; I < Matrix.size(); ++I) {
    SCOPED_TRACE(Matrix[I].first);
    std::string Error;
    std::optional<TaskSpec> Decoded =
        TaskSpec::fromJson(parseFrame(Goldens[I].Frame), &Error);
    ASSERT_TRUE(Decoded) << Error;
    EXPECT_EQ(Decoded->contentKey(), Goldens[I].Key);
    expectSameSpec(*Decoded, Matrix[I].second);
  }
}

TEST(TaskSpecGoldenTest, FramesKeepTheirMembers) {
  // Today's frame for each spec carries the parent frame's members and
  // values; only their order may differ.
  std::vector<std::pair<std::string, TaskSpec>> Matrix =
      specMatrix();
  ASSERT_EQ(Matrix.size(), std::size(Goldens));
  for (size_t I = 0; I < Matrix.size(); ++I) {
    SCOPED_TRACE(Matrix[I].first);
    std::optional<json::Value> Frame = Matrix[I].second.toJson();
    ASSERT_TRUE(Frame);
    EXPECT_EQ(sortedMembers(*Frame).dump(),
              sortedMembers(parseFrame(Goldens[I].Frame)).dump());
  }
}

//===----------------------------------------------------------------------===//
// Seeded mutation of TaskSpec::fromJson
//===----------------------------------------------------------------------===//

namespace {

/// Values chosen to sit on or past the edge of some field's range.
json::Value edgeValue(RNG &Rng) {
  switch (Rng.next() % 16) {
  case 0:
    return -1;
  case 1:
    return int64_t(1) << 32;
  case 2:
    return (int64_t(1) << 32) + 1;
  case 3:
    return std::numeric_limits<int64_t>::max();
  case 4:
    return std::numeric_limits<int64_t>::min();
  case 5:
    return 0;
  case 6:
    return "7ff8000000000000"; // quiet NaN
  case 7:
    return "7ff0000000000000"; // +Inf
  case 8:
    return "fff0000000000000"; // -Inf
  case 9:
    return "8000000000000000"; // -0.0
  case 10:
    return "ffffffffffffffff";
  case 11:
    return "0000000000000000";
  case 12:
    return "7ff8";
  case 13:
    return true;
  case 14:
    return json::Value::object();
  default:
    return nullptr;
  }
}

/// One structural mutation somewhere inside \p V: delete a member, replace
/// a value with an edge value, or splice in the same member of \p Donor.
json::Value mutateValue(const json::Value &V, const json::Value *Donor,
                        RNG &Rng) {
  if (const std::vector<json::Member> *Members = V.members()) {
    if (Members->empty())
      return edgeValue(Rng);
    const size_t Pick = Rng.next() % Members->size();
    const uint64_t Op = Rng.next() % 4;
    json::Value Out = json::Value::object();
    for (size_t I = 0; I < Members->size(); ++I) {
      const json::Member &M = (*Members)[I];
      if (I != Pick) {
        Out.set(M.first, M.second);
        continue;
      }
      const json::Value *Other = Donor ? Donor->find(M.first) : nullptr;
      if (Op == 0)
        continue; // delete
      if (Op == 1)
        Out.set(M.first, edgeValue(Rng));
      else if (Op == 2 && Other)
        Out.set(M.first, *Other);
      else
        Out.set(M.first, mutateValue(M.second, Other, Rng));
    }
    return Out;
  }
  if (const std::vector<json::Value> *Items = V.items()) {
    if (Items->empty() || Rng.next() % 8 == 0)
      return edgeValue(Rng);
    const size_t Pick = Rng.next() % Items->size();
    json::Value Out = json::Value::array();
    for (size_t I = 0; I < Items->size(); ++I)
      Out.push(I == Pick ? mutateValue((*Items)[I], nullptr, Rng)
                         : (*Items)[I]);
    return Out;
  }
  return edgeValue(Rng);
}

/// One byte-level mutation of \p Text: a bit flip, a truncation, or a
/// splice of a prefix of \p Text with a suffix of \p Other.
std::string mutateText(std::string Text, const std::string &Other,
                       RNG &Rng) {
  switch (Rng.next() % 3) {
  case 0:
    Text[Rng.next() % Text.size()] ^= static_cast<char>(1u << (Rng.next() % 8));
    return Text;
  case 1:
    return Text.substr(0, Rng.next() % Text.size());
  default:
    return Text.substr(0, Rng.next() % Text.size()) +
           Other.substr(Rng.next() % Other.size());
  }
}

struct FuzzOutcome {
  size_t Accepted = 0;
  size_t Rejected = 0;
};

/// Decodes one mutated frame text. A rejected frame must carry an error;
/// an accepted one must re-encode and decode to the same contentKey.
void checkFrame(const std::string &Text, FuzzOutcome &Outcome) {
  std::optional<json::Value> V = json::Value::parse(Text);
  if (!V) {
    ++Outcome.Rejected;
    return;
  }
  std::string Error;
  std::optional<TaskSpec> Spec = TaskSpec::fromJson(*V, &Error);
  if (!Spec) {
    EXPECT_FALSE(Error.empty()) << Text;
    ++Outcome.Rejected;
    return;
  }
  ++Outcome.Accepted;
  std::optional<json::Value> Again = Spec->toJson(&Error);
  ASSERT_TRUE(Again) << Error << "\n" << Text;
  std::optional<json::Value> Reparsed = json::Value::parse(Again->dump());
  ASSERT_TRUE(Reparsed) << Text;
  std::optional<TaskSpec> Back = TaskSpec::fromJson(*Reparsed, &Error);
  ASSERT_TRUE(Back) << Error << "\n" << Text;
  EXPECT_EQ(Back->contentKey(), Spec->contentKey()) << Text;
}

} // namespace

TEST(CacheLimitFlagTest, TakesOneWholeFiniteNumber) {
  auto Parse = [](std::vector<const char *> Args, std::string *Error) {
    Args.insert(Args.begin(), "prog");
    CommandLine CL(static_cast<int>(Args.size()), Args.data());
    return parseCacheLimitBytes(CL, Error);
  };
  std::string Error;
  EXPECT_EQ(Parse({}, &Error), size_t(0));
  EXPECT_EQ(Parse({"--cache-limit-mb=0"}, &Error), size_t(0));
  EXPECT_EQ(Parse({"--cache-limit-mb=2"}, &Error), size_t(2) << 20);
  EXPECT_EQ(Parse({"--cache-limit-mb", "0.5"}, &Error), size_t(1) << 19);
  // A sub-byte budget is the tightest cap, never "unbounded".
  EXPECT_EQ(Parse({"--cache-limit-mb=0.000001"}, &Error), size_t(2));
  EXPECT_EQ(Parse({"--cache-limit-mb=1e-12"}, &Error), size_t(1));
  EXPECT_EQ(Parse({"--cache-limit-mb=1e300"}, &Error), size_t(9.0e18));
  for (const char *Bad :
       {"--cache-limit-mb=abc", "--cache-limit-mb=nan", "--cache-limit-mb=inf",
        "--cache-limit-mb=-1", "--cache-limit-mb=0.000001x",
        "--cache-limit-mb=2 ", "--cache-limit-mb=0x"}) {
    Error.clear();
    EXPECT_FALSE(Parse({Bad}, &Error)) << Bad;
    EXPECT_NE(Error.find("--cache-limit-mb"), std::string::npos) << Bad;
  }
}

// flow.prob_scale and flow.cost_scale stop where the MCFP builders are
// provably exact and overflow-free (core/TransitionBuilders.h): the
// maximum passes both front doors, one more fails both, naming the path.
TEST(FlowScaleBoundTest, MaximumPassesAndOneMoreFailsNamingThePath) {
  struct Bound {
    const char *Path;
    int64_t MCFPOptions::*Member;
    int64_t Max;
  };
  for (const Bound &B :
       {Bound{"flow.prob_scale", &MCFPOptions::ProbScale,
              MCFPOptions::MaxProbScale},
        Bound{"flow.cost_scale", &MCFPOptions::CostScale,
              MCFPOptions::MaxCostScale}}) {
    for (int64_t Value : {B.Max, B.Max + 1}) {
      TaskSpec Spec = fromFlags({});
      Spec.Flow.*B.Member = Value;
      std::string Error;
      const bool Valid = Spec.validate(&Error);
      std::optional<json::Value> Frame = Spec.toJson(&Error);
      ASSERT_TRUE(Frame) << Error;
      std::string JsonError;
      std::optional<TaskSpec> Back = TaskSpec::fromJson(*Frame, &JsonError);
      if (Value == B.Max) {
        EXPECT_TRUE(Valid) << Error;
        ASSERT_TRUE(Back) << JsonError;
        EXPECT_EQ((*Back).Flow.*B.Member, B.Max) << B.Path;
        EXPECT_EQ(Back->contentKey(), Spec.contentKey()) << B.Path;
      } else {
        EXPECT_FALSE(Valid) << B.Path;
        EXPECT_NE(Error.find(B.Path), std::string::npos) << Error;
        EXPECT_FALSE(Back) << B.Path;
        EXPECT_NE(JsonError.find(B.Path), std::string::npos) << JsonError;
      }
    }
  }
}

TEST(TaskSpecFuzzTest, MutatedFramesFailCleanlyOrKeepTheirKey) {
  std::vector<json::Value> Seeds;
  std::vector<std::string> Texts;
  for (const SpecGolden &G : Goldens) {
    Seeds.push_back(parseFrame(G.Frame));
    Texts.push_back(G.Frame);
  }
  // A fixed seed and budget: the same mutants on every run.
  RNG Rng(0x5EC0DE);
  constexpr size_t Iterations = 20000;
  FuzzOutcome Outcome;
  for (size_t I = 0; I < Iterations && !HasFatalFailure(); ++I) {
    const size_t A = Rng.next() % Seeds.size();
    const size_t B = Rng.next() % Seeds.size();
    json::Value Mutant = Seeds[A];
    for (uint64_t Rounds = 1 + Rng.next() % 3; Rounds > 0; --Rounds)
      Mutant = mutateValue(Mutant, &Seeds[B], Rng);
    std::string Text = Mutant.dump();
    if (Rng.next() % 4 == 0)
      Text = mutateText(Text, Texts[B], Rng);
    checkFrame(Text, Outcome);
  }
  // Both paths must be exercised, or the run proves nothing.
  EXPECT_GT(Outcome.Accepted, Iterations / 50);
  EXPECT_GT(Outcome.Rejected, Iterations / 2);
}
