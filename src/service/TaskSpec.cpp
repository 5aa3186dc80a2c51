//===- service/TaskSpec.cpp - Declarative simulation task specs --------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/TaskSpec.h"

#include "service/SimulationService.h"
#include "support/NameTable.h"
#include "support/Serial.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

using namespace marqsim;

//===----------------------------------------------------------------------===//
// The field table
//===----------------------------------------------------------------------===//
//
// One row per TaskSpec knob drives every walk over the spec: the CLI parse
// (fromCommandLine), the "marqsim-spec-v1" codec (toJson/fromJson), the
// per-field range checks (validate) and the contentKey fold. Adding a
// field means adding its row; validate() keeps only the rules that span
// fields.
//
// The wire rule mirrors the shard manifests: anything whose *bits* matter
// downstream — doubles that feed contentKey/fingerprint, 64-bit seeds — is
// a hex16 string, never a JSON number. Human-scale counts (shots, reps,
// columns) are plain ints.

namespace {

const char *const MethodNames[] = {"sampling", "trotter",
                                   "random-order-trotter", "sparsto"};
const char *const TermOrderNames[] = {"given", "lexicographic",
                                      "magnitude-descending", "greedy-matched"};

/// How a field is spelled on the wire and on the command line.
enum Kind {
  HexDouble, ///< hex16 of the IEEE-754 bits; a decimal flag
  HexWord,   ///< hex16 of a 64-bit seed; a whole-token decimal flag
  Int,       ///< a JSON integer; a whole-token decimal flag
  Bool,      ///< a JSON bool; a bare flag
  Enum,      ///< one spelling of the row's name table
};

/// The methods that use a field. Its range check and its key word apply
/// to those methods only: an unused TrotterReps on a sampling task cannot
/// change its bits, so it must not change its key.
constexpr unsigned bit(TaskMethod M) { return 1u << static_cast<unsigned>(M); }

enum Uses : unsigned {
  ForSampling = bit(TaskMethod::Sampling),
  ForTrotter = bit(TaskMethod::Trotter),
  ForSparSto = bit(TaskMethod::SparSto),
  ForTrotterFamily =
      ForTrotter | ForSparSto | bit(TaskMethod::RandomOrderTrotter),
  ForAll = ForSampling | ForTrotterFamily,
};

/// Whether a used field folds into contentKey.
enum Key {
  Never, ///< batch shape and retention: no effect on any output bit
  Always,
  /// Only when it differs from the default: fp32 fidelities are different
  /// bits, but folding a constant for fp64 would shift every key minted
  /// before the precision tier existed.
  NonDefault,
  /// Only when the noise channel is enabled, so every noiseless key
  /// minted before the noisy tier existed stays valid. Frames minted
  /// before it carry no "noise" object; its absence decodes as noiseless.
  Noisy,
};

/// The range validate() demands of a used field. A noise field is checked
/// once a channel is selected, even at probability 0.
enum Check { NoCheck, PositiveFinite, Positive, Unit, AtLeastOne };

/// A member's value as one word: the IEEE-754 bits of a double, else the
/// integer, bool or enum value. contentKey folds exactly this word.
uint64_t toWord(double D) { return serial::doubleBits(D); }
template <typename T> uint64_t toWord(T V) { return static_cast<uint64_t>(V); }
template <typename T> T fromWord(uint64_t W) { return static_cast<T>(W); }
template <> double fromWord<double>(uint64_t W) {
  return serial::bitsToDouble(W);
}

/// The largest count an integer member holds, capped so that every
/// accepted count is also a JSON integer.
template <typename T> constexpr uint64_t maxWord() {
  if constexpr (std::is_integral_v<T>)
    return std::min<uint64_t>(std::numeric_limits<T>::max(), INT64_MAX);
  else
    return 0;
}

/// The Get, Set and Max columns of the row for TaskSpec member M; the
/// _UPTO form caps an integer below its type's maximum.
#define MEMBER_UPTO(M, Max)                                                    \
  [](const TaskSpec &S) { return toWord(S.M); },                               \
      [](TaskSpec &S, uint64_t W) { S.M = fromWord<decltype(S.M)>(W); }, Max
#define MEMBER(M)                                                              \
  MEMBER_UPTO(M, maxWord<decltype(std::declval<TaskSpec>().M)>())

struct Field {
  const char *Path; ///< JSON member; "group.member" inside a nested object
  const char *Flag; ///< CLI flag without "--", or nullptr
  Kind K;
  unsigned UsedBy; ///< Uses bits
  Key Keyed;
  uint64_t (*Get)(const TaskSpec &);
  void (*Set)(TaskSpec &, uint64_t);
  uint64_t Max;         ///< largest accepted Int: the member type's maximum
  NameTable Names = {}; ///< Enum spellings
  Check Range = NoCheck;
  int64_t Min = 0; ///< smallest accepted Int
};

// Rows are in contentKey fold order: moving a keyed row re-keys every
// cache entry and manifest minted before the move.
const Field Fields[] = {
    {"method", nullptr, Enum, ForAll, Always, MEMBER(Method), MethodNames},
    {"time", "time", HexDouble, ForAll, Always, MEMBER(Time), {},
     PositiveFinite},
    {"lowering.cross_cancellation", nullptr, Bool, ForAll, Always,
     MEMBER(Lowering.Emit.CrossCancellation)},
    {"lowering.use_cdf_sampler", nullptr, Bool, ForAll, Always,
     MEMBER(Lowering.UseCDFSampler)},
    {"evaluate.fidelity_columns", "columns", Int, ForAll, Always,
     MEMBER(Evaluate.FidelityColumns)},
    {"evaluate.column_seed", nullptr, HexWord, ForAll, Always,
     MEMBER(Evaluate.ColumnSeed)},
    {"precision", "precision", Enum, ForAll, NonDefault, MEMBER(Precision),
     PrecisionNames},
    {"noise.channel", "noise", Enum, ForAll, Noisy, MEMBER(Noise.Kind),
     NoiseChannelNames},
    {"noise.prob", "noise-prob", HexDouble, ForAll, Noisy, MEMBER(Noise.Prob),
     {}, Unit},
    {"noise.two_qubit_factor", "noise-2q-factor", HexDouble, ForAll, Noisy,
     MEMBER(Noise.TwoQubitFactor), {}, PositiveFinite},
    {"noise.mode", "noise-mode", Enum, ForAll, Noisy, MEMBER(Noise.Mode),
     NoiseModeNames},
    // --config/--qd/--gc/--rp set the mix through parseChannelMix.
    {"mix.qd", nullptr, HexDouble, ForSampling, Always, MEMBER(Mix.WQd)},
    {"mix.gc", nullptr, HexDouble, ForSampling, Always, MEMBER(Mix.WGc)},
    {"mix.rp", nullptr, HexDouble, ForSampling, Always, MEMBER(Mix.WRp)},
    {"perturb_rounds", "rounds", Int, ForSampling, Always,
     MEMBER(PerturbRounds)},
    {"perturb_seed", "perturb-seed", HexWord, ForSampling, Always,
     MEMBER(PerturbSeed)},
    {"flow.prob_scale", nullptr, Int, ForSampling, Always,
     MEMBER_UPTO(Flow.ProbScale, MCFPOptions::MaxProbScale), {}, NoCheck, 1},
    {"flow.cost_scale", nullptr, Int, ForSampling, Always,
     MEMBER_UPTO(Flow.CostScale, MCFPOptions::MaxCostScale), {}, NoCheck, 1},
    {"epsilon", "epsilon", HexDouble, ForSampling, Always, MEMBER(Epsilon), {},
     PositiveFinite},
    {"use_cdf", "cdf", Bool, ForSampling, Always, MEMBER(UseCDF)},
    {"trotter_reps", nullptr, Int, ForTrotterFamily, Always,
     MEMBER(TrotterReps), {}, AtLeastOne},
    {"trotter_order", nullptr, Int, ForTrotter, Always, MEMBER(TrotterOrder)},
    {"term_order", nullptr, Enum, ForTrotter, Always, MEMBER(Order),
     TermOrderNames},
    {"sparsto_keep_scale", nullptr, HexDouble, ForSparSto, Always,
     MEMBER(SparStoKeepScale), {}, Positive},
    {"shots", "shots", Int, ForAll, Never, MEMBER(Shots), {}, AtLeastOne,
     1},
    {"jobs", "jobs", Int, ForAll, Never, MEMBER(Jobs)},
    {"eval_jobs", "eval-jobs", Int, ForAll, Never, MEMBER(EvalJobs)},
    {"seed", "seed", HexWord, ForAll, Never, MEMBER(Seed)},
    {"evaluate.export_shot_zero", nullptr, Bool, ForAll, Never,
     MEMBER(Evaluate.ExportShotZero)},
    {"evaluate.dump_dot", nullptr, Bool, ForAll, Never,
     MEMBER(Evaluate.DumpDot)},
    {"evaluate.keep_results", nullptr, Bool, ForAll, Never,
     MEMBER(Evaluate.KeepResults)},
};

#undef MEMBER
#undef MEMBER_UPTO

/// What a valid value of row F looks like, for error messages.
std::string spelling(const Field &F, bool Cli) {
  if (F.K == Int || (Cli && F.K == HexWord))
    return "an integer in [" + std::to_string(F.Min) + ", " +
           std::to_string(F.Max) + "]";
  if (F.K == Enum)
    return "one of " + F.Names.list();
  if (Cli && F.K == HexDouble)
    return "a decimal number";
  return F.K == Bool ? "a bool" : "a 16-digit hex string";
}

/// The per-field range checks, naming a failing field by its flag, or by
/// its JSON path when it has none.
bool checkFields(const TaskSpec &S, std::string *Error) {
  for (const Field &F : Fields) {
    if (!(F.UsedBy & bit(S.Method)) ||
        (F.Keyed == Noisy && S.Noise.Kind == NoiseChannelKind::None))
      continue;
    const uint64_t W = F.Get(S);
    const double X = F.K == HexDouble ? serial::bitsToDouble(W) : W;
    // Negated comparisons: NaN fails every ordered comparison, so `x <= 0`
    // forms would let --time=nan through. A NaN SparSto keep scale has
    // always passed the `x <= 0` form, and still does.
    std::string Want;
    if (F.Range == PositiveFinite && !(X > 0.0 && std::isfinite(X)))
      Want = "positive and finite";
    else if (F.Range == Positive && X <= 0.0)
      Want = "positive";
    else if (F.Range == Unit && !(X >= 0.0 && X <= 1.0))
      Want = "in [0, 1]";
    else if (F.Range == AtLeastOne && W < 1)
      Want = "at least 1";
    else if (F.K == Int && (static_cast<int64_t>(W) < F.Min || W > F.Max))
      Want = spelling(F, /*Cli=*/false); // what fromJson would accept
    if (!Want.empty())
      return detail::fail(Error, (F.Flag ? "--" + std::string(F.Flag)
                                         : std::string(F.Path)) +
                                     " must be " + Want);
  }
  return true;
}

/// Word \p W of row F as its JSON member.
json::Value encode(const Field &F, uint64_t W) {
  if (F.K == Int)
    return static_cast<int64_t>(W);
  if (F.K == Bool)
    return W != 0;
  if (F.K == Enum)
    return F.Names.name(W);
  return serial::hex16(W);
}

/// Decodes JSON member \p V of row F into \p W. False when it is absent or
/// malformed: a frame that lost a field must fail loudly, not run a subtly
/// different task.
bool decode(const Field &F, const json::Value *V, uint64_t &W) {
  if (!V)
    return false;
  switch (F.K) {
  case HexDouble:
  case HexWord: // asString() is empty for a non-string
    return V->asString().size() == 16 && serial::parseHex64(V->asString(), W);
  case Int:
    W = static_cast<uint64_t>(V->asInt());
    return V->kind() == json::Value::Kind::Int && V->asInt() >= F.Min &&
           W <= F.Max;
  case Bool:
    W = V->asBool();
    return V->kind() == json::Value::Kind::Bool;
  case Enum: {
    std::optional<size_t> Index = F.Names.find(V->asString());
    W = Index.value_or(0);
    return Index.has_value();
  }
  }
  return false;
}

/// A decimal flag value in strtod's syntax, which must span the whole
/// token: "3x" is an error, not 3. Empty text gives \p Default.
std::optional<double> wholeDouble(const std::string &Text, double Default) {
  if (Text.empty())
    return Default;
  char *End = nullptr;
  const double V = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size())
    return std::nullopt;
  return V;
}

/// Flag F's value as the JSON member that encodes it (\p W: the current
/// word), so both front doors share decode(). A number must be the whole
/// token; an integer is a signed 64-bit decimal as it always was: a count
/// then meets its range in decode(), and a seed must not be negative. An
/// empty value keeps the current one.
json::Value flagValue(const Field &F, const CommandLine &CL, uint64_t W) {
  const std::string Text = CL.getString(F.Flag);
  if (F.K == HexDouble) {
    std::optional<double> V = wholeDouble(Text, fromWord<double>(W));
    if (!V)
      return nullptr;
    return encode(F, toWord(*V));
  }
  if (F.K == Bool)
    return CL.getBool(F.Flag);
  if (F.K == Enum)
    return Text;
  if (Text.empty())
    return encode(F, W);
  const char *End = Text.data() + Text.size();
  int64_t V = 0;
  std::from_chars_result R = std::from_chars(Text.data(), End, V);
  if (R.ec != std::errc() || R.ptr != End || (F.K == HexWord && V < 0))
    return nullptr;
  return F.K == Int ? json::Value(V) : encode(F, static_cast<uint64_t>(V));
}

std::nullopt_t failed(std::string *Error, const std::string &Message) {
  detail::fail(Error, Message);
  return std::nullopt;
}

/// The group object ("mix" for "mix.qd") and member name of a path.
std::pair<std::string, std::string> splitPath(const char *Path) {
  const char *Dot = std::strchr(Path, '.');
  if (!Dot)
    return {"", Path};
  return {std::string(Path, Dot), Dot + 1};
}

} // namespace

//===----------------------------------------------------------------------===//
// ChannelMix
//===----------------------------------------------------------------------===//

std::optional<ChannelMix> ChannelMix::preset(const std::string &Name) {
  static const char *const Names[] = {"baseline", "gc", "gc-rp"};
  static const ChannelMix Mixes[] = {
      {1.0, 0.0, 0.0}, {0.4, 0.6, 0.0}, {0.4, 0.3, 0.3}};
  std::optional<size_t> Index = NameTable(Names).find(Name);
  return Index ? std::optional(Mixes[*Index]) : std::nullopt;
}

bool ChannelMix::normalize() {
  // The negated comparisons also reject NaN weights (NaN < 0.0 is false,
  // so the old form waved them straight through to the samplers).
  if (!(WQd >= 0.0) || !(WGc >= 0.0) || !(WRp >= 0.0))
    return false;
  double Sum = sum();
  if (!(Sum > 0.0) || !std::isfinite(Sum))
    return false;
  WQd /= Sum;
  WGc /= Sum;
  WRp /= Sum;
  return true;
}

std::optional<ChannelMix>
marqsim::parseChannelMix(const CommandLine &CL, std::string *Error) {
  std::string Name = CL.getString("config", "gc");
  std::optional<ChannelMix> Mix = ChannelMix::preset(Name);
  if (!Mix)
    return failed(Error, "unknown config '" + Name + "'");
  if (CL.has("qd") || CL.has("gc") || CL.has("rp")) {
    // Diagnose the exact violation instead of renormalizing nonsense:
    // a negative (or NaN) weight is not a distribution, and an all-zero
    // override selects nothing.
    for (auto [Flag, W] : {std::pair{"qd", &ChannelMix::WQd},
                           std::pair{"gc", &ChannelMix::WGc},
                           std::pair{"rp", &ChannelMix::WRp}}) {
      std::optional<double> Weight = wholeDouble(CL.getString(Flag), 0.0);
      if (!Weight || !(*Weight >= 0.0) || !std::isfinite(*Weight))
        return failed(Error, "--" + std::string(Flag) +
                                 " must be a non-negative finite weight");
      (*Mix).*W = *Weight;
    }
    if (!(Mix->sum() > 0.0))
      return failed(Error, "channel weights --qd/--gc/--rp are all zero; at "
                           "least one must be positive");
    Mix->normalize();
  }
  return Mix;
}

std::optional<size_t> marqsim::parseCacheLimitBytes(const CommandLine &CL,
                                                    std::string *Error) {
  std::optional<double> MB = wholeDouble(CL.getString("cache-limit-mb"), 0.0);
  if (!MB || !(*MB >= 0.0) || !std::isfinite(*MB))
    return failed(Error, "--cache-limit-mb must be a non-negative finite "
                         "number of MiB");
  if (*MB == 0.0)
    return size_t(0);
  // Clamp so a huge budget cannot overflow the size_t cast.
  constexpr double MaxBytes = 9.0e18;
  return static_cast<size_t>(
      std::min(std::max(std::ceil(*MB * 1024.0 * 1024.0), 1.0), MaxBytes));
}

//===----------------------------------------------------------------------===//
// TaskSpec
//===----------------------------------------------------------------------===//

bool TaskSpec::validate(std::string *Error) const {
  if (!checkFields(*this, Error))
    return false;
  if (Noise.enabled() && Evaluate.FidelityColumns == 0)
    return detail::fail(Error, "noise only affects fidelity evaluation; enable "
                               "it with --columns=N");
  if (Noise.enabled() && Noise.Mode == NoiseMode::Density &&
      Precision != EvalPrecision::FP64)
    return detail::fail(Error, "the density-matrix noise oracle evaluates in "
                               "double precision; use --precision=fp64");
  if (Method == TaskMethod::Sampling) {
    ChannelMix Copy = Mix;
    if (!Copy.normalize())
      return detail::fail(Error, "channel weights must be non-negative with a "
                                 "positive sum");
    if (Copy.WRp > 0.0 && PerturbRounds < 1)
      return detail::fail(Error, "a positive Prp weight needs at least one "
                                 "perturbation round");
  }
  if (Method == TaskMethod::Trotter && TrotterOrder != 1 &&
      TrotterOrder != 2 && TrotterOrder != 4)
    return detail::fail(Error, "supported Trotter orders: 1, 2, 4");
  return true;
}

uint64_t TaskSpec::contentKey() const {
  static const TaskSpec Default;
  uint64_t H = serial::FNVOffset;
  for (const Field &F : Fields) {
    const uint64_t W = F.Get(*this);
    if ((F.UsedBy & bit(Method)) &&
        (F.Keyed == Always ||
         (F.Keyed == NonDefault && W != F.Get(Default)) ||
         (F.Keyed == Noisy && Noise.enabled())))
      H = serial::fnv1aWord(W, H);
  }
  return H;
}

std::optional<TaskSpec> TaskSpec::fromCommandLine(const CommandLine &CL,
                                                  std::string *Error) {
  TaskSpec Spec;

  // Hamiltonian source: one positional file path or --model=NAME.
  if (CL.has("model")) {
    if (!CL.positionals().empty())
      return failed(Error, "give either a Hamiltonian file or --model, not "
                           "both");
    Spec.Source = HamiltonianSource::fromModel(CL.getString("model"));
  } else if (CL.positionals().size() == 1) {
    Spec.Source = HamiltonianSource::fromFile(CL.positionals()[0]);
  } else {
    return failed(Error,
                  "expected exactly one Hamiltonian file (or --model=NAME)");
  }

  std::optional<ChannelMix> Mix = parseChannelMix(CL, Error);
  if (!Mix)
    return std::nullopt;
  Spec.Mix = *Mix;

  for (const Field &F : Fields) {
    if (!F.Flag || !CL.has(F.Flag))
      continue;
    uint64_t W = F.Get(Spec);
    json::Value Value = flagValue(F, CL, W);
    if (!decode(F, &Value, W))
      return failed(Error, "--" + std::string(F.Flag) + " must be " +
                               spelling(F, /*Cli=*/true) + " (got '" +
                               CL.getString(F.Flag) + "')");
    F.Set(Spec, W);
  }
  if (Spec.Noise.Kind == NoiseChannelKind::None &&
      (CL.has("noise-prob") || CL.has("noise-2q-factor") ||
       CL.has("noise-mode")))
    return failed(Error, "--noise-prob/--noise-2q-factor/--noise-mode have no "
                         "effect without --noise=MODEL");
  if (!checkFields(Spec, Error))
    return std::nullopt;
  return Spec;
}

//===----------------------------------------------------------------------===//
// JSON transport
//===----------------------------------------------------------------------===//

std::optional<json::Value> TaskSpec::toJson(std::string *Error) const {
  // Resolve the source now, uncanonicalized: files and registry models
  // become inline terms the receiver can use without touching any
  // filesystem, and the raw term order is preserved so the Trotter
  // family's TermOrderKind::Given keeps its meaning. Both sides then
  // canonicalize (or not) identically inside SimulationService::run.
  std::optional<Hamiltonian> H =
      SimulationService::resolveHamiltonian(Source, Error,
                                            /*Canonicalize=*/false);
  if (!H)
    return std::nullopt;

  json::Value Terms = json::Value::array();
  for (const PauliTerm &T : H->terms()) {
    json::Value Term = json::Value::array();
    Term.push(serial::hex16(serial::doubleBits(T.Coeff)));
    Term.push(T.String.str(H->numQubits()));
    Terms.push(std::move(Term));
  }
  json::Value V = json::Value::object();
  V.set("format", "marqsim-spec-v1");
  V.set("hamiltonian", json::Value::object()
                           .set("qubits", H->numQubits())
                           .set("terms", std::move(Terms)));
  for (const Field &F : Fields) {
    auto [Group, Member] = splitPath(F.Path);
    if (!Group.empty() && !V.find(Group))
      V.set(Group, json::Value::object());
    (Group.empty() ? V : *V.find(Group)).set(Member, encode(F, F.Get(*this)));
  }
  return V;
}

std::optional<TaskSpec> TaskSpec::fromJson(const json::Value &V,
                                           std::string *Error) {
  const json::Value *Format = V.find("format");
  if (!Format || Format->asString() != "marqsim-spec-v1")
    return failed(Error, "spec json: missing or unsupported format");

  const json::Value *Ham = V.find("hamiltonian");
  const json::Value *Qubits = Ham ? Ham->find("qubits") : nullptr;
  const json::Value *Terms = Ham ? Ham->find("terms") : nullptr;
  if (!Qubits || Qubits->asInt() < 1 || Qubits->asInt() > 64)
    return failed(Error, "spec json: 'hamiltonian.qubits' is missing or not "
                         "in [1, 64]");
  if (!Terms || !Terms->isArray() || Terms->size() == 0)
    return failed(Error, "spec json: missing or empty 'hamiltonian.terms'");
  Hamiltonian H(static_cast<unsigned>(Qubits->asInt()));
  for (size_t I = 0; I < Terms->size(); ++I) {
    const json::Value &Term = Terms->at(I);
    uint64_t Bits = 0;
    // asString() is empty for a non-string, which no check below accepts.
    if (!Term.isArray() || Term.size() != 2 ||
        Term.at(0).asString().size() != 16 ||
        !serial::parseHex64(Term.at(0).asString(), Bits))
      return failed(Error, "spec json: each term must be [coeff-hex16, "
                           "paulis]");
    const std::string &Text = Term.at(1).asString();
    std::optional<PauliString> P = PauliString::parse(Text);
    if (!P || Text.size() != H.numQubits())
      return failed(Error, "spec json: malformed Pauli string '" + Text + "'");
    H.addTerm(serial::bitsToDouble(Bits), *P);
  }
  if (H.empty())
    return failed(Error, "spec json: Hamiltonian has no nonzero terms");

  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(std::move(H));
  for (const Field &F : Fields) {
    auto [Group, Member] = splitPath(F.Path);
    const json::Value *Obj = Group.empty() ? &V : V.find(Group);
    if (!Obj && F.Keyed == Noisy)
      continue;
    uint64_t W = 0;
    if (!decode(F, Obj ? Obj->find(Member) : nullptr, W))
      return failed(Error, "spec json: '" + std::string(F.Path) +
                               "' is missing or not " +
                               spelling(F, /*Cli=*/false));
    F.Set(Spec, W);
  }
  if (!Spec.validate(Error))
    return std::nullopt;
  return Spec;
}
