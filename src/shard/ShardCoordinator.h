//===- shard/ShardCoordinator.h - Cross-process batch sharding --*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-process scaling layer: split a TaskSpec's shot range over K
/// workers, run each range through SimulationService (in-process, in a
/// re-exec'd marqsim-cli, or on a marqsim-daemon fleet worker), and merge
/// the resulting ShardManifests back into the TaskResult a single-process
/// run of the same spec produces — bit-identically, for any K.
///
/// The bit-identity argument is the same one that makes --jobs free of
/// scheduling noise: shot k always draws from the counter-based substream
/// RNG::forShot(Seed, k) of its *global* index, and every deterministic
/// artifact on the way (MCFP solutions, alias tables, fidelity targets) is
/// a pure content function. A shard is therefore just a window onto the
/// same shot stream, and concatenating windows in order reproduces the
/// batch exactly.
///
/// Workers sharing one ServiceOptions::CacheDir also share every
/// deterministic artifact through the on-disk tier of the ArtifactStore;
/// the coordinator pre-warms that store before launching
/// (SimulationService::prewarm), so a K-shard run performs exactly one
/// gate-cancellation solve per Hamiltonian and every worker loads the
/// alias bundle and fidelity target columns from disk instead of
/// rebuilding them.
///
/// Every mode runs through one dispatch loop. A collect pass first reuses
/// the valid manifests already in the work directory (crash recovery for
/// interrupted sweeps); the remaining ranges go into a shared queue that
/// feeds N slots: one in-process slot, one re-exec'd marqsim-cli per
/// shard, or one connection per fleet worker. Out-of-process workers get
/// the spec as TaskSpec JSON (the file WorkDir/spec.json for subprocesses,
/// shard-submit frames for the fleet), which carries every field bit for
/// bit, so the worker's spec is the coordinator's.
///
/// Failure handling: every manifest passes one gate (checksum,
/// fingerprint, seed, SpecKey, shot range, fidelity presence) before it
/// can merge. A missing, corrupt, truncated or mismatched manifest, or a
/// worker process that exits non-zero, is reported in ShardReport::Notes,
/// its file is discarded, and the range is charged one attempt and
/// re-queued; a range that fails ShardOptions::MaxAttempts times aborts
/// the run. A fleet worker that dies or times out costs its range no
/// attempt: the range goes back to the front of the queue for the
/// survivors.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SHARD_SHARDCOORDINATOR_H
#define MARQSIM_SHARD_SHARDCOORDINATOR_H

#include "shard/ShardManifest.h"
#include "shard/ShardPlan.h"

namespace marqsim {

/// How to run a sharded batch.
struct ShardOptions {
  /// Number of worker ranges (clamped to the shot count).
  unsigned ShardCount = 1;

  /// Directory for manifests and worker logs. Required; created on
  /// demand. Valid manifests found here are reused instead of re-run.
  std::string WorkDir;

  /// Shared persistent artifact store handed to every worker
  /// (--cache-dir). Empty disables cross-process artifact sharing: each
  /// worker then performs its own MCFP solves (correct but wasteful).
  /// Validated up front: an unwritable path fails the run instead of
  /// silently degrading to per-worker solves.
  std::string CacheDir;

  /// In-memory cache budget per process (coordinator and workers), in
  /// bytes; 0 means unbounded. Travels to re-exec'd workers as the hidden
  /// --cache-limit-bytes flag. Eviction never changes results, only
  /// recompute counts.
  size_t CacheLimitBytes = 0;

  /// The marqsim-cli binary to re-exec per shard. Empty runs every shard
  /// in-process through one shared service (library use and tests).
  /// Ignored when Workers is set.
  std::string WorkerBinary;

  /// Attempts per range before the run aborts (>= 1). Each failed,
  /// corrupt or mismatched result of a range charges that range one
  /// attempt and re-queues it; a range whose fleet worker died is
  /// re-queued at no charge.
  unsigned MaxAttempts = 2;

  /// Remote marqsim-daemon workers ("host:port"). Non-empty selects fleet
  /// mode: ranges travel as shard-submit frames over the JSON protocol,
  /// the coordinator warms each worker through artifact-put frames (one
  /// MCFP solve fleet-wide, no shared filesystem), and WorkerBinary is
  /// ignored. A worker that dies or times out is dropped and its in-flight
  /// range re-dispatched to the survivors.
  std::vector<std::string> Workers;

  /// Per-range result timeout in fleet mode; a worker that exceeds it is
  /// treated as dead. 0 waits forever (the in-flight range then rides on
  /// the TCP connection's fate).
  unsigned FleetTimeoutMs = 0;

  /// Connection retry budget per worker (fleet mode): attempts and the
  /// initial backoff delay (doubled per retry, capped internally). Absorbs
  /// daemons still binding their port when the batch starts.
  unsigned ConnectAttempts = 10;
  unsigned ConnectDelayMs = 100;

  /// Fleet mode: resolve the prewarm and artifact exports through this
  /// service instead of a coordinator-owned one (not owned; must outlive
  /// the run). The CLI passes its own service so the post-merge shot-0
  /// recompile hits the same in-memory store — keeping the whole
  /// invocation at one MCFP solve even without any cache directory.
  SimulationService *SharedService = nullptr;
};

/// Per-worker accounting of a fleet run.
struct FleetWorkerStats {
  std::string HostPort;

  /// Ranges sent to this worker, and the subset that had already been
  /// dispatched before (to anyone) and failed — the re-dispatch traffic.
  size_t RangesDispatched = 0;
  size_t RangesRedispatched = 0;

  /// Artifact-fetch accounting for this worker: bodies it already held
  /// (hits), bodies pushed over the wire (misses), and the pushed bytes.
  size_t FetchHits = 0;
  size_t FetchMisses = 0;
  size_t ArtifactBytesServed = 0;

  /// Evaluation CPU-seconds summed over this worker's accepted manifests.
  double EvalSeconds = 0.0;

  /// False once the coordinator declared the worker dead (connect
  /// failure, transport error, or FleetTimeoutMs exceeded).
  bool Alive = true;
};

/// Fleet-wide accounting, reported next to the run's cache stats.
struct FleetStats {
  /// True when fleet mode actually ran (ShardOptions::Workers non-empty).
  bool Used = false;
  std::vector<FleetWorkerStats> Workers;
};

/// What happened during a sharded run, beyond the merged result.
struct ShardReport {
  ShardPlan Plan;

  /// Dispatches of a range that had been dispatched before (after a
  /// failed attempt or a dead fleet worker).
  unsigned Retries = 0;

  /// Manifests reused from a previous run in the work directory.
  unsigned Reused = 0;

  /// Summed cache accounting of the accepted worker manifests.
  CacheStats WorkerStats;

  /// The coordinator's own service accounting (store pre-warm).
  CacheStats LocalStats;

  /// Fleet-mode accounting (Used only when ShardOptions::Workers was
  /// non-empty): per-worker dispatch and artifact-fetch counters.
  FleetStats Fleet;

  /// Human-readable diagnostics: every rejected manifest and failed
  /// worker, with the reason.
  std::vector<std::string> Notes;
};

/// Splits, launches, validates, and merges. One coordinator runs one task
/// at a time; construct per task or reuse freely (it holds only options).
class ShardCoordinator {
public:
  explicit ShardCoordinator(ShardOptions Opts) : Options(std::move(Opts)) {}

  /// Runs \p Spec as Options.ShardCount shards and merges the manifests.
  /// The result is bit-identical to SimulationService::run(Spec) — same
  /// batch hash, shot summaries, and fidelity samples — for any shard
  /// count. Specs requesting per-shot artifacts that cannot travel
  /// through a manifest (KeepResults, ExportShotZero, DumpDot) are
  /// rejected; compile those separately (a one-shot ranged run suffices
  /// for shot 0). Returns std::nullopt and fills \p Error when a range
  /// still has no valid manifest after MaxAttempts attempts, or when no
  /// fleet worker is left alive.
  std::optional<TaskResult> run(const TaskSpec &Spec,
                                std::string *Error = nullptr,
                                ShardReport *Report = nullptr);

  /// Worker-side entry point: compiles shard \p Index of \p Count of
  /// ShardManifest::workerSpec(\p Spec) through \p Service (global shot
  /// indices, so seeding matches the full batch) and packages the
  /// manifest. marqsim-cli's hidden worker mode is a thin shell around
  /// this.
  static std::optional<ShardManifest> runShard(SimulationService &Service,
                                               const TaskSpec &Spec,
                                               unsigned Index,
                                               unsigned Count,
                                               std::string *Error = nullptr);

  /// Merges validated manifests (any order) into the single-process
  /// TaskResult. Rejects fingerprint mismatches against
  /// \p ExpectedFingerprint, gaps or overlaps in shot coverage, and
  /// manifests that disagree on seed, strategy, budget, or fidelity
  /// presence.
  static std::optional<TaskResult> merge(const TaskSpec &Spec,
                                         uint64_t ExpectedFingerprint,
                                         std::vector<ShardManifest> Manifests,
                                         std::string *Error = nullptr);

  /// Manifest path of shard \p Index under \p WorkDir.
  static std::string manifestPath(const std::string &WorkDir,
                                  unsigned Index);

private:
  ShardOptions Options;
};

} // namespace marqsim

#endif // MARQSIM_SHARD_SHARDCOORDINATOR_H
