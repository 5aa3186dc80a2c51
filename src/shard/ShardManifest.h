//===- shard/ShardManifest.h - Portable per-shard result files --*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result file a shard worker writes and the coordinator merges.
///
/// A manifest carries everything the merge needs to reconstruct the
/// worker's slice of the batch bit-exactly: the per-shot summaries (gate
/// counts, cancellation accounting, sequence hashes), the per-shot
/// fidelity samples as raw IEEE-754 hex (the component-store codec, so
/// doubles survive the file round trip exactly), plus the identity checks
/// the coordinator verifies before trusting it — the Hamiltonian
/// fingerprint, the shot range, an order-sensitive hash of the range's
/// sequence hashes, and a whole-file FNV-1a checksum that catches
/// truncation and bit flips.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SHARD_SHARDMANIFEST_H
#define MARQSIM_SHARD_SHARDMANIFEST_H

#include "service/SimulationService.h"

#include <optional>
#include <string>
#include <vector>

namespace marqsim {

/// One shard's results, in a form that survives a file round trip exactly.
struct ShardManifest {
  /// Content hash of the canonical Hamiltonian the shard compiled; the
  /// coordinator rejects manifests whose fingerprint disagrees with the
  /// task it is merging.
  uint64_t Fingerprint = 0;

  /// The batch-level seed (not a per-shard derivation: shot k of any
  /// shard draws RNG::forShot(Seed, k) with its global index).
  uint64_t Seed = 0;

  /// TaskSpec::contentKey() of the task the shard compiled: every knob
  /// beyond the Hamiltonian that shapes the bits (epsilon, time, mix,
  /// rounds, sampler, ...). Guards manifest *reuse*: a work directory
  /// left over from a sweep with different parameters must re-run, not
  /// merge stale results whose fingerprint and seed happen to match.
  uint64_t SpecKey = 0;

  std::string StrategyName;

  /// Shot count of the *whole* batch this shard belongs to.
  size_t TotalShots = 0;

  /// The global shot range this manifest covers.
  ShotRange Range;

  /// Per-shot sampling budget N (sampling tasks; 0 otherwise).
  size_t NumSamples = 0;

  /// Worker threads the shard ran with (informational).
  unsigned JobsUsed = 0;

  /// Seconds the shard spent in per-shot evaluation hooks, summed over
  /// its shots (BatchResult::EvalSeconds). Travels as IEEE-754 hex; the
  /// merge sums it so the coordinator can report the batch's
  /// walk/emission vs evaluation split.
  double EvalSeconds = 0.0;

  bool HasFidelity = false;

  /// The noise configuration the shard evaluated under. contentKey
  /// already covers it (so stale-noise manifests fail the SpecKey check);
  /// carrying it explicitly makes a work directory self-describing and
  /// lets the parser reject unknown channel/mode spellings early.
  NoiseSpec Noise;

  /// The worker's cache accounting; the coordinator sums these to report
  /// e.g. "one MCFP solve total" across a sharded sweep.
  CacheStats Stats;

  /// One summary per shot, in global shot order within Range.
  std::vector<ShotSummary> Shots;

  /// Per-shot fidelities, parallel to Shots (HasFidelity only).
  std::vector<double> Fidelities;

  /// Order-sensitive FNV over the per-shot sequence hashes — the same
  /// step BatchResult::batchHash applies, restricted to this range.
  uint64_t rangeHash() const;

  /// Renders the manifest, including its trailing checksum line.
  std::string serialize() const;

  /// Parses serialize() output. Any anomaly — bad magic, checksum or
  /// range-hash mismatch, truncation, malformed numbers, shot counts that
  /// disagree with the header — returns nullopt and fills \p Error.
  static std::optional<ShardManifest> parse(const std::string &Text,
                                            std::string *Error = nullptr);

  bool writeFile(const std::string &Path, std::string *Error = nullptr) const;
  static std::optional<ShardManifest> readFile(const std::string &Path,
                                               std::string *Error = nullptr);

  /// The spec a shard worker runs for \p Spec: per-shot artifacts that
  /// cannot travel through a manifest (ExportShotZero, KeepResults,
  /// DumpDot) are dropped, not rejected, since a worker owes the
  /// coordinator summaries only. contentKey ignores these flags, so the
  /// worker's manifest still carries the coordinator's SpecKey.
  static TaskSpec workerSpec(TaskSpec Spec);

  /// Builds the manifest of \p Range from a ranged service run of \p Spec.
  static ShardManifest fromTaskResult(const TaskSpec &Spec,
                                      const ShotRange &Range,
                                      const TaskResult &Result);
};

} // namespace marqsim

#endif // MARQSIM_SHARD_SHARDMANIFEST_H
