#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "core/cheating.h"
#include "core/protocol.h"
#include "core/settings.h"
#include "core/task.h"
#include "merkle/partial_tree.h"

namespace ugc {

// Work/cost counters for one participant run.
struct ParticipantMetrics {
  // Genuine f evaluations in the initial domain sweep (the cheater's
  // actual work; equals n for an honest participant).
  std::uint64_t honest_evaluations = 0;
  // Leaves filled with guessed values.
  std::uint64_t guessed_leaves = 0;
  // f re-evaluations forced by §3.3 subtree rebuilds at proof time
  // (numerator of the measured rco).
  std::uint64_t rebuild_evaluations = 0;
};

// The participant-side machinery shared by interactive CBS and NI-CBS:
// sweeps the domain once (through an HonestyPolicy), commits via a
// (possibly partial, §3.3) Merkle tree, collects screener hits, and answers
// sample queries with authentication paths.
class ParticipantEngine {
 public:
  ParticipantEngine(Task task, TreeSettings settings,
                    std::shared_ptr<const HonestyPolicy> policy);

  // Evaluates the domain (per policy), builds the commitment tree, and
  // returns the commitment. Idempotent: subsequent calls return the stored
  // commitment without re-sweeping. Large domains are swept in parallel
  // windows (policy / screener / f are const and deterministic, so
  // concurrent evaluation of disjoint index ranges is safe); the committed
  // bytes, metrics, and screener-hit order are identical to a serial sweep.
  Commitment commit();

  // Builds the proof for each sample (paper Step 3). Requires commit() to
  // have run. Samples outside the domain throw (the supervisor can only ask
  // for indices in [0, n)).
  std::vector<SampleProof> prove(std::span<const LeafIndex> samples);

  // Batched Step 3 (extension): merges the per-sample paths into one
  // deduplicated sibling stream.
  BatchProofResponse prove_batch(std::span<const LeafIndex> samples);

  // Screener hits gathered in the domain sweep, in domain order. The
  // semi-honest cheater screens its guessed values too — S(x, f̌(x)).
  const std::vector<ScreenerHit>& hits() const { return hits_; }

  const ParticipantMetrics& metrics() const { return metrics_; }
  const Task& task() const { return task_; }
  const TreeSettings& settings() const { return settings_; }

  // Maps result bytes to the committed leaf value under `mode` (identity for
  // kRaw — the paper's Eq. 1 — or hash(result) for kHashed). Shared with the
  // supervisor-side verification.
  static Bytes leaf_from_result(BytesView result, LeafMode mode,
                                const HashFunction& hash);

 private:
  // Re-evaluates one leaf for a §3.3 subtree rebuild at proof time (the
  // build-time sweep accounting lives in commit()'s window fold).
  Bytes rebuild_leaf_value(LeafIndex i);

  Task task_;
  TreeSettings settings_;
  std::shared_ptr<const HonestyPolicy> policy_;
  std::unique_ptr<const HashFunction> hash_;
  std::optional<PartialMerkleTree> tree_;
  std::vector<ScreenerHit> hits_;
  ParticipantMetrics metrics_;
};

}  // namespace ugc
