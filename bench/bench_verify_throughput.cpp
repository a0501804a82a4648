// Supervisor verification-throughput trajectory bench: how many verdicts
// (and individual sample proofs) per second can the supervisor issue, across
// domain sizes and sample counts?
//
// proof_check: single-threaded Step-4 checking at up to 2^20-leaf tasks,
// comparing the earlier allocating implementation (copied below verbatim)
// against the allocation-free scratch path, both on in-memory responses and
// through the wire (owning decode + allocating verify vs zero-copy view
// decode + scratch verify). The win here is attributable to the
// zero-allocation rewrite, not core count.
//
// Emits BENCH_verify.json so subsequent PRs can track the trajectory; run
// with --smoke for a seconds-scale CI sanity pass over tiny sizes.
//
// Usage: bench_verify_throughput [--smoke] [--out PATH]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/cbs.h"
#include "core/engine.h"
#include "core/sampling.h"
#include "core/verification.h"
#include "merkle/batch_proof.h"
#include "merkle/geometry.h"
#include "merkle/proof.h"
#include "wire/messages.h"

using namespace ugc;

namespace {

// Cheap deterministic workload (splitmix64 finalizer) so the timings measure
// proof checking, not f.
class MixFunction final : public ComputeFunction {
 public:
  Bytes evaluate(std::uint64_t x) const override {
    Bytes out(8);
    evaluate_into(x, out);
    return out;
  }
  void evaluate_into(std::uint64_t x,
                     std::span<std::uint8_t> out) const override {
    std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    put_u64_be(z, out.data());
  }
  std::size_t result_size() const override { return 8; }
  std::string name() const override { return "mix64"; }
};

// ---------------------------------------------------------------------------
// Pre-PR reference implementations, copied from the PR-2-era
// core/verification.cpp and merkle/batch_proof.cpp: per-sample MerkleProof
// materialization (full sibling-vector copy), per-level vector<pair<pos,
// Bytes>> frontiers, one fresh Bytes per node. This is the baseline the
// allocation-free path is measured against.
// ---------------------------------------------------------------------------
namespace baseline {

Verdict malformed(const Task& task, std::string detail) {
  return Verdict{task.id, VerdictStatus::kMalformed, std::nullopt,
                 std::move(detail)};
}

Verdict verify_sample_proofs(const Task& task, const TreeSettings& settings,
                             const Commitment& commitment,
                             std::span<const LeafIndex> expected_samples,
                             const ProofResponse& response,
                             const ResultVerifier& verifier) {
  const std::uint64_t n = task.domain.size();
  if (commitment.task != task.id || response.task != task.id) {
    return malformed(task, "task id mismatch");
  }
  if (commitment.leaf_count != n) {
    return malformed(task, "leaf count mismatch");
  }
  if (response.proofs.size() != expected_samples.size()) {
    return malformed(task, "sample count mismatch");
  }

  const auto hash = make_hash(settings.tree_hash);
  const unsigned height = tree_height(n);
  const std::size_t result_size = task.f->result_size();

  for (std::size_t k = 0; k < expected_samples.size(); ++k) {
    const LeafIndex expected = expected_samples[k];
    const SampleProof& proof = response.proofs[k];
    if (proof.index != expected || expected.value >= n ||
        proof.result.size() != result_size ||
        proof.siblings.size() != height) {
      return malformed(task, "malformed sample");
    }
    const std::uint64_t x = task.domain.input(expected);
    if (!verifier.verify(x, proof.result)) {
      return Verdict{task.id, VerdictStatus::kWrongResult, expected, ""};
    }
    MerkleProof merkle;
    merkle.index = expected;
    merkle.leaf_value = ParticipantEngine::leaf_from_result(
        proof.result, settings.leaf_mode, *hash);
    merkle.siblings = proof.siblings;
    if (!verify_proof(merkle, commitment.root, *hash)) {
      return Verdict{task.id, VerdictStatus::kRootMismatch, expected, ""};
    }
  }
  return Verdict{task.id, VerdictStatus::kAccepted, std::nullopt,
                 "all samples verified"};
}

Bytes compute_batch_root(const BatchProof& proof, const HashFunction& hash) {
  check(!proof.leaves.empty(), "baseline: no proven leaves");
  std::vector<std::pair<std::uint64_t, Bytes>> level_nodes;
  level_nodes.reserve(proof.leaves.size());
  for (const auto& [index, value] : proof.leaves) {
    level_nodes.emplace_back(index.value, value);
  }

  std::size_t next_sibling = 0;
  std::uint64_t width = proof.padded_leaf_count;
  while (width > 1) {
    std::vector<std::pair<std::uint64_t, Bytes>> parents;
    for (std::size_t i = 0; i < level_nodes.size(); ++i) {
      const std::uint64_t position = level_nodes[i].first;
      const Bytes* sibling = nullptr;
      if (i + 1 < level_nodes.size() &&
          level_nodes[i + 1].first == (position ^ 1)) {
        sibling = &level_nodes[i + 1].second;
      }
      Bytes parent_value(hash.digest_size());
      if (sibling != nullptr) {
        hash.hash_pair(level_nodes[i].second, *sibling, parent_value);
        ++i;
      } else {
        check(next_sibling < proof.siblings.size(),
              "baseline: sibling stream exhausted");
        const Bytes& provided = proof.siblings[next_sibling++];
        if ((position & 1) == 0) {
          hash.hash_pair(level_nodes[i].second, provided, parent_value);
        } else {
          hash.hash_pair(provided, level_nodes[i].second, parent_value);
        }
      }
      parents.emplace_back(position >> 1, std::move(parent_value));
    }
    level_nodes = std::move(parents);
    width >>= 1;
  }
  check(level_nodes.size() == 1, "baseline: did not converge");
  return std::move(level_nodes.front().second);
}

Verdict verify_batch_response(const Task& task, const TreeSettings& settings,
                              const Commitment& commitment,
                              std::span<const LeafIndex> expected_samples,
                              const BatchProofResponse& response,
                              const ResultVerifier& verifier) {
  const std::uint64_t n = task.domain.size();
  if (commitment.task != task.id || response.task != task.id ||
      commitment.leaf_count != n) {
    return malformed(task, "header mismatch");
  }
  std::vector<std::uint64_t> expected;
  expected.reserve(expected_samples.size());
  for (const LeafIndex index : expected_samples) {
    expected.push_back(index.value);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  if (response.results.size() != expected.size()) {
    return malformed(task, "sample count mismatch");
  }

  const auto hash = make_hash(settings.tree_hash);
  const std::size_t result_size = task.f->result_size();

  BatchProof batch;
  batch.padded_leaf_count = std::uint64_t{1} << tree_height(n);
  batch.siblings = response.siblings;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const auto& [index, result] = response.results[k];
    if (index.value != expected[k] || expected[k] >= n ||
        result.size() != result_size) {
      return malformed(task, "malformed sample");
    }
    const std::uint64_t x = task.domain.input(index);
    if (!verifier.verify(x, result)) {
      return Verdict{task.id, VerdictStatus::kWrongResult, index, ""};
    }
    batch.leaves.emplace_back(
        index, ParticipantEngine::leaf_from_result(result, settings.leaf_mode,
                                                   *hash));
  }
  if (!equal_bytes(baseline::compute_batch_root(batch, *hash),
                   commitment.root)) {
    return Verdict{task.id, VerdictStatus::kRootMismatch, std::nullopt, ""};
  }
  return Verdict{task.id, VerdictStatus::kAccepted, std::nullopt,
                 "all samples verified (batched)"};
}

}  // namespace baseline

// Runs `body` (one verdict per call) until `min_seconds` elapse, returning
// verdicts/sec. The body must leave an observable verdict so the work cannot
// be elided.
template <typename Body>
double verdicts_per_sec(Body&& body, double min_seconds) {
  std::uint64_t iterations = 0;
  Stopwatch timer;
  double seconds = 0.0;
  do {
    const Verdict verdict = body();
    check(verdict.accepted(), "bench verdict rejected: ", verdict.detail);
    ++iterations;
    seconds = timer.elapsed_seconds();
  } while (seconds < min_seconds);
  return static_cast<double>(iterations) / seconds;
}

struct ProofCheckRow {
  std::string path;
  unsigned log2_n = 0;
  std::size_t samples = 0;
  double base = 0.0;
  double fast = 0.0;
  double wire_base = 0.0;
  double wire_fast = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_verify.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();
  const double min_seconds = smoke ? 0.02 : 0.25;

  std::printf("== supervisor verification throughput (verdicts/s) ==\n");
  std::printf("hardware threads: %u%s\n\n", hw_threads,
              smoke ? "  [smoke sizes]" : "");

  // ------------------------------------------------------------ proof_check
  const auto f = std::make_shared<MixFunction>();
  const RecomputeVerifier verifier(f);
  std::vector<ProofCheckRow> proof_rows;

  const std::vector<unsigned> exponents =
      smoke ? std::vector<unsigned>{12} : std::vector<unsigned>{16, 20};
  const std::vector<std::size_t> sample_counts =
      smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64};

  std::printf("-- proof_check: single-threaded Step 4, pre-PR vs "
              "allocation-free --\n");
  std::printf("%-12s %-6s %-8s %12s %12s %8s %12s %12s %8s\n", "path", "n",
              "samples", "base", "fast", "speedup", "wire_base", "wire_fast",
              "speedup");
  for (const unsigned exp : exponents) {
    const std::uint64_t n = std::uint64_t{1} << exp;
    const Task task = Task::make(TaskId{1}, Domain(0, n), f);
    CbsConfig config;
    CbsParticipant participant(task, config, make_honest_policy());
    const Commitment commitment = participant.commit();

    for (const std::size_t m : sample_counts) {
      Rng rng(exp * 1000 + m);
      const std::vector<LeafIndex> samples = sample_with_replacement(rng, n, m);
      const SampleChallenge challenge{task.id, samples};
      const ProofResponse response = participant.respond(challenge);
      const BatchProofResponse batched = participant.respond_batched(challenge);
      const Bytes plain_payload = encode_message(Message{response});
      const Bytes batched_payload = encode_message(Message{batched});

      VerifyScratch scratch;
      WireViewArena arena;

      ProofCheckRow plain;
      plain.path = "cbs_plain";
      plain.log2_n = exp;
      plain.samples = m;
      plain.base = verdicts_per_sec(
          [&] {
            return baseline::verify_sample_proofs(task, config.tree,
                                                  commitment, samples,
                                                  response, verifier);
          },
          min_seconds);
      plain.fast = verdicts_per_sec(
          [&] {
            return verify_sample_proofs(task, config.tree, commitment, samples,
                                        response, verifier, nullptr, scratch);
          },
          min_seconds);
      plain.wire_base = verdicts_per_sec(
          [&] {
            const Message message = decode_message(plain_payload);
            return baseline::verify_sample_proofs(
                task, config.tree, commitment, samples,
                std::get<ProofResponse>(message), verifier);
          },
          min_seconds);
      plain.wire_fast = verdicts_per_sec(
          [&] {
            const ProofResponseView view =
                decode_proof_response_view(plain_payload, arena);
            return verify_sample_proofs(task, config.tree, commitment, samples,
                                        view, verifier, nullptr, scratch);
          },
          min_seconds);
      proof_rows.push_back(plain);

      ProofCheckRow batch;
      batch.path = "cbs_batched";
      batch.log2_n = exp;
      batch.samples = m;
      batch.base = verdicts_per_sec(
          [&] {
            return baseline::verify_batch_response(task, config.tree,
                                                   commitment, samples,
                                                   batched, verifier);
          },
          min_seconds);
      batch.fast = verdicts_per_sec(
          [&] {
            return verify_batch_response(task, config.tree, commitment,
                                         samples, batched, verifier, nullptr,
                                         scratch);
          },
          min_seconds);
      batch.wire_base = verdicts_per_sec(
          [&] {
            const Message message = decode_message(batched_payload);
            return baseline::verify_batch_response(
                task, config.tree, commitment, samples,
                std::get<BatchProofResponse>(message), verifier);
          },
          min_seconds);
      batch.wire_fast = verdicts_per_sec(
          [&] {
            const BatchProofResponseView view =
                decode_batch_proof_response_view(batched_payload, arena);
            return verify_batch_response(task, config.tree, commitment,
                                         samples, view, verifier, nullptr,
                                         scratch);
          },
          min_seconds);
      proof_rows.push_back(batch);

      for (const ProofCheckRow* row : {&plain, &batch}) {
        std::printf("%-12s 2^%-4u %-8zu %12.0f %12.0f %7.2fx %12.0f %12.0f "
                    "%7.2fx\n",
                    row->path.c_str(), row->log2_n, row->samples, row->base,
                    row->fast, row->fast / row->base, row->wire_base,
                    row->wire_fast, row->wire_fast / row->wire_base);
      }
    }
  }

  // ------------------------------------------------------------------- JSON
  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"smoke\": %s,\n  \"hardware_threads\": %u,\n"
               "  \"hash\": \"sha256\",\n",
               smoke ? "true" : "false", hw_threads);
  std::fprintf(json, "  \"proof_check\": [\n");
  for (std::size_t i = 0; i < proof_rows.size(); ++i) {
    const ProofCheckRow& r = proof_rows[i];
    std::fprintf(json,
                 "    {\"path\": \"%s\", \"log2_n\": %u, \"samples\": %zu, "
                 "\"baseline_verdicts_per_sec\": %.0f, "
                 "\"fast_verdicts_per_sec\": %.0f, \"speedup\": %.2f, "
                 "\"baseline_proofs_per_sec\": %.0f, "
                 "\"fast_proofs_per_sec\": %.0f, "
                 "\"wire_baseline_verdicts_per_sec\": %.0f, "
                 "\"wire_fast_verdicts_per_sec\": %.0f, "
                 "\"wire_speedup\": %.2f}%s\n",
                 r.path.c_str(), r.log2_n, r.samples, r.base, r.fast,
                 r.fast / r.base, r.base * static_cast<double>(r.samples),
                 r.fast * static_cast<double>(r.samples), r.wire_base,
                 r.wire_fast, r.wire_fast / r.wire_base,
                 i + 1 < proof_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
