#include <gtest/gtest.h>

#include <memory>

#include "core/cbs.h"
#include "core/analysis.h"
#include "test_util.h"

namespace ugc {
namespace {

using ugc::testing::make_test_task;
using ugc::testing::ModScreener;
using ugc::testing::TestFunction;

std::shared_ptr<const ResultVerifier> verifier_for(const Task& task) {
  return std::make_shared<RecomputeVerifier>(task.f);
}

// ------------------------------------------------- honest path, full sweep

struct CbsCase {
  std::uint64_t n;
  std::size_t m;
  bool with_replacement;
  LeafMode leaf_mode;
  unsigned storage_height;
};

class CbsHonestSweep : public ::testing::TestWithParam<CbsCase> {};

TEST_P(CbsHonestSweep, HonestParticipantAccepted) {
  const auto [n, m, with_replacement, leaf_mode, ell] = GetParam();
  const Task task = make_test_task(n);
  CbsConfig config;
  config.sample_count = m;
  config.sample_with_replacement = with_replacement;
  config.tree.leaf_mode = leaf_mode;
  config.tree.storage_subtree_height = ell;

  const CbsRunResult result = run_cbs_exchange(
      task, config, make_honest_policy(), verifier_for(task), /*seed=*/42);

  EXPECT_TRUE(result.verdict.accepted()) << result.verdict.detail;
  EXPECT_EQ(result.verdict.status, VerdictStatus::kAccepted);
  EXPECT_EQ(result.participant_metrics.honest_evaluations, n);
  EXPECT_EQ(result.participant_metrics.guessed_leaves, 0u);
  EXPECT_EQ(result.supervisor_metrics.results_verified, m);
  EXPECT_EQ(result.supervisor_metrics.roots_reconstructed, m);
}

// gtest prints each case's bytes, padding included, into its test name.
// A static array's padding is zero; a temporary's is whatever the stack
// held, which made the names change from build to build.
constexpr CbsCase kCbsCases[] = {
    {1, 1, true, LeafMode::kRaw, 0},
    {2, 2, true, LeafMode::kRaw, 0},
    {16, 8, true, LeafMode::kRaw, 0},
    {33, 10, true, LeafMode::kRaw, 0},     // non-power-of-two
    {64, 33, true, LeafMode::kRaw, 0},
    {64, 16, false, LeafMode::kRaw, 0},    // without replacement
    {64, 16, true, LeafMode::kHashed, 0},  // hashed leaves
    {64, 8, true, LeafMode::kRaw, 2},      // §3.3 partial storage
    {100, 8, true, LeafMode::kRaw, 3},
    {257, 14, false, LeafMode::kHashed, 4},
    {1024, 33, true, LeafMode::kRaw, 10},  // ℓ = H
};

INSTANTIATE_TEST_SUITE_P(Cases, CbsHonestSweep, ::testing::ValuesIn(kCbsCases));

TEST(Cbs, ScreenerHitsCollected) {
  const Task task =
      make_test_task(50, 1, 16, std::make_shared<ModScreener>(10));
  CbsConfig config;
  config.sample_count = 5;
  const CbsRunResult result = run_cbs_exchange(
      task, config, make_honest_policy(), verifier_for(task), 1);
  // Domain is [1000, 1050): multiples of 10 are 1000, 1010, ..., 1040.
  ASSERT_EQ(result.report.hits.size(), 5u);
  EXPECT_EQ(result.report.hits[0].x, 1000u);
  EXPECT_EQ(result.report.hits[4].x, 1040u);
  EXPECT_EQ(result.report.hits[1].report, "hit:1010");
}

TEST(Cbs, PartialStorageRebuildCostIsMTimesTwoToEll) {
  const std::uint64_t n = 64;
  const unsigned ell = 2;
  const std::size_t m = 5;
  const Task task = make_test_task(n);
  CbsConfig config;
  config.sample_count = m;
  config.tree.storage_subtree_height = ell;

  const CbsRunResult result = run_cbs_exchange(
      task, config, make_honest_policy(), verifier_for(task), 7);
  EXPECT_TRUE(result.verdict.accepted());
  // Honest participant: every rebuilt subtree re-evaluates 2^ℓ leaves.
  EXPECT_EQ(result.participant_metrics.rebuild_evaluations,
            m * (std::uint64_t{1} << ell));
}

// --------------------------------------------------------- cheater caught

TEST(Cbs, CheaterWithJunkGuessesCaught) {
  const Task task = make_test_task(256);
  CbsConfig config;
  config.sample_count = 33;
  const CbsRunResult result = run_cbs_exchange(
      task, config, make_semi_honest_cheater({0.3, 0.0, 21}),
      verifier_for(task), 5);
  // Escape probability 0.3^33 ~ 5e-18: rejection is certain for this seed.
  EXPECT_FALSE(result.verdict.accepted());
  EXPECT_EQ(result.verdict.status, VerdictStatus::kWrongResult);
  ASSERT_TRUE(result.verdict.failed_sample.has_value());
}

TEST(Cbs, PerfectGuesserPassesAsTheoryPredicts) {
  // q = 1 means every "guess" is right: sampling cannot distinguish this
  // from honesty (Theorem 3 with base = 1).
  const Task task = make_test_task(128);
  CbsConfig config;
  config.sample_count = 33;
  const CbsRunResult result = run_cbs_exchange(
      task, config, make_semi_honest_cheater({0.0, 1.0, 23}),
      verifier_for(task), 9);
  EXPECT_TRUE(result.verdict.accepted());
  EXPECT_EQ(result.participant_metrics.honest_evaluations, 0u);
}

TEST(Cbs, LateComputedResultWithForeignTreeIsRootMismatch) {
  // Theorem 2's attack: the cheater committed junk for x, learns x is
  // sampled, computes the *correct* f(x) and sends it with its old path.
  const Task task = make_test_task(64);
  CbsConfig config;
  config.sample_count = 8;

  CbsParticipant cheater(task, config,
                         make_semi_honest_cheater({0.0, 0.0, 31}));
  CbsSupervisor supervisor(task, config, verifier_for(task), Rng(3));

  const SampleChallenge challenge = supervisor.challenge(cheater.commit());
  ProofResponse response = cheater.respond(challenge);
  // Swap every claimed result for the true value, keeping the old paths.
  for (SampleProof& proof : response.proofs) {
    proof.result = task.f->evaluate(task.domain.input(proof.index));
  }

  const Verdict verdict = supervisor.verify(response);
  EXPECT_FALSE(verdict.accepted());
  EXPECT_EQ(verdict.status, VerdictStatus::kRootMismatch);
}

TEST(Cbs, TamperedSiblingIsRootMismatch) {
  const Task task = make_test_task(64);
  CbsConfig config;
  config.sample_count = 4;
  CbsParticipant participant(task, config, make_honest_policy());
  CbsSupervisor supervisor(task, config, verifier_for(task), Rng(11));

  const SampleChallenge challenge = supervisor.challenge(participant.commit());
  ProofResponse response = participant.respond(challenge);
  response.proofs[2].siblings[1][0] ^= 0x01;

  const Verdict verdict = supervisor.verify(response);
  EXPECT_EQ(verdict.status, VerdictStatus::kRootMismatch);
  EXPECT_EQ(verdict.failed_sample, challenge.samples[2]);
}

// ----------------------------------------------------------- malformed

class CbsMalformed : public ::testing::Test {
 protected:
  CbsMalformed()
      : task_(make_test_task(64)),
        config_(),
        participant_(task_, config_, make_honest_policy()),
        supervisor_(task_, config_, verifier_for(task_), Rng(17)) {
    config_.sample_count = 6;
    challenge_ = supervisor_.challenge(participant_.commit());
    response_ = participant_.respond(challenge_);
  }

  Task task_;
  CbsConfig config_;
  CbsParticipant participant_;
  CbsSupervisor supervisor_;
  SampleChallenge challenge_;
  ProofResponse response_;
};

TEST_F(CbsMalformed, DroppedProofRejected) {
  response_.proofs.pop_back();
  EXPECT_EQ(supervisor_.verify(response_).status, VerdictStatus::kMalformed);
}

TEST_F(CbsMalformed, ReorderedProofsRejected) {
  ASSERT_GE(response_.proofs.size(), 2u);
  if (response_.proofs[0].index == response_.proofs[1].index) {
    GTEST_SKIP() << "challenge drew duplicate samples; reorder is a no-op";
  }
  std::swap(response_.proofs[0], response_.proofs[1]);
  EXPECT_EQ(supervisor_.verify(response_).status, VerdictStatus::kMalformed);
}

TEST_F(CbsMalformed, WrongResultSizeRejected) {
  response_.proofs[0].result.push_back(0x00);
  EXPECT_EQ(supervisor_.verify(response_).status, VerdictStatus::kMalformed);
}

TEST_F(CbsMalformed, WrongTaskIdRejected) {
  response_.task = TaskId{999};
  EXPECT_EQ(supervisor_.verify(response_).status, VerdictStatus::kMalformed);
}

TEST_F(CbsMalformed, TruncatedPathRejected) {
  response_.proofs[0].siblings.pop_back();
  EXPECT_EQ(supervisor_.verify(response_).status, VerdictStatus::kMalformed);
}

TEST_F(CbsMalformed, CommitmentWithWrongLeafCountRejected) {
  CbsSupervisor fresh(task_, config_, verifier_for(task_), Rng(19));
  Commitment commitment = participant_.commit();
  commitment.leaf_count = 63;
  fresh.challenge(commitment);
  const ProofResponse response =
      participant_.respond(SampleChallenge{task_.id, {}});
  EXPECT_EQ(fresh.verify(response).status, VerdictStatus::kMalformed);
}

// ----------------------------------------------------------- API misuse

TEST(CbsApi, ChallengeTwiceThrows) {
  const Task task = make_test_task(16);
  CbsConfig config;
  CbsParticipant participant(task, config, make_honest_policy());
  CbsSupervisor supervisor(task, config, verifier_for(task), Rng(1));
  const Commitment c = participant.commit();
  supervisor.challenge(c);
  EXPECT_THROW(supervisor.challenge(c), Error);
}

TEST(CbsApi, VerifyBeforeChallengeThrows) {
  const Task task = make_test_task(16);
  CbsConfig config;
  CbsSupervisor supervisor(task, config, verifier_for(task), Rng(1));
  EXPECT_THROW(supervisor.verify(ProofResponse{task.id, {}}), Error);
}

TEST(CbsApi, RespondBeforeCommitThrows) {
  const Task task = make_test_task(16);
  CbsConfig config;
  CbsParticipant participant(task, config, make_honest_policy());
  EXPECT_THROW(participant.respond(SampleChallenge{task.id, {LeafIndex{0}}}),
               Error);
}

TEST(CbsApi, RespondToForeignChallengeThrows) {
  const Task task = make_test_task(16);
  CbsConfig config;
  CbsParticipant participant(task, config, make_honest_policy());
  participant.commit();
  EXPECT_THROW(
      participant.respond(SampleChallenge{TaskId{99}, {LeafIndex{0}}}), Error);
}

TEST(CbsApi, CommitIsIdempotent) {
  const Task task = make_test_task(32);
  CbsConfig config;
  CbsParticipant participant(task, config, make_honest_policy());
  const Commitment first = participant.commit();
  const Commitment second = participant.commit();
  EXPECT_EQ(first, second);
  EXPECT_EQ(participant.metrics().honest_evaluations, 32u);  // one sweep only
}

TEST(CbsApi, ZeroSampleConfigRejected) {
  const Task task = make_test_task(16);
  CbsConfig config;
  config.sample_count = 0;
  EXPECT_THROW(CbsSupervisor(task, config, verifier_for(task), Rng(1)), Error);
}

TEST(CbsApi, SupervisorWithoutReplacementDrawsDistinctSamples) {
  const Task task = make_test_task(64);
  CbsConfig config;
  config.sample_count = 32;
  config.sample_with_replacement = false;
  CbsParticipant participant(task, config, make_honest_policy());
  CbsSupervisor supervisor(task, config, verifier_for(task), Rng(23));
  const SampleChallenge challenge =
      supervisor.challenge(participant.commit());
  std::set<std::uint64_t> seen;
  for (const LeafIndex s : challenge.samples) {
    EXPECT_TRUE(seen.insert(s.value).second);
  }
}

// --------------------------------------------- Theorem 3, empirically

TEST(CbsStatistics, DetectionRateMatchesTheorem3) {
  // r = 0.5, q = 0, m = 3: escape probability 0.125. Run many independent
  // exchanges and compare the acceptance rate (tolerant Monte-Carlo test;
  // bench_thm3_cheat_probability does the fine-grained version).
  const std::size_t kTrials = 400;
  const Task task = make_test_task(128);
  CbsConfig config;
  config.sample_count = 3;
  std::size_t accepted = 0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    const CbsRunResult result = run_cbs_exchange(
        task, config, make_semi_honest_cheater({0.5, 0.0, 1000 + t}),
        verifier_for(task), 2000 + t);
    if (result.verdict.accepted()) ++accepted;
  }
  const double rate = static_cast<double>(accepted) / kTrials;
  const double predicted = cheat_success_probability(0.5, 0.0, 3);
  EXPECT_NEAR(rate, predicted, 0.06);
}

}  // namespace
}  // namespace ugc
