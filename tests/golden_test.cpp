// Golden-value regression tests for the commitment pipeline.
//
// Every constant below was captured from the pre-flat-storage, pre-SHA-NI,
// pre-hash_pair implementation (PR 1 tree). The digest pipeline rebuild must
// be a pure performance change: roots, proofs, batch sibling streams, HMAC
// and iterated-hash outputs all stay byte-identical. If one of these fails,
// the wire format drifted — that is a protocol break, not a perf tweak.

#include <gtest/gtest.h>

#include <vector>

#include "common/hex.h"
#include "core/engine.h"
#include "crypto/hash_function.h"
#include "crypto/hmac.h"
#include "crypto/iterated_hash.h"
#include "merkle/batch_proof.h"
#include "merkle/tree.h"

namespace ugc {
namespace {

// Deterministic 8-byte leaves: leaf_i = u64be(i * golden_ratio + 1).
std::vector<Bytes> make_leaves(std::uint64_t n) {
  std::vector<Bytes> leaves;
  leaves.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Bytes leaf(8);
    put_u64_be(i * 0x9e3779b97f4a7c15ULL + 1, leaf.data());
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

struct RootGolden {
  HashAlgorithm algo;
  std::uint64_t n;
  const char* root_hex;
};

// Names the case in the test name ("sha1_n1023"); gtest would otherwise
// print the struct's bytes, a pointer and padding among them.
void PrintTo(const RootGolden& golden, std::ostream* os) {
  *os << to_string(golden.algo) << "_n" << golden.n;
}

class GoldenRoots : public ::testing::TestWithParam<RootGolden> {};

TEST_P(GoldenRoots, RootMatchesPrePipelineBuild) {
  const auto& [algo, n, root_hex] = GetParam();
  const auto hash = make_hash(algo);
  const MerkleTree tree = MerkleTree::build(make_leaves(n), *hash);
  EXPECT_EQ(to_hex(tree.root()), root_hex);
}

INSTANTIATE_TEST_SUITE_P(
    PrePipeline, GoldenRoots,
    ::testing::Values(
        RootGolden{HashAlgorithm::kMd5, 1, "0000000000000001"},
        RootGolden{HashAlgorithm::kMd5, 3, "eb1d7e6cbabb782ba2d7d42a0bfa20eb"},
        RootGolden{HashAlgorithm::kMd5, 7, "41055ff44195c84d9d6a3fc9c0007f4e"},
        RootGolden{HashAlgorithm::kMd5, 1023,
                   "a1ef8d29af2c882ac3aa4aa00df15d2c"},
        RootGolden{HashAlgorithm::kSha1, 1, "0000000000000001"},
        RootGolden{HashAlgorithm::kSha1, 3,
                   "f86e9657de4931ffb27ccd12fd7bc92b02699b69"},
        RootGolden{HashAlgorithm::kSha1, 7,
                   "a273eac91f7ea238012cf83db5e18cdd9361aec5"},
        RootGolden{HashAlgorithm::kSha1, 1023,
                   "fd6c8f3e183990cd20c21b75996f068cebb9e3c2"},
        RootGolden{HashAlgorithm::kSha256, 1, "0000000000000001"},
        RootGolden{HashAlgorithm::kSha256, 3,
                   "22cb40f88af2b650ad480242167e3bda"
                   "37d949a12bcdacf1e09e9484f9b15c6b"},
        RootGolden{HashAlgorithm::kSha256, 7,
                   "9e5da552701276fe29ffbf1fa4992351"
                   "d1a35ed395462c1d7de504875d59a26d"},
        RootGolden{HashAlgorithm::kSha256, 1023,
                   "8d7e91f342a316e1372f5e1dcb00055c"
                   "1ffa5ecc1a4bb731887152c45b44ccc7"}));

struct ProofGolden {
  HashAlgorithm algo;
  const char* leaf_hex;
  const char* siblings_digest_hex;  // hash over the concatenated path
};

void PrintTo(const ProofGolden& golden, std::ostream* os) {
  *os << to_string(golden.algo);
}

class GoldenProofs : public ::testing::TestWithParam<ProofGolden> {};

TEST_P(GoldenProofs, ProofPathMatchesPrePipelineBuild) {
  const auto& [algo, leaf_hex, siblings_digest_hex] = GetParam();
  const auto hash = make_hash(algo);
  const MerkleTree tree = MerkleTree::build(make_leaves(1023), *hash);
  const MerkleProof proof = tree.prove(LeafIndex{517});
  EXPECT_EQ(to_hex(proof.leaf_value), leaf_hex);
  Bytes concatenated;
  for (const Bytes& sibling : proof.siblings) {
    append(concatenated, sibling);
  }
  EXPECT_EQ(to_hex(hash->hash(concatenated)), siblings_digest_hex);
  EXPECT_TRUE(verify_proof(proof, tree.root(), *hash));
}

INSTANTIATE_TEST_SUITE_P(
    PrePipeline, GoldenProofs,
    ::testing::Values(
        ProofGolden{HashAlgorithm::kMd5, "8608d39e116c966a",
                    "d5c2f2ed452d2a52b52648c67aaa02ca"},
        ProofGolden{HashAlgorithm::kSha1, "8608d39e116c966a",
                    "420aeeb3ccc3c740665fc8849920921994307ef5"},
        ProofGolden{HashAlgorithm::kSha256, "8608d39e116c966a",
                    "b0407594024eebc6cb693d99030654d2"
                    "9b0643c53de7296aaee2ffb9cf7d58af"}));

TEST(GoldenBatchProof, SiblingStreamMatchesPrePipelineBuild) {
  const auto& h = default_hash();
  const MerkleTree tree = MerkleTree::build(make_leaves(1023), h);
  const std::vector<LeafIndex> indices = {LeafIndex{1}, LeafIndex{5},
                                          LeafIndex{517}, LeafIndex{518}};
  const BatchProof batch = make_batch_proof(tree, indices);
  EXPECT_EQ(batch.siblings.size(), 19u);
  EXPECT_EQ(batch.payload_bytes(), 584u);
  Bytes concatenated;
  for (const Bytes& sibling : batch.siblings) {
    append(concatenated, sibling);
  }
  EXPECT_EQ(to_hex(h.hash(concatenated)),
            "ec3cafbebe4df7c8f004e710c53c9924"
            "df6ad62a40ed69902a2ae8b91ad27cb3");
  EXPECT_TRUE(verify_batch_proof(batch, tree.root(), h));
}

TEST(GoldenHashedLeafMode, TreeOverHashedLeavesMatchesPrePipelineBuild) {
  const auto& h = default_hash();
  std::vector<Bytes> hashed;
  for (const Bytes& leaf : make_leaves(1023)) {
    hashed.push_back(h.hash(leaf));
  }
  const MerkleTree tree = MerkleTree::build(std::move(hashed), h);
  EXPECT_EQ(to_hex(tree.root()),
            "a7fe184ab95ebfe7426bcc1bb695e086"
            "cba117a75c31c8bfbf365075b6128a64");
}

TEST(GoldenIteratedHash, ChainMatchesPrePipelineImplementation) {
  EXPECT_EQ(to_hex(make_iterated_hash(HashAlgorithm::kSha256, 17)
                       ->hash(to_bytes("abc"))),
            "2c107ed3182fc46dc50a2b4c89b66b57"
            "d70dd7fd97fe457e611da219b35c85b6");
  EXPECT_EQ(
      to_hex(make_iterated_hash(HashAlgorithm::kMd5, 5)->hash(to_bytes("abc"))),
      "e2753218c2dfa2487b258c6868cc8cbe");
}

TEST(GoldenHmac, MacMatchesPrePipelineImplementation) {
  const Bytes key = to_bytes(
      "key-0123456789-key-0123456789-key-0123456789-key-0123456789-key!!");
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("the quick brown fox"))),
            "377fd8a7c9483b084a45bdf11ae22ba0"
            "d66678180305c6cf2cb3437e77f9d083");
}

}  // namespace
}  // namespace ugc
