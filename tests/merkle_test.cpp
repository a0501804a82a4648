#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/hash_function.h"
#include "merkle/partial_tree.h"
#include "merkle/proof.h"
#include "merkle/streaming_builder.h"
#include "merkle/tree.h"

namespace ugc {
namespace {

// Deterministic synthetic leaf values ("f(x_i)") of a given size.
std::vector<Bytes> make_leaves(std::uint64_t n, std::size_t size = 8) {
  std::vector<Bytes> leaves;
  leaves.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Bytes leaf(size);
    for (std::size_t j = 0; j < size; ++j) {
      leaf[j] = static_cast<std::uint8_t>((i * 131 + j * 17 + 5) & 0xff);
    }
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

PartialMerkleTree::LeafProvider provider_for(const std::vector<Bytes>& leaves) {
  return [&leaves](LeafIndex i) { return leaves[i.value]; };
}

// ---------------------------------------------------------------- helpers

TEST(TreeHelpers, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(4), 4u);
  EXPECT_EQ(next_power_of_two(5), 8u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(std::uint64_t{1} << 40), std::uint64_t{1} << 40);
}

TEST(TreeHelpers, TreeHeight) {
  EXPECT_EQ(tree_height(1), 0u);
  EXPECT_EQ(tree_height(2), 1u);
  EXPECT_EQ(tree_height(3), 2u);
  EXPECT_EQ(tree_height(4), 2u);
  EXPECT_EQ(tree_height(5), 3u);
  EXPECT_EQ(tree_height(1024), 10u);
  EXPECT_EQ(tree_height(1025), 11u);
}

TEST(TreeHelpers, PaddingLeafDependsOnHash) {
  EXPECT_EQ(padding_leaf(default_hash()).size(), 32u);
  EXPECT_EQ(padding_leaf(*make_hash(HashAlgorithm::kMd5)).size(), 16u);
  EXPECT_NE(padding_leaf(default_hash()),
            padding_leaf(*make_hash(HashAlgorithm::kMd5)));
}

// ------------------------------------------------------------- MerkleTree

TEST(MerkleTree, SingleLeafRootIsLeafValue) {
  auto leaves = make_leaves(1);
  const Bytes expected = leaves[0];
  const MerkleTree tree = MerkleTree::build(std::move(leaves), default_hash());
  EXPECT_EQ(tree.root(), expected);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(MerkleTree, TwoLeavesRootIsHashOfConcat) {
  auto leaves = make_leaves(2);
  const Bytes expected =
      default_hash().hash(concat_bytes(leaves[0], leaves[1]));
  const MerkleTree tree = MerkleTree::build(std::move(leaves), default_hash());
  EXPECT_EQ(tree.root(), expected);
  EXPECT_EQ(tree.height(), 1u);
}

TEST(MerkleTree, FourLeavesMatchesManualComputation) {
  auto leaves = make_leaves(4);
  const auto& h = default_hash();
  const Bytes ab = h.hash(concat_bytes(leaves[0], leaves[1]));
  const Bytes cd = h.hash(concat_bytes(leaves[2], leaves[3]));
  const Bytes expected = h.hash(concat_bytes(ab, cd));
  const MerkleTree tree = MerkleTree::build(std::move(leaves), h);
  EXPECT_EQ(tree.root(), expected);
}

TEST(MerkleTree, NonPowerOfTwoPadsWithPaddingLeaf) {
  auto leaves = make_leaves(3);
  const auto& h = default_hash();
  const Bytes ab = h.hash(concat_bytes(leaves[0], leaves[1]));
  const Bytes cp = h.hash(concat_bytes(leaves[2], padding_leaf(h)));
  const Bytes expected = h.hash(concat_bytes(ab, cp));
  const MerkleTree tree = MerkleTree::build(std::move(leaves), h);
  EXPECT_EQ(tree.root(), expected);
  EXPECT_EQ(tree.leaf_count(), 3u);
  EXPECT_EQ(tree.padded_leaf_count(), 4u);
}

TEST(MerkleTree, BuildRejectsEmpty) {
  EXPECT_THROW(MerkleTree::build({}, default_hash()), Error);
}

TEST(MerkleTree, LeafAccessorChecksBounds) {
  const MerkleTree tree = MerkleTree::build(make_leaves(3), default_hash());
  EXPECT_NO_THROW(tree.leaf(LeafIndex{2}));
  EXPECT_THROW(tree.leaf(LeafIndex{3}), Error);  // padding is not addressable
}

TEST(MerkleTree, ProveChecksBounds) {
  const MerkleTree tree = MerkleTree::build(make_leaves(5), default_hash());
  EXPECT_THROW(tree.prove(LeafIndex{5}), Error);
}

TEST(MerkleTree, NodeCountForPerfectTree) {
  const MerkleTree tree = MerkleTree::build(make_leaves(8), default_hash());
  EXPECT_EQ(tree.node_count(), 15u);  // 8 + 4 + 2 + 1
}

// Parameterized sweep: every proof of every leaf verifies, and the proof is
// rejected against a different root.
class MerkleProofSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MerkleProofSweep, AllLeavesProveAndVerify) {
  const std::uint64_t n = GetParam();
  const auto& h = default_hash();
  const MerkleTree tree = MerkleTree::build(make_leaves(n), h);
  for (std::uint64_t i = 0; i < n; ++i) {
    const MerkleProof proof = tree.prove(LeafIndex{i});
    EXPECT_EQ(proof.siblings.size(), tree.height());
    EXPECT_TRUE(verify_proof(proof, tree.root(), h))
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleProofSweep, ProofFailsAgainstWrongRoot) {
  const std::uint64_t n = GetParam();
  const auto& h = default_hash();
  const MerkleTree tree = MerkleTree::build(make_leaves(n), h);
  Bytes wrong_root = tree.root();
  wrong_root[0] ^= 0x01;
  const MerkleProof proof = tree.prove(LeafIndex{0});
  EXPECT_FALSE(verify_proof(proof, wrong_root, h));
}

TEST_P(MerkleProofSweep, TamperedLeafValueFailsVerification) {
  const std::uint64_t n = GetParam();
  const auto& h = default_hash();
  const MerkleTree tree = MerkleTree::build(make_leaves(n), h);
  MerkleProof proof = tree.prove(LeafIndex{n / 2});
  proof.leaf_value[0] ^= 0xff;
  EXPECT_FALSE(verify_proof(proof, tree.root(), h));
}

TEST_P(MerkleProofSweep, TamperedSiblingFailsVerification) {
  const std::uint64_t n = GetParam();
  if (n < 2) return;  // no siblings in a height-0 tree
  const auto& h = default_hash();
  const MerkleTree tree = MerkleTree::build(make_leaves(n), h);
  for (std::size_t level = 0; level < tree.height(); ++level) {
    MerkleProof proof = tree.prove(LeafIndex{0});
    proof.siblings[level][0] ^= 0x80;
    EXPECT_FALSE(verify_proof(proof, tree.root(), h))
        << "tampered sibling at level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           31, 33, 64, 100, 127, 128, 257));

TEST(MerkleTree, DifferentHashAlgorithmsProduceDifferentRoots) {
  const auto md5 = make_hash(HashAlgorithm::kMd5);
  const MerkleTree a = MerkleTree::build(make_leaves(8), default_hash());
  const MerkleTree b = MerkleTree::build(make_leaves(8), *md5);
  EXPECT_NE(a.root(), b.root());
}

TEST(MerkleTree, UpdateLeafChangesRootConsistently) {
  const auto& h = default_hash();
  auto leaves = make_leaves(16);
  MerkleTree tree = MerkleTree::build(leaves, h);
  const Bytes original_root = tree.root();

  leaves[5] = to_bytes("replacement");
  tree.update_leaf(LeafIndex{5}, leaves[5], h);
  EXPECT_NE(tree.root(), original_root);

  // The incrementally updated tree must equal a fresh build.
  const MerkleTree rebuilt = MerkleTree::build(leaves, h);
  EXPECT_EQ(tree.root(), rebuilt.root());

  // And all proofs still verify.
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(verify_proof(tree.prove(LeafIndex{i}), tree.root(), h));
  }
}

TEST(MerkleTree, UpdateLeafRestoringValueRestoresRoot) {
  const auto& h = default_hash();
  auto leaves = make_leaves(9);
  MerkleTree tree = MerkleTree::build(leaves, h);
  const Bytes original_root = tree.root();
  tree.update_leaf(LeafIndex{3}, to_bytes("junk"), h);
  EXPECT_NE(tree.root(), original_root);
  tree.update_leaf(LeafIndex{3}, leaves[3], h);
  EXPECT_EQ(tree.root(), original_root);
}

TEST(MerkleTree, VariableLengthLeavesSupported) {
  std::vector<Bytes> leaves = {to_bytes("a"), to_bytes("bcdef"), Bytes{},
                               to_bytes("ghij")};
  const auto& h = default_hash();
  const MerkleTree tree = MerkleTree::build(leaves, h);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const MerkleProof proof = tree.prove(LeafIndex{i});
    EXPECT_EQ(proof.leaf_value, leaves[i]);
    EXPECT_TRUE(verify_proof(proof, tree.root(), h));
  }
}

// ------------------------------------------------------ StreamingBuilder

class StreamingEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingEquivalence, RootMatchesFullBuild) {
  const std::uint64_t n = GetParam();
  const auto& h = default_hash();
  const auto leaves = make_leaves(n);

  StreamingMerkleBuilder builder(h);
  for (const Bytes& leaf : leaves) {
    builder.add_leaf(leaf);
  }
  const Bytes streamed_root = builder.finish();

  const MerkleTree tree = MerkleTree::build(leaves, h);
  EXPECT_EQ(streamed_root, tree.root());
}

INSTANTIATE_TEST_SUITE_P(Sizes, StreamingEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16,
                                           17, 100, 255, 256, 257, 1000));

TEST(StreamingBuilder, FinishWithoutLeavesThrows) {
  StreamingMerkleBuilder builder(default_hash());
  EXPECT_THROW(builder.finish(), Error);
}

TEST(StreamingBuilder, DoubleFinishThrows) {
  StreamingMerkleBuilder builder(default_hash());
  builder.add_leaf(to_bytes("x"));
  builder.finish();
  EXPECT_THROW(builder.finish(), Error);
}

TEST(StreamingBuilder, AddAfterFinishThrows) {
  StreamingMerkleBuilder builder(default_hash());
  builder.add_leaf(to_bytes("x"));
  builder.finish();
  EXPECT_THROW(builder.add_leaf(to_bytes("y")), Error);
}

TEST(StreamingBuilder, CallbackSeesEveryNodeOfPerfectTree) {
  const auto& h = default_hash();
  std::size_t emitted = 0;
  StreamingMerkleBuilder builder(
      h, [&emitted](unsigned, std::uint64_t, BytesView) { ++emitted; });
  const auto leaves = make_leaves(8);
  for (const Bytes& leaf : leaves) {
    builder.add_leaf(leaf);
  }
  builder.finish();
  EXPECT_EQ(emitted, 15u);  // 8 leaves + 4 + 2 + 1
}

// --------------------------------------------------------- PartialTree

struct PartialCase {
  std::uint64_t n;
  unsigned subtree_height;
};

class PartialTreeSweep : public ::testing::TestWithParam<PartialCase> {};

TEST_P(PartialTreeSweep, RootMatchesFullTree) {
  const auto [n, ell] = GetParam();
  const auto& h = default_hash();
  const auto leaves = make_leaves(n);
  const PartialMerkleTree partial =
      PartialMerkleTree::build(n, ell, provider_for(leaves), h);
  const MerkleTree full = MerkleTree::build(leaves, h);
  EXPECT_EQ(partial.root(), full.root());
}

TEST_P(PartialTreeSweep, ProofsMatchFullTreeForAllLeaves) {
  const auto [n, ell] = GetParam();
  const auto& h = default_hash();
  const auto leaves = make_leaves(n);
  const PartialMerkleTree partial =
      PartialMerkleTree::build(n, ell, provider_for(leaves), h);
  const MerkleTree full = MerkleTree::build(leaves, h);

  for (std::uint64_t i = 0; i < n; ++i) {
    const MerkleProof from_partial =
        partial.prove(LeafIndex{i}, provider_for(leaves), h);
    const MerkleProof from_full = full.prove(LeafIndex{i});
    EXPECT_EQ(from_partial.leaf_value, from_full.leaf_value);
    EXPECT_EQ(from_partial.siblings, from_full.siblings);
    EXPECT_TRUE(verify_proof(from_partial, partial.root(), h));
  }
}

TEST_P(PartialTreeSweep, StorageShrinksByTwoToTheEll) {
  const auto [n, ell] = GetParam();
  const auto& h = default_hash();
  const auto leaves = make_leaves(n);
  const PartialMerkleTree partial =
      PartialMerkleTree::build(n, ell, provider_for(leaves), h);

  const unsigned height = tree_height(n);
  const unsigned effective_ell = std::min(ell, height);
  // Stored nodes: sum over heights ℓ..H of 2^(H-h) = 2^(H-ℓ+1) - 1.
  const std::size_t expected =
      (std::size_t{2} << (height - effective_ell)) - 1;
  EXPECT_EQ(partial.stored_node_count(), expected);
}

// A static array, so the struct padding gtest prints into each test name
// is zero rather than stack leftovers that change from build to build.
constexpr PartialCase kPartialCases[] = {
    {1, 0}, {1, 3},  {2, 1},  {5, 1},   {8, 0},   {8, 2},   {8, 3},
    {8, 9}, {16, 2}, {33, 3}, {64, 4}, {100, 3}, {128, 7}, {257, 5},
};

INSTANTIATE_TEST_SUITE_P(Cases, PartialTreeSweep,
                         ::testing::ValuesIn(kPartialCases));

TEST(PartialTree, RecomputeMeterCountsSubtreeLeaves) {
  const auto& h = default_hash();
  const std::uint64_t n = 64;
  const unsigned ell = 3;
  const auto leaves = make_leaves(n);
  const PartialMerkleTree partial =
      PartialMerkleTree::build(n, ell, provider_for(leaves), h);

  EXPECT_EQ(partial.recomputed_leaf_count(), 0u);
  partial.prove(LeafIndex{10}, provider_for(leaves), h);
  EXPECT_EQ(partial.recomputed_leaf_count(), std::uint64_t{1} << ell);
  partial.prove(LeafIndex{11}, provider_for(leaves), h);
  EXPECT_EQ(partial.recomputed_leaf_count(), std::uint64_t{2} << ell);
}

TEST(PartialTree, RecomputeSkipsPaddingPositions) {
  const auto& h = default_hash();
  // n = 33 pads to 64; the subtree holding leaf 32 (ℓ=3) covers 33..39 as
  // padding, so only one real leaf is recomputed.
  const std::uint64_t n = 33;
  const auto leaves = make_leaves(n);
  const PartialMerkleTree partial =
      PartialMerkleTree::build(n, 3, provider_for(leaves), h);
  partial.prove(LeafIndex{32}, provider_for(leaves), h);
  EXPECT_EQ(partial.recomputed_leaf_count(), 1u);
}

TEST(PartialTree, InconsistentProviderDetected) {
  const auto& h = default_hash();
  const std::uint64_t n = 16;
  const auto leaves = make_leaves(n);
  const PartialMerkleTree partial =
      PartialMerkleTree::build(n, 2, provider_for(leaves), h);

  const auto wrong = [](LeafIndex) { return to_bytes("lies"); };
  EXPECT_THROW(partial.prove(LeafIndex{0}, wrong, h), Error);
}

TEST(PartialTree, BoundsChecked) {
  const auto& h = default_hash();
  const auto leaves = make_leaves(4);
  const PartialMerkleTree partial =
      PartialMerkleTree::build(4, 1, provider_for(leaves), h);
  EXPECT_THROW(partial.prove(LeafIndex{4}, provider_for(leaves), h), Error);
}

TEST(PartialTree, EllZeroStoresFullTreeAndNeverRecomputes) {
  const auto& h = default_hash();
  const std::uint64_t n = 32;
  const auto leaves = make_leaves(n);
  const PartialMerkleTree partial =
      PartialMerkleTree::build(n, 0, provider_for(leaves), h);
  for (std::uint64_t i = 0; i < n; ++i) {
    partial.prove(LeafIndex{i}, provider_for(leaves), h);
  }
  EXPECT_EQ(partial.recomputed_leaf_count(), 0u);
  EXPECT_EQ(partial.stored_node_count(), 63u);  // 2n - 1
}

}  // namespace
}  // namespace ugc
