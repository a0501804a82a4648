#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "crypto/hash_function.h"
#include "merkle/flat_nodes.h"
#include "merkle/proof.h"

namespace ugc {

// The §3.3 storage/computation tradeoff: instead of storing all O(|D|) tree
// nodes, the participant keeps only the top of the tree — every node at
// height >= ℓ (the paper stores "up to level H−ℓ" with the root at level 0;
// heights here are counted from the leaves, so depth d = H − height).
//
// Storage drops by a factor of 2^ℓ. To prove a sample, the participant must
// rebuild the 2^ℓ-leaf subtree containing it, re-evaluating f for those
// inputs; the rebuilt in-subtree path is then extended with stored siblings.
// The paper's relative computation overhead for m samples is
// rco = m·2^ℓ / |D| = 2m / S, with S = 2^(H−ℓ+1) the stored node count.
class PartialMerkleTree {
 public:
  // Supplies Φ(L_i) = f(x_i) for any leaf index; called once per leaf in
  // build() and again for every leaf of a rebuilt subtree in prove().
  using LeafProvider = std::function<Bytes(LeafIndex)>;

  // Builds the commitment, storing only nodes at height >= subtree_height (ℓ).
  // ℓ is clamped to the tree height H; ℓ = 0 stores the full tree.
  static PartialMerkleTree build(std::uint64_t leaf_count,
                                 unsigned subtree_height,
                                 const LeafProvider& leaves,
                                 const HashFunction& hash);

  Bytes root() const {
    const BytesView view = stored_.back()[0];
    return Bytes(view.begin(), view.end());
  }
  std::uint64_t leaf_count() const { return leaf_count_; }

  // Height H of the padded tree.
  unsigned height() const { return height_; }

  // The effective ℓ (after clamping).
  unsigned subtree_height() const { return subtree_height_; }

  // Number of stored nodes (the paper's S = 2^(H−ℓ+1), up to rounding when
  // ℓ = H and only the root remains).
  std::size_t stored_node_count() const;

  // Total stored payload in bytes.
  std::size_t stored_bytes() const;

  // Produces the authentication path for `index`, rebuilding the unsaved
  // subtree that contains it. `leaves` re-evaluates f; every re-evaluation is
  // counted in recomputed_leaf_count().
  MerkleProof prove(LeafIndex index, const LeafProvider& leaves,
                    const HashFunction& hash) const;

  // Cumulative number of leaf re-evaluations performed by prove() calls —
  // the measured numerator of the paper's rco.
  std::uint64_t recomputed_leaf_count() const { return recompute_meter_; }

 private:
  PartialMerkleTree() = default;

  std::uint64_t leaf_count_ = 0;
  unsigned height_ = 0;
  unsigned subtree_height_ = 0;
  // stored_[h - subtree_height_] = all node values at height h, for
  // h in [subtree_height_, height_], each level one contiguous buffer.
  std::vector<FlatNodes> stored_;
  mutable std::uint64_t recompute_meter_ = 0;
};

}  // namespace ugc
