#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <string>
#include <tuple>

#include "common/bytes.h"
#include "common/hex.h"
#include "common/stopwatch.h"
#include "crypto/digest.h"
#include "crypto/hash_function.h"
#include "crypto/hmac.h"
#include "crypto/iterated_hash.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace ugc {
namespace {

// ---------------------------------------------------------------- Digest

TEST(Digest, DefaultIsZero) {
  Digest32 d;
  for (std::uint8_t b : d.view()) {
    EXPECT_EQ(b, 0);
  }
}

TEST(Digest, FromSpanRoundTrip) {
  Bytes raw(32);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>(i);
  }
  const Digest32 d = Digest32::from_span(raw);
  EXPECT_EQ(d.to_bytes(), raw);
}

TEST(Digest, FromSpanRejectsWrongSize) {
  EXPECT_THROW(Digest32::from_span(Bytes(31)), Error);
  EXPECT_THROW(Digest16::from_span(Bytes(17)), Error);
}

TEST(Digest, HexRoundTrip) {
  const Digest16 d = Digest16::from_hex("000102030405060708090a0b0c0d0e0f");
  EXPECT_EQ(d.hex(), "000102030405060708090a0b0c0d0e0f");
}

TEST(Digest, Comparable) {
  const Digest16 a = Digest16::from_hex("00000000000000000000000000000001");
  const Digest16 b = Digest16::from_hex("00000000000000000000000000000002");
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a);
}

// ---------------------------------------------------------------- MD5 KATs
// RFC 1321 appendix A.5 test suite.

struct HashVector {
  const char* input;
  const char* digest_hex;
};

// Names a known-answer vector by its input ("empty", "abc",
// "message_digest", "abcdbcdecdefdefg_len56"): gtest would otherwise print
// the two pointers into the test name, and they move from run to run.
void PrintTo(const HashVector& vector, std::ostream* os) {
  const std::string input = vector.input;
  if (input.empty()) {
    *os << "empty";
    return;
  }
  for (const char c : input.substr(0, 16)) {
    *os << (std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  if (input.size() > 16) {
    *os << "_len" << input.size();
  }
}

class Md5Kat : public ::testing::TestWithParam<HashVector> {};

TEST_P(Md5Kat, MatchesReference) {
  const auto& [input, digest_hex] = GetParam();
  EXPECT_EQ(Md5::hash(to_bytes(input)).hex(), digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Kat,
    ::testing::Values(
        HashVector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        HashVector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        HashVector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        HashVector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        HashVector{"abcdefghijklmnopqrstuvwxyz",
                   "c3fcd3d76192e4007dfb496cca67e13b"},
        HashVector{
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f"},
        HashVector{"1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890",
                   "57edf4a22be3c955ac49da2e2107b67a"}));

// ---------------------------------------------------------------- SHA-1 KATs
// FIPS 180-4 / NIST CAVS examples.

class Sha1Kat : public ::testing::TestWithParam<HashVector> {};

TEST_P(Sha1Kat, MatchesReference) {
  const auto& [input, digest_hex] = GetParam();
  EXPECT_EQ(Sha1::hash(to_bytes(input)).hex(), digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha1Kat,
    ::testing::Values(
        HashVector{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        HashVector{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        HashVector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"}));

TEST(Sha1, MillionA) {
  Sha1 sha;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    sha.update(chunk);
  }
  EXPECT_EQ(sha.finish().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// -------------------------------------------------------------- SHA-256 KATs

class Sha256Kat : public ::testing::TestWithParam<HashVector> {};

TEST_P(Sha256Kat, MatchesReference) {
  const auto& [input, digest_hex] = GetParam();
  EXPECT_EQ(Sha256::hash(to_bytes(input)).hex(), digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha256Kat,
    ::testing::Values(
        HashVector{"",
                   "e3b0c44298fc1c149afbf4c8996fb924"
                   "27ae41e4649b934ca495991b7852b855"},
        HashVector{"abc",
                   "ba7816bf8f01cfea414140de5dae2223"
                   "b00361a396177a9cb410ff61f20015ad"},
        HashVector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "248d6a61d20638b8e5c026930c3e6039"
                   "a33ce45964ff2167f6ecedd419db06c1"},
        HashVector{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                   "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                   "cf5b16a778af8380036ce59e7b049237"
                   "0b249b11e8f07a51afac45037afee9d1"}));

TEST(Sha256, MillionA) {
  Sha256 sha;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    sha.update(chunk);
  }
  EXPECT_EQ(sha.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// ------------------------------------------------- incremental == one-shot

class IncrementalChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IncrementalChunking, Sha256MatchesOneShot) {
  const std::size_t chunk_size = GetParam();
  Bytes data(1537);  // deliberately not a multiple of the block size
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  Sha256 sha;
  for (std::size_t offset = 0; offset < data.size(); offset += chunk_size) {
    const std::size_t take = std::min(chunk_size, data.size() - offset);
    sha.update(BytesView(data.data() + offset, take));
  }
  EXPECT_EQ(sha.finish(), Sha256::hash(data));
}

TEST_P(IncrementalChunking, Md5MatchesOneShot) {
  const std::size_t chunk_size = GetParam();
  Bytes data(1537);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  Md5 md5;
  for (std::size_t offset = 0; offset < data.size(); offset += chunk_size) {
    const std::size_t take = std::min(chunk_size, data.size() - offset);
    md5.update(BytesView(data.data() + offset, take));
  }
  EXPECT_EQ(md5.finish(), Md5::hash(data));
}

TEST_P(IncrementalChunking, Sha1MatchesOneShot) {
  const std::size_t chunk_size = GetParam();
  Bytes data(1537);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + 11);
  }
  Sha1 sha;
  for (std::size_t offset = 0; offset < data.size(); offset += chunk_size) {
    const std::size_t take = std::min(chunk_size, data.size() - offset);
    sha.update(BytesView(data.data() + offset, take));
  }
  EXPECT_EQ(sha.finish(), Sha1::hash(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, IncrementalChunking,
                         ::testing::Values(1, 3, 63, 64, 65, 128, 1000, 4096));

// Boundary lengths around the padding edge (55/56/57, 63/64/65 bytes).
class PaddingBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaddingBoundary, IncrementalMatchesOneShotAtBoundary) {
  const std::size_t n = GetParam();
  Bytes data(n, 0x42);
  Sha256 sha;
  for (std::size_t i = 0; i < n; ++i) {
    sha.update(BytesView(data.data() + i, 1));
  }
  EXPECT_EQ(sha.finish(), Sha256::hash(data));
  Md5 md5;
  for (std::size_t i = 0; i < n; ++i) {
    md5.update(BytesView(data.data() + i, 1));
  }
  EXPECT_EQ(md5.finish(), Md5::hash(data));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, PaddingBoundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 127, 128, 129));

TEST(Md5, ResetAllowsReuse) {
  Md5 md5;
  md5.update(to_bytes("garbage"));
  md5.reset();
  md5.update(to_bytes("abc"));
  EXPECT_EQ(md5.finish().hex(), "900150983cd24fb0d6963f7d28e17f72");
}

// ------------------------------------------------------------ HashFunction

TEST(HashFunctionFactory, ProducesAllAlgorithms) {
  EXPECT_EQ(make_hash(HashAlgorithm::kMd5)->digest_size(), 16u);
  EXPECT_EQ(make_hash(HashAlgorithm::kSha1)->digest_size(), 20u);
  EXPECT_EQ(make_hash(HashAlgorithm::kSha256)->digest_size(), 32u);
}

TEST(HashFunctionFactory, NamesRoundTrip) {
  for (auto algo :
       {HashAlgorithm::kMd5, HashAlgorithm::kSha1, HashAlgorithm::kSha256}) {
    const auto hash = make_hash(algo);
    EXPECT_EQ(parse_hash_algorithm(hash->name()), algo);
  }
  EXPECT_THROW(parse_hash_algorithm("sha512"), Error);
}

TEST(HashFunctionFactory, AgreesWithDirectImplementations) {
  const Bytes msg = to_bytes("the quick brown fox");
  EXPECT_EQ(make_hash(HashAlgorithm::kMd5)->hash(msg),
            Md5::hash(msg).to_bytes());
  EXPECT_EQ(make_hash(HashAlgorithm::kSha1)->hash(msg),
            Sha1::hash(msg).to_bytes());
  EXPECT_EQ(make_hash(HashAlgorithm::kSha256)->hash(msg),
            Sha256::hash(msg).to_bytes());
}

TEST(HashFunctionFactory, DefaultHashIsSha256) {
  EXPECT_EQ(default_hash().name(), "sha256");
  EXPECT_EQ(default_hash().digest_size(), 32u);
}

TEST(HashFunctionFactory, MeasureCostReturnsPositive) {
  EXPECT_GT(measure_hash_cost_ns(default_hash(), 64, 100), 0.0);
}

TEST(HashFunctionFactory, MeasureCostAgreesWithAllocatingPath) {
  // measure_hash_cost_ns now times the allocation-free hash_into chain; it
  // must stay within an order of magnitude of the legacy hash() loop it
  // replaced. Scheduler preemptions only ever inflate a wall-clock sample,
  // so each side takes the minimum of three runs — that keeps the
  // comparison stable on loaded CI runners.
  const auto& hash = default_hash();
  constexpr int kReps = 2000;
  double into_ns = std::numeric_limits<double>::infinity();
  double legacy_ns = std::numeric_limits<double>::infinity();
  for (int run = 0; run < 3; ++run) {
    into_ns = std::min(into_ns, measure_hash_cost_ns(hash, 64, kReps));

    Bytes digest = hash.hash(Bytes(64, 0xa5));
    Stopwatch timer;
    for (int i = 0; i < kReps; ++i) {
      digest = hash.hash(digest);
    }
    legacy_ns = std::min(
        legacy_ns, static_cast<double>(timer.elapsed_ns()) / kReps);
    volatile std::uint8_t sink = digest[0];
    (void)sink;
  }

  EXPECT_GT(into_ns, legacy_ns * 0.1);
  EXPECT_LT(into_ns, legacy_ns * 10.0);
}

// --------------------------------------------- zero-allocation entry points

class HashIntoSweep : public ::testing::TestWithParam<HashAlgorithm> {};

TEST_P(HashIntoSweep, HashIntoMatchesOneShot) {
  const auto hash = make_hash(GetParam());
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                           std::size_t{64}, std::size_t{65}, std::size_t{731}}) {
    Bytes data(size, 0x5a);
    Bytes out(hash->digest_size());
    hash->hash_into(data, out);
    EXPECT_EQ(out, hash->hash(data)) << "size " << size;
  }
}

TEST_P(HashIntoSweep, HashIntoSupportsInPlaceChaining) {
  // out may alias the input — the iterated-hash and cost-measurement chains
  // rely on it.
  const auto hash = make_hash(GetParam());
  Bytes buffer(hash->digest_size(), 0x17);
  const Bytes expected = hash->hash(buffer);
  hash->hash_into(buffer, buffer);
  EXPECT_EQ(buffer, expected);
}

TEST_P(HashIntoSweep, HashIntoRejectsWrongOutputSize) {
  const auto hash = make_hash(GetParam());
  Bytes small(hash->digest_size() - 1);
  EXPECT_THROW(hash->hash_into(to_bytes("x"), small), Error);
}

TEST_P(HashIntoSweep, HashPairMatchesConcatenatedOneShot) {
  const auto hash = make_hash(GetParam());
  const Bytes left = to_bytes("left-subtree-digest-material");
  const Bytes right = to_bytes("right-subtree-digest-material!");
  Bytes out(hash->digest_size());
  hash->hash_pair(left, right, out);
  EXPECT_EQ(out, hash->hash(concat_bytes(left, right)));
  // Asymmetric: swapped inputs give a different digest.
  Bytes swapped(hash->digest_size());
  hash->hash_pair(right, left, swapped);
  EXPECT_NE(out, swapped);
}

TEST_P(HashIntoSweep, ContextStreamingMatchesOneShot) {
  const auto hash = make_hash(GetParam());
  Bytes data(1537);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 29 + 5);
  }
  const auto context = hash->new_context();
  for (std::size_t offset = 0; offset < data.size(); offset += 97) {
    const std::size_t take = std::min<std::size_t>(97, data.size() - offset);
    context->update(BytesView(data.data() + offset, take));
  }
  Bytes streamed(hash->digest_size());
  context->finish(streamed);
  EXPECT_EQ(streamed, hash->hash(data));

  // reset() makes the context reusable.
  context->reset();
  context->update(to_bytes("abc"));
  Bytes again(hash->digest_size());
  context->finish(again);
  EXPECT_EQ(again, hash->hash(to_bytes("abc")));
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, HashIntoSweep,
                         ::testing::Values(HashAlgorithm::kMd5,
                                           HashAlgorithm::kSha1,
                                           HashAlgorithm::kSha256));

TEST(HashInto, IteratedHashZeroAllocPathsMatchHash) {
  const auto g = make_iterated_hash(HashAlgorithm::kSha256, 9);
  const Bytes msg = to_bytes("iterated message");
  Bytes out(g->digest_size());
  g->hash_into(msg, out);
  EXPECT_EQ(out, g->hash(msg));

  const Bytes left = to_bytes("L");
  const Bytes right = to_bytes("R");
  Bytes paired(g->digest_size());
  g->hash_pair(left, right, paired);
  EXPECT_EQ(paired, g->hash(concat_bytes(left, right)));

  const auto context = g->new_context();
  context->update(to_bytes("iterated "));
  context->update(to_bytes("message"));
  Bytes streamed(g->digest_size());
  context->finish(streamed);
  EXPECT_EQ(streamed, g->hash(msg));
}

TEST(HashInto, PairX2MatchesTwoHashPairsForAllAlgorithmsAndShapes) {
  // Covers the fused SHA-NI two-stream path (32||32 digests), the one-block
  // leaf shape, mixed/odd sizes, and the default serial fallback of the
  // other algorithms — all must be bit-identical to two hash_pair calls.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {32, 32}, {8, 8}, {32, 8}, {0, 32}, {64, 64}, {7, 121}};
  for (const auto algorithm :
       {HashAlgorithm::kMd5, HashAlgorithm::kSha1, HashAlgorithm::kSha256}) {
    const auto h = make_hash(algorithm);
    for (const auto& [left_size, right_size] : shapes) {
      const Bytes l0(left_size, 0x11), r0(right_size, 0x22);
      const Bytes l1(left_size, 0x33), r1(right_size, 0x44);
      Bytes a(h->digest_size()), b(h->digest_size());
      Bytes x(h->digest_size()), y(h->digest_size());
      h->hash_pair(l0, r0, a);
      h->hash_pair(l1, r1, b);
      h->hash_pair_x2(l0, r0, x, l1, r1, y);
      EXPECT_EQ(a, x) << h->name() << " " << left_size << "/" << right_size;
      EXPECT_EQ(b, y) << h->name() << " " << left_size << "/" << right_size;
    }
    // Mismatched shapes across the two streams.
    const Bytes l0(32, 0x55), r0(32, 0x66), l1(5, 0x77), r1(90, 0x88);
    Bytes a(h->digest_size()), b(h->digest_size());
    Bytes x(h->digest_size()), y(h->digest_size());
    h->hash_pair(l0, r0, a);
    h->hash_pair(l1, r1, b);
    h->hash_pair_x2(l0, r0, x, l1, r1, y);
    EXPECT_EQ(a, x) << h->name();
    EXPECT_EQ(b, y) << h->name();
  }
}

// ------------------------------------------------------------ IteratedHash

TEST(IteratedHash, OneIterationEqualsBase) {
  const auto g = make_iterated_hash(HashAlgorithm::kSha256, 1);
  const Bytes msg = to_bytes("sample");
  EXPECT_EQ(g->hash(msg), Sha256::hash(msg).to_bytes());
}

TEST(IteratedHash, TwoIterationsIsHashOfHash) {
  const auto g = make_iterated_hash(HashAlgorithm::kSha256, 2);
  const Bytes msg = to_bytes("sample");
  const Bytes once = Sha256::hash(msg).to_bytes();
  EXPECT_EQ(g->hash(msg), Sha256::hash(once).to_bytes());
}

TEST(IteratedHash, IterationCountComposes) {
  // H^6(x) == H^2 applied to H^4's digest chain: verify via direct chaining.
  const auto g6 = make_iterated_hash(HashAlgorithm::kMd5, 6);
  Bytes expected = to_bytes("x");
  for (int i = 0; i < 6; ++i) {
    expected = Md5::hash(expected).to_bytes();
  }
  EXPECT_EQ(g6->hash(to_bytes("x")), expected);
}

TEST(IteratedHash, NameEncodesIterations) {
  EXPECT_EQ(make_iterated_hash(HashAlgorithm::kMd5, 1024)->name(), "md5^1024");
}

TEST(IteratedHash, RejectsZeroIterations) {
  EXPECT_THROW(
      IteratedHash(std::shared_ptr<const HashFunction>(
                       make_hash(HashAlgorithm::kMd5)),
                   0),
      Error);
}

TEST(IteratedHash, RejectsNullBase) {
  EXPECT_THROW(IteratedHash(nullptr, 4), Error);
}

// ------------------------------------------------------------------- HMAC
// RFC 2202 (MD5/SHA-1) and RFC 4231 (SHA-256) vectors.

TEST(Hmac, Rfc2202Md5Case1) {
  const Bytes key(16, 0x0b);
  EXPECT_EQ(to_hex(hmac(*make_hash(HashAlgorithm::kMd5), key,
                        to_bytes("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
}

TEST(Hmac, Rfc2202Md5Case2) {
  EXPECT_EQ(to_hex(hmac(*make_hash(HashAlgorithm::kMd5), to_bytes("Jefe"),
                        to_bytes("what do ya want for nothing?"))),
            "750c783e6ab0b503eaa86e310a5db738");
}

TEST(Hmac, Rfc2202Sha1Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac(*make_hash(HashAlgorithm::kSha1), key,
                        to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(Hmac, Rfc4231Sha256Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b"
            "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Sha256Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c7"
            "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f"
            "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const Bytes msg = to_bytes("message");
  EXPECT_NE(hmac_sha256(to_bytes("k1"), msg), hmac_sha256(to_bytes("k2"), msg));
}

}  // namespace
}  // namespace ugc
