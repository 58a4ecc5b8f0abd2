#include "aes/gcm.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aesifc::aes {
namespace {

std::vector<std::uint8_t> hexBytes(const std::string& hex) {
  std::vector<std::uint8_t> v(hex.size() / 2);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return v;
}

Tag128 tagOf(const std::string& hex) {
  Tag128 t{};
  const auto b = hexBytes(hex);
  std::copy(b.begin(), b.end(), t.begin());
  return t;
}

// --- GF(2^128) ------------------------------------------------------------------

TEST(Gf128, MultiplicationByZeroAndCommutes) {
  Rng rng{1};
  const Tag128 zero{};
  for (int i = 0; i < 20; ++i) {
    Tag128 a{}, b{};
    for (auto& x : a) x = static_cast<std::uint8_t>(rng.next());
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(gf128Mul(a, zero), zero);
    EXPECT_EQ(gf128Mul(zero, a), zero);
    EXPECT_EQ(gf128Mul(a, b), gf128Mul(b, a));
  }
}

TEST(Gf128, DistributesOverXor) {
  Rng rng{2};
  for (int i = 0; i < 20; ++i) {
    Tag128 a{}, b{}, c{};
    for (auto& x : a) x = static_cast<std::uint8_t>(rng.next());
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    for (auto& x : c) x = static_cast<std::uint8_t>(rng.next());
    Tag128 bc{};
    for (unsigned k = 0; k < 16; ++k) bc[k] = b[k] ^ c[k];
    const Tag128 left = gf128Mul(a, bc);
    const Tag128 ab = gf128Mul(a, b);
    const Tag128 ac = gf128Mul(a, c);
    Tag128 right{};
    for (unsigned k = 0; k < 16; ++k) right[k] = ab[k] ^ ac[k];
    EXPECT_EQ(left, right);
  }
}

TEST(Gf128, IdentityElement) {
  // The multiplicative identity is the block 1 || 0^127 (leftmost bit set).
  Tag128 one{};
  one[0] = 0x80;
  Rng rng{3};
  for (int i = 0; i < 20; ++i) {
    Tag128 a{};
    for (auto& x : a) x = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(gf128Mul(a, one), a);
    EXPECT_EQ(gf128Mul(one, a), a);
  }
}

// --- NIST GCM test cases -----------------------------------------------------------

TEST(Gcm, NistCase1EmptyPlaintext) {
  // AES-128, key = 0^128, IV = 0^96, empty plaintext and AAD.
  const auto key = expandKey(std::vector<std::uint8_t>(16, 0), KeySize::Aes128);
  std::array<std::uint8_t, 12> iv{};
  const auto r = gcmEncrypt({}, {}, key, iv);
  EXPECT_TRUE(r.ciphertext.empty());
  EXPECT_EQ(r.tag, tagOf("58e2fccefa7e3061367f1d57a4e7455a"));
}

TEST(Gcm, NistCase2OneZeroBlock) {
  const auto key = expandKey(std::vector<std::uint8_t>(16, 0), KeySize::Aes128);
  std::array<std::uint8_t, 12> iv{};
  const auto r = gcmEncrypt(std::vector<std::uint8_t>(16, 0), {}, key, iv);
  EXPECT_EQ(r.ciphertext, hexBytes("0388dace60b6a392f328c2b971b2fe78"));
  EXPECT_EQ(r.tag, tagOf("ab6e47d42cec13bdf53a67b21257bddf"));
}

// --- Round trips & tamper detection ------------------------------------------------

class GcmRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmRoundTripTest, DecryptInvertsEncrypt) {
  Rng rng{GetParam() + 10};
  std::vector<std::uint8_t> kb(16);
  for (auto& b : kb) b = static_cast<std::uint8_t>(rng.next());
  const auto key = expandKey(kb, KeySize::Aes128);
  std::array<std::uint8_t, 12> iv{};
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());

  std::vector<std::uint8_t> pt(GetParam());
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> aad(7);
  for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next());

  const auto enc = gcmEncrypt(pt, aad, key, iv);
  const auto dec = gcmDecrypt(enc.ciphertext, aad, enc.tag, key, iv);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, pt);
}

TEST_P(GcmRoundTripTest, TamperedCiphertextRejected) {
  Rng rng{GetParam() + 20};
  std::vector<std::uint8_t> kb(16);
  for (auto& b : kb) b = static_cast<std::uint8_t>(rng.next());
  const auto key = expandKey(kb, KeySize::Aes128);
  std::array<std::uint8_t, 12> iv{};

  std::vector<std::uint8_t> pt(GetParam() == 0 ? 16 : GetParam());
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
  auto enc = gcmEncrypt(pt, {}, key, iv);
  enc.ciphertext[0] ^= 1;
  EXPECT_FALSE(gcmDecrypt(enc.ciphertext, {}, enc.tag, key, iv).has_value());
}

TEST_P(GcmRoundTripTest, TamperedAadRejected) {
  Rng rng{GetParam() + 30};
  std::vector<std::uint8_t> kb(16);
  for (auto& b : kb) b = static_cast<std::uint8_t>(rng.next());
  const auto key = expandKey(kb, KeySize::Aes128);
  std::array<std::uint8_t, 12> iv{};

  std::vector<std::uint8_t> pt(GetParam());
  std::vector<std::uint8_t> aad{1, 2, 3};
  const auto enc = gcmEncrypt(pt, aad, key, iv);
  aad[0] ^= 1;
  EXPECT_FALSE(gcmDecrypt(enc.ciphertext, aad, enc.tag, key, iv).has_value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmRoundTripTest,
                         ::testing::Values(0u, 1u, 15u, 16u, 17u, 64u, 100u));

TEST(Gcm, TamperedTagRejected) {
  const auto key = expandKey(std::vector<std::uint8_t>(16, 7), KeySize::Aes128);
  std::array<std::uint8_t, 12> iv{};
  auto enc = gcmEncrypt(std::vector<std::uint8_t>(32, 9), {}, key, iv);
  enc.tag[15] ^= 0x80;
  EXPECT_FALSE(gcmDecrypt(enc.ciphertext, {}, enc.tag, key, iv).has_value());
}

// --- SP 800-38D test cases 3 & 4 (AES-128, 96-bit IV) ---------------------------

TEST(Gcm, NistCase3FourBlocks) {
  const auto key = expandKey(hexBytes("feffe9928665731c6d6a8f9467308308"),
                             KeySize::Aes128);
  std::array<std::uint8_t, 12> iv{};
  const auto ivb = hexBytes("cafebabefacedbaddecaf888");
  std::copy(ivb.begin(), ivb.end(), iv.begin());
  const auto pt = hexBytes(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const auto r = gcmEncrypt(pt, {}, key, iv);
  EXPECT_EQ(r.ciphertext,
            hexBytes("42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e0"
                     "35c17e2329aca12e21d514b25466931c7d8f6a5aac84aa05"
                     "1ba30b396a0aac973d58e091473f5985"));
  EXPECT_EQ(r.tag, tagOf("4d5c2af327cd64a62cf35abd2ba6fab4"));
  // And the inverse direction authenticates and round-trips.
  const auto dec = gcmDecrypt(r.ciphertext, {}, r.tag, key, iv);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, pt);
}

TEST(Gcm, NistCase4WithAad) {
  const auto key = expandKey(hexBytes("feffe9928665731c6d6a8f9467308308"),
                             KeySize::Aes128);
  std::array<std::uint8_t, 12> iv{};
  const auto ivb = hexBytes("cafebabefacedbaddecaf888");
  std::copy(ivb.begin(), ivb.end(), iv.begin());
  const auto pt = hexBytes(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const auto aad = hexBytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const auto r = gcmEncrypt(pt, aad, key, iv);
  EXPECT_EQ(r.ciphertext,
            hexBytes("42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e0"
                     "35c17e2329aca12e21d514b25466931c7d8f6a5aac84aa05"
                     "1ba30b396a0aac973d58e091"));
  EXPECT_EQ(r.tag, tagOf("5bc94fbc3221a5db94fae95ae7121a47"));
  // Tamper rejection on the authenticated data of a standard vector.
  auto bad_aad = aad;
  bad_aad.back() ^= 0x01;
  EXPECT_FALSE(gcmDecrypt(r.ciphertext, bad_aad, r.tag, key, iv).has_value());
}

// --- SP 800-38D test cases 5 & 6 (AES-128, non-96-bit IVs) ----------------------

TEST(Gcm, NistCase5ShortIv) {
  // 64-bit IV: J0 goes through the GHASH derivation path, not IV || 0^31 1.
  const auto key = expandKey(hexBytes("feffe9928665731c6d6a8f9467308308"),
                             KeySize::Aes128);
  const auto iv = hexBytes("cafebabefacedbad");
  const auto pt = hexBytes(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const auto aad = hexBytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const auto r = gcmEncrypt(pt, aad, key, iv);
  EXPECT_EQ(r.ciphertext,
            hexBytes("61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f8"
                     "3766e5f97b6c742373806900e49f24b22b097544d4896b42"
                     "4989b5e1ebac0f07c23f4598"));
  EXPECT_EQ(r.tag, tagOf("3612d2e79e3b0785561be14aaca2fccb"));
  const auto dec = gcmDecrypt(r.ciphertext, aad, r.tag, key, iv);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, pt);
}

TEST(Gcm, NistCase6LongIv) {
  // 480-bit IV: multiple GHASH blocks in the J0 derivation.
  const auto key = expandKey(hexBytes("feffe9928665731c6d6a8f9467308308"),
                             KeySize::Aes128);
  const auto iv = hexBytes(
      "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
      "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b");
  const auto pt = hexBytes(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const auto aad = hexBytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const auto r = gcmEncrypt(pt, aad, key, iv);
  EXPECT_EQ(r.ciphertext,
            hexBytes("8ce24998625615b603a033aca13fb894be9112a5c3a211a8"
                     "ba262a3cca7e2ca701e4a9a4fba43c90ccdcb281d48c7c6f"
                     "d62875d2aca417034c34aee5"));
  EXPECT_EQ(r.tag, tagOf("619cc5aefffe0bfa462af43c1699d050"));
  const auto dec = gcmDecrypt(r.ciphertext, aad, r.tag, key, iv);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, pt);
}

TEST(Gcm, DeriveJ0MatchesGhashDefinition) {
  // For a non-96-bit IV, J0 = GHASH_H(IV || pad || 0^64 || [len(IV)]_64).
  Rng rng{44};
  Tag128 h{};
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
  for (const std::size_t len : {1u, 8u, 16u, 20u, 60u}) {
    std::vector<std::uint8_t> iv(len);
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> msg = iv;
    msg.resize((len + 15) / 16 * 16, 0);
    msg.resize(msg.size() + 8, 0);
    const std::uint64_t bits = 8ULL * len;
    for (int i = 7; i >= 0; --i)
      msg.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    const Tag128 want = ghashNaive(h, msg);
    Block j0 = deriveJ0(h, iv);
    Tag128 got{};
    std::copy(j0.begin(), j0.end(), got.begin());
    EXPECT_EQ(got, want) << "iv len=" << len;
  }
}

// --- Table-driven GHASH vs the bit-at-a-time oracle -----------------------------

TEST(Gf128, GhashKeyMulMatchesGf128Mul) {
  Rng rng{42};
  for (int i = 0; i < 50; ++i) {
    Tag128 h{}, x{};
    for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : x) b = static_cast<std::uint8_t>(rng.next());
    const GhashKey gk{h};
    EXPECT_EQ(gk.mul(x), gf128Mul(x, h));
  }
}

TEST(Gf128, GhashMatchesNaiveOracle) {
  Rng rng{43};
  for (const std::size_t len : {0u, 16u, 32u, 160u, 1024u}) {
    Tag128 h{};
    for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(ghash(h, data), ghashNaive(h, data)) << "len=" << len;
  }
}

// The staged multiplier runs mulSteps a few nibble-steps at a time; any
// split of the 32 steps must compose to the definition's product, and a
// GHASH chained through such splits to the bit-at-a-time oracle.
TEST(Gf128, MulStepsComposeOverAnySplit) {
  Rng rng{45};
  const auto randomTag = [&] {
    Tag128 t{};
    for (auto& b : t) b = static_cast<std::uint8_t>(rng.next());
    return t;
  };
  const auto splitMul = [&](const GhashKey& gk, const Tag128& x) {
    Tag128 z{};
    for (unsigned s = 0; s < 32;) {
      const unsigned count = 1 + static_cast<unsigned>(rng.below(12));
      z = gk.mulSteps(x, z, s, count);
      s += count;
    }
    return z;
  };
  for (int i = 0; i < 50; ++i) {
    const Tag128 h = randomTag(), x = randomTag();
    const GhashKey gk{h};
    EXPECT_EQ(splitMul(gk, x), gf128Mul(x, h));
  }
  const Tag128 h = randomTag();
  const GhashKey gk{h};
  std::vector<std::uint8_t> data(16 * 9);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  Tag128 y{};
  for (std::size_t off = 0; off < data.size(); off += 16) {
    for (unsigned j = 0; j < 16; ++j) y[j] ^= data[off + j];
    y = splitMul(gk, y);
  }
  EXPECT_EQ(y, ghashNaive(h, data));
}

// A flipped table bit is read by the very next multiply that uses its
// entry (the hardened unit's checksum, not a stale copy, must catch it).
TEST(Gf128, FlippedTableBitChangesTheProduct) {
  Rng rng{46};
  Tag128 h{};
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
  for (unsigned entry = 1; entry < 16; ++entry) {
    for (const unsigned bit : {0u, 63u, 64u, 127u}) {
      GhashKey gk{h};
      // Every nibble of x selects `entry`, so the flipped entry is used.
      Tag128 x{};
      x.fill(static_cast<std::uint8_t>(entry << 4 | entry));
      const Tag128 clean = gk.mul(x);
      ASSERT_TRUE(gk.flipTableBit(entry, bit));
      EXPECT_NE(gk.mul(x), clean) << "entry " << entry << " bit " << bit;
    }
  }
}

TEST(Gcm, DifferentIvsGiveDifferentCiphertexts) {
  const auto key = expandKey(std::vector<std::uint8_t>(16, 7), KeySize::Aes128);
  std::array<std::uint8_t, 12> iv1{}, iv2{};
  iv2[0] = 1;
  const std::vector<std::uint8_t> pt(16, 0x42);
  EXPECT_NE(gcmEncrypt(pt, {}, key, iv1).ciphertext,
            gcmEncrypt(pt, {}, key, iv2).ciphertext);
}

}  // namespace
}  // namespace aesifc::aes
