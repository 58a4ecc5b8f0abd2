#include <gtest/gtest.h>

#include "aes/cipher.h"
#include "aes/gf256.h"
#include "aes/sbox.h"
#include "aes/ttable.h"
#include "common/rng.h"

namespace aesifc::aes {
namespace {

Block hexBlock(const std::string& hex) {
  Block b{};
  for (unsigned i = 0; i < 16; ++i) {
    b[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return b;
}

std::vector<std::uint8_t> hexBytes(const std::string& hex) {
  std::vector<std::uint8_t> v(hex.size() / 2);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return v;
}

// --- GF(2^8) -------------------------------------------------------------------

TEST(Gf256, KnownProducts) {
  EXPECT_EQ(gfMul(0x57, 0x83), 0xc1);  // FIPS-197 Section 4.2 example
  EXPECT_EQ(gfMul(0x57, 0x13), 0xfe);
  EXPECT_EQ(gfMul(0x01, 0xab), 0xab);
  EXPECT_EQ(gfMul(0x00, 0xab), 0x00);
}

TEST(Gf256, MultiplicationCommutesAndDistributes) {
  Rng rng{3};
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next());
    const auto b = static_cast<std::uint8_t>(rng.next());
    const auto c = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(gfMul(a, b), gfMul(b, a));
    EXPECT_EQ(gfMul(a, static_cast<std::uint8_t>(b ^ c)),
              gfMul(a, b) ^ gfMul(a, c));
  }
}

TEST(Gf256, InverseIsInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(gfMul(static_cast<std::uint8_t>(a),
                    gfInv(static_cast<std::uint8_t>(a))),
              1)
        << "a=" << a;
  }
  EXPECT_EQ(gfInv(0), 0);  // AES convention
}

TEST(Gf256, XtimeMatchesMulByTwo) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(xtime(static_cast<std::uint8_t>(a)),
              gfMul(static_cast<std::uint8_t>(a), 2));
  }
}

// --- S-box -----------------------------------------------------------------------

TEST(Sbox, FipsSpotValues) {
  EXPECT_EQ(sbox(0x00), 0x63);
  EXPECT_EQ(sbox(0x53), 0xed);
  EXPECT_EQ(sbox(0xff), 0x16);
  EXPECT_EQ(invSbox(0x63), 0x00);
}

TEST(Sbox, IsBijectionAndSelfInverse) {
  bool seen[256] = {};
  for (unsigned x = 0; x < 256; ++x) {
    const auto y = sbox(static_cast<std::uint8_t>(x));
    EXPECT_FALSE(seen[y]);
    seen[y] = true;
    EXPECT_EQ(invSbox(y), x);
  }
}

TEST(Sbox, NoFixedPoints) {
  for (unsigned x = 0; x < 256; ++x) {
    EXPECT_NE(sbox(static_cast<std::uint8_t>(x)), x);
    EXPECT_NE(sbox(static_cast<std::uint8_t>(x)), x ^ 0xff);
  }
}

// --- Round operations ---------------------------------------------------------

TEST(RoundOps, ShiftRowsInverse) {
  Rng rng{7};
  for (int i = 0; i < 50; ++i) {
    State s{};
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
    State t = s;
    shiftRows(t);
    invShiftRows(t);
    EXPECT_EQ(t, s);
  }
}

// The round kernels use xtime (forward) and the FIPS-197 pre-multiply
// factoring (inverse); the matrix products below, spelled with gfMul, are
// the reference they must reproduce.
State mixColumnsByMatrix(const State& s, const std::uint8_t (&row)[4]) {
  State out{};
  for (unsigned c = 0; c < 4; ++c) {
    for (unsigned r = 0; r < 4; ++r) {
      std::uint8_t acc = 0;
      for (unsigned k = 0; k < 4; ++k)
        acc ^= gfMul(row[(k + 4 - r) % 4], s[k + 4 * c]);
      out[r + 4 * c] = acc;
    }
  }
  return out;
}

TEST(RoundOps, MixColumnsMatchGfMulReference) {
  static constexpr std::uint8_t kFwd[4] = {2, 3, 1, 1};
  static constexpr std::uint8_t kInv[4] = {14, 11, 13, 9};
  Rng rng{9};
  for (int i = 0; i < 10000; ++i) {
    State s{};
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
    State f = s;
    mixColumns(f);
    ASSERT_EQ(f, mixColumnsByMatrix(s, kFwd)) << "state " << i;
    State v = s;
    invMixColumns(v);
    ASSERT_EQ(v, mixColumnsByMatrix(s, kInv)) << "state " << i;
  }
}

TEST(RoundOps, MixColumnsInverse) {
  Rng rng{8};
  for (int i = 0; i < 10000; ++i) {
    State s{};
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
    State t = s;
    mixColumns(t);
    invMixColumns(t);
    ASSERT_EQ(t, s);
    invMixColumns(t);
    mixColumns(t);
    ASSERT_EQ(t, s);
  }
}

TEST(RoundOps, SubBytesInverse) {
  State s{};
  for (unsigned i = 0; i < 16; ++i) s[i] = static_cast<std::uint8_t>(i * 17);
  State t = s;
  subBytes(t);
  invSubBytes(t);
  EXPECT_EQ(t, s);
}

TEST(RoundOps, MixColumnsFipsExample) {
  // FIPS-197 / common test vector: column d4 bf 5d 30 -> 04 66 81 e5.
  State s{};
  s[0] = 0xd4;
  s[1] = 0xbf;
  s[2] = 0x5d;
  s[3] = 0x30;
  mixColumns(s);
  EXPECT_EQ(s[0], 0x04);
  EXPECT_EQ(s[1], 0x66);
  EXPECT_EQ(s[2], 0x81);
  EXPECT_EQ(s[3], 0xe5);
}

TEST(RoundOps, AddRoundKeyIsInvolution) {
  State s{};
  RoundKey rk{};
  for (unsigned i = 0; i < 16; ++i) {
    s[i] = static_cast<std::uint8_t>(i);
    rk[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  State t = s;
  addRoundKey(t, rk);
  addRoundKey(t, rk);
  EXPECT_EQ(t, s);
}

// --- Key schedule ----------------------------------------------------------------

TEST(KeySchedule, Fips197Appendix128) {
  const auto key = hexBytes("2b7e151628aed2a6abf7158809cf4f3c");
  const auto ek = expandKey(key, KeySize::Aes128);
  ASSERT_EQ(ek.round_keys.size(), 11u);
  // w[4..7] of the expansion (round key 1) from FIPS-197 Appendix A.1.
  const RoundKey rk1 = ek.round_keys[1];
  const Block want = hexBlock("a0fafe1788542cb123a339392a6c7605");
  EXPECT_EQ(RoundKey(want), rk1);
  // Final round key (round 10).
  const Block want10 = hexBlock("d014f9a8c9ee2589e13f0cc8b6630ca6");
  EXPECT_EQ(RoundKey(want10), ek.round_keys[10]);
}

TEST(KeySchedule, RoundCounts) {
  std::vector<std::uint8_t> k16(16), k24(24), k32(32);
  EXPECT_EQ(expandKey(k16, KeySize::Aes128).round_keys.size(), 11u);
  EXPECT_EQ(expandKey(k24, KeySize::Aes192).round_keys.size(), 13u);
  EXPECT_EQ(expandKey(k32, KeySize::Aes256).round_keys.size(), 15u);
}

// --- FIPS-197 Appendix C known-answer tests ------------------------------------

TEST(Cipher, Fips197AppendixC1_Aes128) {
  const Block pt = hexBlock("00112233445566778899aabbccddeeff");
  const auto key = hexBytes("000102030405060708090a0b0c0d0e0f");
  const Block want = hexBlock("69c4e0d86a7b0430d8cdb78070b4c55a");
  EXPECT_EQ(encryptBlock(pt, key.data(), KeySize::Aes128), want);
  EXPECT_EQ(decryptBlock(want, key.data(), KeySize::Aes128), pt);
}

TEST(Cipher, Fips197AppendixC2_Aes192) {
  const Block pt = hexBlock("00112233445566778899aabbccddeeff");
  const auto key =
      hexBytes("000102030405060708090a0b0c0d0e0f1011121314151617");
  const Block want = hexBlock("dda97ca4864cdfe06eaf70a0ec0d7191");
  EXPECT_EQ(encryptBlock(pt, key.data(), KeySize::Aes192), want);
  EXPECT_EQ(decryptBlock(want, key.data(), KeySize::Aes192), pt);
}

TEST(Cipher, Fips197AppendixC3_Aes256) {
  const Block pt = hexBlock("00112233445566778899aabbccddeeff");
  const auto key = hexBytes(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Block want = hexBlock("8ea2b7ca516745bfeafc49904b496089");
  EXPECT_EQ(encryptBlock(pt, key.data(), KeySize::Aes256), want);
  EXPECT_EQ(decryptBlock(want, key.data(), KeySize::Aes256), pt);
}

TEST(Cipher, Fips197AppendixB) {
  const Block pt = hexBlock("3243f6a8885a308d313198a2e0370734");
  const auto key = hexBytes("2b7e151628aed2a6abf7158809cf4f3c");
  const Block want = hexBlock("3925841d02dc09fbdc118597196a0b32");
  EXPECT_EQ(encryptBlock(pt, key.data(), KeySize::Aes128), want);
}

// --- Properties -------------------------------------------------------------------

class CipherPropertyTest : public ::testing::TestWithParam<KeySize> {};

TEST_P(CipherPropertyTest, DecryptInvertsEncrypt) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 100};
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> key(keyBytes(GetParam()));
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    Block pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    const auto ek = expandKey(key, GetParam());
    EXPECT_EQ(decryptBlock(encryptBlock(pt, ek), ek), pt);
  }
}

TEST_P(CipherPropertyTest, AvalancheOnPlaintextBit) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 200};
  std::vector<std::uint8_t> key(keyBytes(GetParam()));
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  const auto ek = expandKey(key, GetParam());
  Block pt{};
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
  const Block c0 = encryptBlock(pt, ek);
  Block pt2 = pt;
  pt2[0] ^= 1;  // single-bit flip
  const Block c1 = encryptBlock(pt2, ek);
  unsigned diff = 0;
  for (unsigned i = 0; i < 16; ++i)
    diff += static_cast<unsigned>(__builtin_popcount(c0[i] ^ c1[i]));
  // Expect roughly half the 128 bits to flip; accept a generous band.
  EXPECT_GT(diff, 30u);
  EXPECT_LT(diff, 98u);
}

TEST_P(CipherPropertyTest, KeySensitivity) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 300};
  std::vector<std::uint8_t> key(keyBytes(GetParam()));
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  Block pt{};
  const Block c0 = encryptBlock(pt, expandKey(key, GetParam()));
  key[0] ^= 1;
  const Block c1 = encryptBlock(pt, expandKey(key, GetParam()));
  EXPECT_NE(c0, c1);
}

// The word-wise kernels the accelerator pipe finishes blocks with must give
// the byte-wise reference cipher's answer, from the state after the entry
// AddRoundKey, in both directions.
TEST_P(CipherPropertyTest, WordWiseRoundsMatchReferenceCipher) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 400};
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> key(keyBytes(GetParam()));
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    Block in{};
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
    const auto ek = expandKey(key, GetParam());
    const unsigned nr = ek.rounds();

    State enc = blockToState(in);
    addRoundKey(enc, ek.round_keys[0]);
    encryptRounds(enc, ek.round_keys, nr);
    EXPECT_EQ(stateToBlock(enc), encryptBlock(in, ek));

    State dec = blockToState(in);
    addRoundKey(dec, ek.round_keys[nr]);
    decryptRounds(dec, ek.round_keys, nr);
    EXPECT_EQ(stateToBlock(dec), decryptBlock(in, ek));
  }
  // Too few round keys for the round count is refused, not read past.
  const auto ek = expandKey(std::vector<std::uint8_t>(16, 1), KeySize::Aes128);
  State s{};
  EXPECT_THROW(encryptRounds(s, ek.round_keys, 14), std::out_of_range);
  EXPECT_THROW(decryptRounds(s, ek.round_keys, 14), std::out_of_range);
}

// The kernels read round keys from RAM as stored, so they must match the
// byte-wise micro-ops for any round keys, not only an expanded schedule:
// a flipped key bit has to land at the exit as the micro-ops would land
// it. The decrypt kernel unmixes each round key as it reads it, which
// holds because InvMixColumns is linear.
TEST(WordWiseRounds, MatchTheMicroOpsUnderRandomRoundKeys) {
  Rng rng{909};
  for (const unsigned nr : {1u, 2u, 10u, 12u, 14u}) {
    for (int i = 0; i < 64; ++i) {
      std::vector<RoundKey> rk(nr + 1);
      for (auto& k : rk)
        for (auto& b : k) b = static_cast<std::uint8_t>(rng.next());
      State in{};
      for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());

      State enc = in, want_enc = in;
      encryptRounds(enc, rk, nr);
      for (unsigned r = 1; r <= nr; ++r) {
        subBytes(want_enc);
        shiftRows(want_enc);
        if (r < nr) mixColumns(want_enc);
        addRoundKey(want_enc, rk[r]);
      }
      EXPECT_EQ(enc, want_enc) << "nr " << nr;

      State dec = in, want_dec = in;
      decryptRounds(dec, rk, nr);
      for (unsigned r = 1; r <= nr; ++r) {
        invShiftRows(want_dec);
        invSubBytes(want_dec);
        addRoundKey(want_dec, rk[nr - r]);
        if (r < nr) invMixColumns(want_dec);
      }
      EXPECT_EQ(dec, want_dec) << "nr " << nr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKeySizes, CipherPropertyTest,
                         ::testing::Values(KeySize::Aes128, KeySize::Aes192,
                                           KeySize::Aes256));

}  // namespace
}  // namespace aesifc::aes
