#include "aes/gcm.h"

#include <bit>
#include <cstring>

#include "aes/modes.h"

namespace aesifc::aes {

namespace {

// Bit i of a block in SP 800-38D convention: i = 0 is the most significant
// bit of byte 0.
bool blockBit(const Tag128& x, unsigned i) {
  return (x[i / 8] >> (7 - (i % 8))) & 1;
}

// Right shift by one bit in the same convention.
Tag128 shiftRight1(const Tag128& v) {
  Tag128 out{};
  std::uint8_t carry = 0;
  for (unsigned i = 0; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>((v[i] >> 1) | (carry << 7));
    carry = v[i] & 1;
  }
  return out;
}

Tag128 xorTags(Tag128 a, const Tag128& b) {
  for (unsigned i = 0; i < 16; ++i) a[i] ^= b[i];
  return a;
}

// SP 800-38D inc32 via the shared counter helper (32-bit width; CTR mode
// uses the same helper at 64 bits).
void inc32(Block& ctr) { incCounterBe(ctr, 32); }

// GCTR: counter-mode keystream starting at `icb` (inclusive).
std::vector<std::uint8_t> gctr(const ExpandedKey& key, Block icb,
                               const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> out(data.size());
  Block ctr = icb;
  for (std::size_t off = 0; off < data.size(); off += 16) {
    const Block ks = encryptBlock(ctr, key);
    const std::size_t n = std::min<std::size_t>(16, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] = data[off + i] ^ ks[i];
    inc32(ctr);
  }
  return out;
}

// Multiply by x: one right shift plus the x^128 = 1 + x + x^2 + x^7
// reduction (the 0xe1 byte in this bit order).
Tag128 mulX(const Tag128& v) {
  const bool lsb = v[15] & 1;
  Tag128 out = shiftRight1(v);
  if (lsb) out[0] ^= 0xe1;
  return out;
}

// Reduction table for the 4-bit Horner step: rem4[n] is what a 4-bit right
// shift that drops nibble n (its x^124..x^127 coefficients wrapping through
// the reduction polynomial) xors into the product's high word. Built from
// the same single-bit mulX step the naive oracle uses, so the two paths
// cannot disagree on the bit convention.
const std::array<std::uint64_t, 16>& rem4Table() {
  static const auto table = [] {
    std::array<std::uint64_t, 16> t{};
    for (unsigned n = 0; n < 16; ++n) {
      Tag128 v{};
      v[15] = static_cast<std::uint8_t>(n);
      for (unsigned k = 0; k < 4; ++k) v = mulX(v);
      // Only the reduction contribution survives the four shifts, and it
      // lands entirely in the first two bytes (degree <= 10).
      t[n] = std::uint64_t{v[0]} << 56 | std::uint64_t{v[1]} << 48;
    }
    return t;
  }();
  return table;
}

// Bytes b[0..7] as a big-endian word: byte 0 holds the lowest powers, so a
// right shift of the word is a multiply by x^k, as on the byte string.
std::uint64_t toBe(std::uint64_t native) {
  return std::endian::native == std::endian::big ? native
                                                 : __builtin_bswap64(native);
}

std::uint64_t loadBe(const std::uint8_t* b) {
  std::uint64_t v = 0;
  std::memcpy(&v, b, 8);
  return toBe(v);
}

void storeBe(std::uint64_t v, std::uint8_t* b) {
  v = toBe(v);
  std::memcpy(b, &v, 8);
}

void appendPadded(std::vector<std::uint8_t>& s,
                  const std::vector<std::uint8_t>& data) {
  s.insert(s.end(), data.begin(), data.end());
  if (data.size() % 16 != 0) s.insert(s.end(), 16 - data.size() % 16, 0);
}

void appendLen64(std::vector<std::uint8_t>& s, std::uint64_t bytes) {
  const std::uint64_t bits = bytes * 8;
  for (int i = 7; i >= 0; --i)
    s.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

Tag128 computeTag(const ExpandedKey& key, const Tag128& h, const Block& j0,
                  const std::vector<std::uint8_t>& aad,
                  const std::vector<std::uint8_t>& ct) {
  std::vector<std::uint8_t> s;
  s.reserve(((aad.size() + 15) / 16 + (ct.size() + 15) / 16 + 1) * 16);
  appendPadded(s, aad);
  appendPadded(s, ct);
  appendLen64(s, aad.size());
  appendLen64(s, ct.size());
  const Tag128 hash = ghash(h, s);
  const Block e = encryptBlock(j0, key);
  Tag128 tag{};
  for (unsigned i = 0; i < 16; ++i) tag[i] = hash[i] ^ e[i];
  return tag;
}

}  // namespace

Tag128 gf128Mul(const Tag128& x, const Tag128& y) {
  // SP 800-38D Algorithm 1; R = 11100001 || 0^120.
  Tag128 z{};
  Tag128 v = y;
  for (unsigned i = 0; i < 128; ++i) {
    if (blockBit(x, i)) z = xorTags(z, v);
    const bool lsb = v[15] & 1;
    v = shiftRight1(v);
    if (lsb) v[0] ^= 0xe1;
  }
  return z;
}

GhashKey::GhashKey(const Tag128& h) {
  // Basis entries: table_[n] = n·H where bit 3 of the nibble is the x^0
  // coefficient (the leftmost bit of the group, matching the block's
  // leftmost-bit-is-x^0 convention).
  table_[8] = h;
  table_[4] = mulX(table_[8]);
  table_[2] = mulX(table_[4]);
  table_[1] = mulX(table_[2]);
  for (unsigned n = 3; n < 16; ++n) {
    if ((n & (n - 1)) == 0) continue;  // powers of two are basis entries
    table_[n] = xorTags(table_[n & (n - 1)], table_[n & ~(n - 1)]);
  }
}

Tag128 GhashKey::mul(const Tag128& x) const {
  // Horner over the 32 nibbles of x, highest powers first (the low nibble
  // of byte 15 holds x^124..x^127): z = z·x^4 ^ (nibble · H).
  return mulSteps(x, Tag128{}, 0, 32);
}

Tag128 GhashKey::mulSteps(const Tag128& x, Tag128 z, unsigned first,
                          unsigned count) const {
  const auto& rem = rem4Table();
  // z as two big-endian words: hi = bytes 0..7, lo = bytes 8..15.
  std::uint64_t hi = loadBe(z.data()), lo = loadBe(z.data() + 8);
  // Step s walks byte 15 down to 0, low nibble before high — the same
  // order mul() has always used, just re-startable at any step boundary.
  for (unsigned s = first; s < first + count && s < 32; ++s) {
    const unsigned b = 15 - s / 2;
    const unsigned dropped = lo & 0x0F;
    lo = (lo >> 4) | (hi << 60);
    hi = (hi >> 4) ^ rem[dropped];
    const unsigned nib = s % 2 == 0 ? (x[b] & 0x0F) : (x[b] >> 4);
    // The table entry is read at its use, so a flipped table bit lands.
    const Tag128& t = table_[nib];
    hi ^= loadBe(t.data());
    lo ^= loadBe(t.data() + 8);
  }
  storeBe(hi, z.data());
  storeBe(lo, z.data() + 8);
  return z;
}

bool GhashKey::flipTableBit(unsigned entry, unsigned bit) {
  if (entry >= 16 || bit >= 128) return false;
  table_[entry][bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return true;
}

Tag128 ghash(const Tag128& h, const std::vector<std::uint8_t>& data) {
  const GhashKey key{h};
  Tag128 y{};
  for (std::size_t off = 0; off + 16 <= data.size(); off += 16) {
    Tag128 blk{};
    std::memcpy(blk.data(), data.data() + off, 16);
    y = key.mul(xorTags(y, blk));
  }
  return y;
}

Tag128 ghashNaive(const Tag128& h, const std::vector<std::uint8_t>& data) {
  Tag128 y{};
  for (std::size_t off = 0; off + 16 <= data.size(); off += 16) {
    Tag128 blk{};
    std::memcpy(blk.data(), data.data() + off, 16);
    y = gf128Mul(xorTags(y, blk), h);
  }
  return y;
}

Block deriveJ0(const Tag128& h, const std::vector<std::uint8_t>& iv) {
  Block j0{};
  if (iv.size() == 12) {
    std::memcpy(j0.data(), iv.data(), 12);
    j0[15] = 1;
    return j0;
  }
  std::vector<std::uint8_t> s;
  s.reserve(((iv.size() + 15) / 16 + 1) * 16);
  appendPadded(s, iv);
  appendLen64(s, 0);
  appendLen64(s, iv.size());
  const Tag128 y = ghash(h, s);
  std::memcpy(j0.data(), y.data(), 16);
  return j0;
}

GcmResult gcmEncrypt(const std::vector<std::uint8_t>& plaintext,
                     const std::vector<std::uint8_t>& aad,
                     const ExpandedKey& key,
                     const std::vector<std::uint8_t>& iv) {
  const Block zero{};
  const Block h_block = encryptBlock(zero, key);
  Tag128 h{};
  std::memcpy(h.data(), h_block.data(), 16);

  const Block j0 = deriveJ0(h, iv);
  Block icb = j0;
  inc32(icb);

  GcmResult r;
  r.ciphertext = gctr(key, icb, plaintext);
  r.tag = computeTag(key, h, j0, aad, r.ciphertext);
  return r;
}

GcmResult gcmEncrypt(const std::vector<std::uint8_t>& plaintext,
                     const std::vector<std::uint8_t>& aad,
                     const ExpandedKey& key,
                     const std::array<std::uint8_t, 12>& iv) {
  return gcmEncrypt(plaintext, aad, key,
                    std::vector<std::uint8_t>(iv.begin(), iv.end()));
}

std::optional<std::vector<std::uint8_t>> gcmDecrypt(
    const std::vector<std::uint8_t>& ciphertext,
    const std::vector<std::uint8_t>& aad, const Tag128& tag,
    const ExpandedKey& key, const std::vector<std::uint8_t>& iv) {
  const Block zero{};
  const Block h_block = encryptBlock(zero, key);
  Tag128 h{};
  std::memcpy(h.data(), h_block.data(), 16);

  const Block j0 = deriveJ0(h, iv);

  const Tag128 expect = computeTag(key, h, j0, aad, ciphertext);
  // Constant-time comparison (no early exit on mismatch).
  std::uint8_t diff = 0;
  for (unsigned i = 0; i < 16; ++i) diff |= expect[i] ^ tag[i];
  if (diff != 0) return std::nullopt;

  Block icb = j0;
  inc32(icb);
  return gctr(key, icb, ciphertext);
}

std::optional<std::vector<std::uint8_t>> gcmDecrypt(
    const std::vector<std::uint8_t>& ciphertext,
    const std::vector<std::uint8_t>& aad, const Tag128& tag,
    const ExpandedKey& key, const std::array<std::uint8_t, 12>& iv) {
  return gcmDecrypt(ciphertext, aad, tag, key,
                    std::vector<std::uint8_t>(iv.begin(), iv.end()));
}

}  // namespace aesifc::aes
