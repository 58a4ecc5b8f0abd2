#include "aes/ttable.h"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "aes/gf256.h"
#include "aes/sbox.h"

namespace aesifc::aes {

namespace {

// A state column as a word: row r in bits 8r..8r+7.
using Cols = std::array<std::uint32_t, 4>;

std::uint32_t pack(std::uint8_t r0, std::uint8_t r1, std::uint8_t r2,
                   std::uint8_t r3) {
  return std::uint32_t{r0} | std::uint32_t{r1} << 8 | std::uint32_t{r2} << 16 |
         std::uint32_t{r3} << 24;
}

std::uint8_t row(std::uint32_t col, unsigned r) {
  return static_cast<std::uint8_t>(col >> (8 * r));
}

// Column words are little-endian (row 0 in the low byte) on every host;
// a big-endian host swaps each word it loads or stores.
std::uint32_t toLittle(std::uint32_t w) {
  if constexpr (std::endian::native == std::endian::big) {
    return (w >> 24) | (w >> 8 & 0xff00u) | (w << 8 & 0xff0000u) | (w << 24);
  }
  return w;
}

Cols load(const std::array<std::uint8_t, 16>& b) {
  Cols w;
  std::memcpy(w.data(), b.data(), 16);
  for (auto& c : w) c = toLittle(c);
  return w;
}

void store(Cols w, State& s) {
  for (auto& c : w) c = toLittle(c);
  std::memcpy(s.data(), w.data(), 16);
}

// te[r][x]: the MixColumns column contributed by S(x) sitting in row r
// (column {02,01,01,03}·S(x), rotated down r rows). im[r][x]: the same for
// InvMixColumns of a bare x (column {0e,09,0d,0b}·x); td[r][x] is
// im[r][InvS(x)], InvSubBytes and InvMixColumns in one lookup.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> te{};
  std::array<std::array<std::uint32_t, 256>, 4> im{};
  std::array<std::array<std::uint32_t, 256>, 4> td{};
  const std::uint8_t* s = sboxTable();
  const std::uint8_t* inv = invSboxTable();
  Tables() {
    for (unsigned x = 0; x < 256; ++x) {
      const auto b = static_cast<std::uint8_t>(x);
      const std::uint8_t y = s[x];
      const std::uint32_t t = pack(xtime(y), y, y, gfMul(y, 3));
      const std::uint32_t m =
          pack(gfMul(b, 0x0e), gfMul(b, 0x09), gfMul(b, 0x0d), gfMul(b, 0x0b));
      for (unsigned r = 0; r < 4; ++r) {
        te[r][x] = std::rotl(t, static_cast<int>(8 * r));
        im[r][x] = std::rotl(m, static_cast<int>(8 * r));
      }
    }
    for (unsigned r = 0; r < 4; ++r)
      for (unsigned x = 0; x < 256; ++x) td[r][x] = im[r][inv[x]];
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

void checkKeys(const std::vector<RoundKey>& rk, unsigned nr) {
  if (rk.size() <= nr) throw std::out_of_range("aes: too few round keys");
}

}  // namespace

void encryptRounds(State& s, const std::vector<RoundKey>& rk, unsigned nr) {
  checkKeys(rk, nr);
  const Tables& t = tables();
  // One output column: ShiftRows puts row i of column c + i in row i of
  // column c, so the caller passes the four source columns in that order.
  const auto mixed = [&t](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                          std::uint32_t d) {
    return t.te[0][row(a, 0)] ^ t.te[1][row(b, 1)] ^ t.te[2][row(c, 2)] ^
           t.te[3][row(d, 3)];
  };
  const auto last = [&t](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                         std::uint32_t d) {
    return pack(t.s[row(a, 0)], t.s[row(b, 1)], t.s[row(c, 2)],
                t.s[row(d, 3)]);
  };
  Cols w = load(s);
  for (unsigned r = 1; r < nr; ++r) {
    const Cols k = load(rk[r]);
    w = {mixed(w[0], w[1], w[2], w[3]) ^ k[0],
         mixed(w[1], w[2], w[3], w[0]) ^ k[1],
         mixed(w[2], w[3], w[0], w[1]) ^ k[2],
         mixed(w[3], w[0], w[1], w[2]) ^ k[3]};
  }
  const Cols k = load(rk[nr]);  // the final round has no MixColumns
  w = {last(w[0], w[1], w[2], w[3]) ^ k[0], last(w[1], w[2], w[3], w[0]) ^ k[1],
       last(w[2], w[3], w[0], w[1]) ^ k[2], last(w[3], w[0], w[1], w[2]) ^ k[3]};
  store(w, s);
}

void decryptRounds(State& s, const std::vector<RoundKey>& rk, unsigned nr) {
  checkKeys(rk, nr);
  const Tables& t = tables();
  // InvShiftRows + InvSubBytes for one output column: row i comes from
  // column c - i.
  const auto unsub = [&t](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                          std::uint32_t d) {
    return pack(t.inv[row(a, 0)], t.inv[row(b, 1)], t.inv[row(c, 2)],
                t.inv[row(d, 3)]);
  };
  // The same, then InvMixColumns of the column.
  const auto unsubMixed = [&t](std::uint32_t a, std::uint32_t b,
                               std::uint32_t c, std::uint32_t d) {
    return t.td[0][row(a, 0)] ^ t.td[1][row(b, 1)] ^ t.td[2][row(c, 2)] ^
           t.td[3][row(d, 3)];
  };
  const auto unmix = [&t](std::uint32_t u) {
    return t.im[0][row(u, 0)] ^ t.im[1][row(u, 1)] ^ t.im[2][row(u, 2)] ^
           t.im[3][row(u, 3)];
  };
  // InvMixColumns is linear, so InvMixColumns(x ^ k) is InvMixColumns(x) ^
  // InvMixColumns(k): each round key is unmixed as it is read.
  Cols w = load(s);
  for (unsigned r = 1; r < nr; ++r) {
    const Cols k = load(rk[nr - r]);
    w = {unsubMixed(w[0], w[3], w[2], w[1]) ^ unmix(k[0]),
         unsubMixed(w[1], w[0], w[3], w[2]) ^ unmix(k[1]),
         unsubMixed(w[2], w[1], w[0], w[3]) ^ unmix(k[2]),
         unsubMixed(w[3], w[2], w[1], w[0]) ^ unmix(k[3])};
  }
  const Cols k = load(rk[0]);  // the final round has no InvMixColumns
  w = {unsub(w[0], w[3], w[2], w[1]) ^ k[0],
       unsub(w[1], w[0], w[3], w[2]) ^ k[1],
       unsub(w[2], w[1], w[0], w[3]) ^ k[2],
       unsub(w[3], w[2], w[1], w[0]) ^ k[3]};
  store(w, s);
}

}  // namespace aesifc::aes
