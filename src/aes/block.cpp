#include "aes/block.h"

#include "aes/gf256.h"
#include "aes/sbox.h"

namespace aesifc::aes {

State blockToState(const Block& b) {
  State s;
  // FIPS-197: input byte n goes to state[row = n mod 4][col = n / 4];
  // with column-major storage that is the identity mapping.
  for (unsigned n = 0; n < 16; ++n) s[n] = b[n];
  return s;
}

Block stateToBlock(const State& s) {
  Block b;
  for (unsigned n = 0; n < 16; ++n) b[n] = s[n];
  return b;
}

void subBytes(State& s) {
  const std::uint8_t* t = sboxTable();
  for (auto& x : s) x = t[x];
}

void invSubBytes(State& s) {
  const std::uint8_t* t = invSboxTable();
  for (auto& x : s) x = t[x];
}

void shiftRows(State& s) {
  State out;
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 4; ++c) {
      out[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
    }
  }
  s = out;
}

void invShiftRows(State& s) {
  State out;
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 4; ++c) {
      out[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
    }
  }
  s = out;
}

void mixColumns(State& s) {
  // {02}a0 ^ {03}a1 ^ a2 ^ a3 == a0 ^ all ^ xtime(a0 ^ a1), where all is the
  // XOR of the column; the other rows rotate the same identity.
  for (unsigned c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    const std::uint8_t all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
    col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(a0 ^ a1));
    col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(a1 ^ a2));
    col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(a2 ^ a3));
    col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(a3 ^ a0));
  }
}

void invMixColumns(State& s) {
  // FIPS-197 factoring: the inverse matrix {0e,0b,0d,09} equals
  // {05,00,04,00} (a pre-multiply by 4 on opposite rows) followed by the
  // forward {02,03,01,01}.
  for (unsigned c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const auto u = xtime(xtime(static_cast<std::uint8_t>(col[0] ^ col[2])));
    const auto v = xtime(xtime(static_cast<std::uint8_t>(col[1] ^ col[3])));
    col[0] ^= u;
    col[1] ^= v;
    col[2] ^= u;
    col[3] ^= v;
  }
  mixColumns(s);
}

void addRoundKey(State& s, const RoundKey& rk) {
  for (unsigned n = 0; n < 16; ++n) s[n] ^= rk[n];
}

}  // namespace aesifc::aes
