#include "rtl/aes_ir.h"

#include "aes/gf256.h"
#include "aes/key_schedule.h"
#include "aes/sbox.h"

namespace aesifc::rtl {

using hdl::ExprId;
using hdl::LabelTerm;
using hdl::Module;
using lattice::Conf;
using lattice::Integ;
using lattice::Label;
using lattice::Principal;

namespace {

std::vector<BitVec> sboxLutTable() {
  std::vector<BitVec> t;
  t.reserve(256);
  for (unsigned i = 0; i < 256; ++i)
    t.emplace_back(8, aes::sboxTable()[i]);
  return t;
}

std::vector<BitVec> xtimeLutTable() {
  std::vector<BitVec> t;
  t.reserve(256);
  for (unsigned i = 0; i < 256; ++i)
    t.emplace_back(8, aes::xtime(static_cast<std::uint8_t>(i)));
  return t;
}

std::vector<BitVec> invSboxLutTable() {
  std::vector<BitVec> t;
  t.reserve(256);
  for (unsigned i = 0; i < 256; ++i)
    t.emplace_back(8, aes::invSboxTable()[i]);
  return t;
}

// gfMul-by-constant table for the InvMixColumns coefficients.
std::vector<BitVec> gfMulLutTable(std::uint8_t k) {
  std::vector<BitVec> t;
  t.reserve(256);
  for (unsigned i = 0; i < 256; ++i)
    t.emplace_back(8, aes::gfMul(static_cast<std::uint8_t>(i), k));
  return t;
}

ExprId byteOf(Module& m, ExprId state, unsigned n) {
  return m.slice(state, 8 * n, 8);
}

// Reassemble 16 byte expressions (byte 0 = least significant) into 128 bits.
ExprId packBytes(Module& m, const std::vector<ExprId>& bytes) {
  ExprId acc = bytes[15];
  for (int n = 14; n >= 0; --n) {
    acc = m.concat(acc, bytes[static_cast<unsigned>(n)]);
  }
  return acc;
}

ExprId emitSubBytes(Module& m, ExprId state) {
  const auto table = sboxLutTable();
  std::vector<ExprId> out(16);
  for (unsigned n = 0; n < 16; ++n) {
    out[n] = m.lut(byteOf(m, state, n), table);
  }
  return packBytes(m, out);
}

ExprId emitShiftRows(Module& m, ExprId state) {
  // Column-major state: byte index n = row + 4*col. Output row r column c
  // takes input row r column (c + r) mod 4.
  std::vector<ExprId> out(16);
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 4; ++c) {
      out[r + 4 * c] = byteOf(m, state, r + 4 * ((c + r) % 4));
    }
  }
  return packBytes(m, out);
}

ExprId emitMixColumns(Module& m, ExprId state) {
  const auto xt = xtimeLutTable();
  std::vector<ExprId> out(16);
  for (unsigned c = 0; c < 4; ++c) {
    ExprId a[4], x[4];
    for (unsigned r = 0; r < 4; ++r) {
      a[r] = byteOf(m, state, r + 4 * c);
      x[r] = m.lut(a[r], xt);
    }
    // 3*v = xtime(v) ^ v.
    auto triple = [&](unsigned r) { return m.bxor(x[r], a[r]); };
    out[0 + 4 * c] = m.bxor(m.bxor(x[0], triple(1)), m.bxor(a[2], a[3]));
    out[1 + 4 * c] = m.bxor(m.bxor(a[0], x[1]), m.bxor(triple(2), a[3]));
    out[2 + 4 * c] = m.bxor(m.bxor(a[0], a[1]), m.bxor(x[2], triple(3)));
    out[3 + 4 * c] = m.bxor(m.bxor(triple(0), a[1]), m.bxor(a[2], x[3]));
  }
  return packBytes(m, out);
}

}  // namespace

hdl::ExprId emitAesRound(Module& m, ExprId state128, ExprId roundkey128,
                         bool last_round) {
  ExprId s = emitSubBytes(m, state128);
  s = emitShiftRows(m, s);
  if (!last_round) s = emitMixColumns(m, s);
  return m.bxor(s, roundkey128);
}

Module buildAesEncrypt128(AesIrPorts* ports) {
  Module m{"aes_encrypt128"};

  const Label pt_label{Conf::category(1), Integ::top()};
  const Label key_label{Conf::category(0), Integ::top()};
  const Label ct_label{Conf::category(0).join(Conf::category(1)),
                       Integ::top()};

  AesIrPorts p;
  p.pt = m.input("pt", 128, LabelTerm::of(pt_label));
  for (unsigned r = 0; r <= 10; ++r) {
    p.rk.push_back(
        m.input("rk" + std::to_string(r), 128, LabelTerm::of(key_label)));
  }
  p.ct = m.output("ct", 128, LabelTerm::of(ct_label));

  ExprId s = m.bxor(m.read(p.pt), m.read(p.rk[0]));
  for (unsigned r = 1; r <= 10; ++r) {
    s = emitAesRound(m, s, m.read(p.rk[r]), r == 10);
  }
  m.assign(p.ct, s);

  if (ports != nullptr) *ports = p;
  return m;
}

namespace {

ExprId emitInvSubBytes(Module& m, ExprId state) {
  const auto table = invSboxLutTable();
  std::vector<ExprId> out(16);
  for (unsigned n = 0; n < 16; ++n) out[n] = m.lut(byteOf(m, state, n), table);
  return packBytes(m, out);
}

ExprId emitInvShiftRows(Module& m, ExprId state) {
  // Inverse rotation: output row r column c takes input row r column
  // (c - r) mod 4.
  std::vector<ExprId> out(16);
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 4; ++c) {
      out[r + 4 * c] = byteOf(m, state, r + 4 * ((c + 4 - r) % 4));
    }
  }
  return packBytes(m, out);
}

ExprId emitInvMixColumns(Module& m, ExprId state) {
  const auto m9 = gfMulLutTable(9);
  const auto m11 = gfMulLutTable(11);
  const auto m13 = gfMulLutTable(13);
  const auto m14 = gfMulLutTable(14);
  std::vector<ExprId> out(16);
  for (unsigned c = 0; c < 4; ++c) {
    ExprId a[4];
    for (unsigned r = 0; r < 4; ++r) a[r] = byteOf(m, state, r + 4 * c);
    auto mul = [&](const std::vector<BitVec>& t, unsigned r) {
      return m.lut(a[r], t);
    };
    out[0 + 4 * c] = m.bxor(m.bxor(mul(m14, 0), mul(m11, 1)),
                            m.bxor(mul(m13, 2), mul(m9, 3)));
    out[1 + 4 * c] = m.bxor(m.bxor(mul(m9, 0), mul(m14, 1)),
                            m.bxor(mul(m11, 2), mul(m13, 3)));
    out[2 + 4 * c] = m.bxor(m.bxor(mul(m13, 0), mul(m9, 1)),
                            m.bxor(mul(m14, 2), mul(m11, 3)));
    out[3 + 4 * c] = m.bxor(m.bxor(mul(m11, 0), mul(m13, 1)),
                            m.bxor(mul(m9, 2), mul(m14, 3)));
  }
  return packBytes(m, out);
}

}  // namespace

hdl::ExprId emitAesInvRound(Module& m, ExprId state128, ExprId roundkey128,
                            bool last_round) {
  ExprId s = emitInvShiftRows(m, state128);
  s = emitInvSubBytes(m, s);
  s = m.bxor(s, roundkey128);
  if (!last_round) s = emitInvMixColumns(m, s);
  return s;
}

Module buildAesDecrypt128(AesIrPorts* ports) {
  Module m{"aes_decrypt128"};

  const Label ct_in_label{Conf::category(0).join(Conf::category(1)),
                          Integ::top()};
  const Label key_label{Conf::category(0), Integ::top()};
  // Recovered plaintext belongs to the user *and* still depends on the key.
  const Label pt_label{Conf::category(0).join(Conf::category(1)),
                       Integ::top()};

  AesIrPorts p;
  p.pt = m.input("ct", 128, LabelTerm::of(ct_in_label));
  for (unsigned r = 0; r <= 10; ++r) {
    p.rk.push_back(
        m.input("rk" + std::to_string(r), 128, LabelTerm::of(key_label)));
  }
  p.ct = m.output("pt", 128, LabelTerm::of(pt_label));

  ExprId s = m.bxor(m.read(p.pt), m.read(p.rk[10]));
  for (unsigned r = 1; r <= 10; ++r) {
    s = emitAesInvRound(m, s, m.read(p.rk[10 - r]), r == 10);
  }
  m.assign(p.ct, s);

  if (ports != nullptr) *ports = p;
  return m;
}

Module buildKeyExpand128(KeyExpandPorts* ports) {
  Module m{"key_expand128"};

  const Label key_label{Conf::category(0), Integ::top()};
  const Label pub = lattice::Label::publicTrusted();

  KeyExpandPorts p;
  p.key = m.input("key", 128, LabelTerm::of(key_label));
  p.start = m.input("start", 1, LabelTerm::of(pub));
  p.rk = m.output("rk", 128, LabelTerm::of(key_label));
  p.rk_valid = m.output("rk_valid", 1, LabelTerm::of(pub));
  p.round = m.output("round", 4, LabelTerm::of(pub));

  const auto w = m.reg("w", 128, LabelTerm::of(key_label));
  const auto rcon = m.reg("rcon", 8, LabelTerm::of(pub), BitVec(8, 1));
  const auto round = m.reg("round_r", 4, LabelTerm::of(pub));
  const auto busy = m.reg("busy", 1, LabelTerm::of(pub));

  // Schedule step: temp = SubWord(RotWord(w3)) ^ rcon; then chain the xors.
  auto word = [&](unsigned c) { return m.slice(m.read(w), 32 * c, 32); };
  auto byteOfWord = [&](ExprId wrd, unsigned b) { return m.slice(wrd, 8 * b, 8); };

  const auto w3 = word(3);
  // RotWord: (b0,b1,b2,b3) -> (b1,b2,b3,b0); byte 0 is the low byte.
  const auto rot = m.concat(
      byteOfWord(w3, 0),
      m.concat(byteOfWord(w3, 3), m.concat(byteOfWord(w3, 2), byteOfWord(w3, 1))));
  const auto sbox_table = sboxLutTable();
  std::vector<ExprId> sub_bytes(4);
  for (unsigned b = 0; b < 4; ++b)
    sub_bytes[b] = m.lut(m.slice(rot, 8 * b, 8), sbox_table);
  const auto sub = m.concat(
      sub_bytes[3], m.concat(sub_bytes[2], m.concat(sub_bytes[1], sub_bytes[0])));
  const auto temp =
      m.bxor(sub, m.concat(m.c(24, 0), m.read(rcon)));  // rcon into byte 0

  const auto w0n = m.bxor(word(0), temp);
  const auto w1n = m.bxor(word(1), w0n);
  const auto w2n = m.bxor(word(2), w1n);
  const auto w3n = m.bxor(word(3), w2n);
  const auto next_w =
      m.concat(w3n, m.concat(w2n, m.concat(w1n, w0n)));

  const auto last = m.eq(m.read(round), m.c(4, 10));
  const auto en_step =
      m.band(m.band(m.read(busy), m.bnot(m.read(p.start))), m.bnot(last));
  const auto en_load = m.read(p.start);

  m.regWrite(w, next_w, en_step);
  m.regWrite(w, m.read(p.key), en_load);  // start wins (later write)
  m.regWrite(round, m.add(m.read(round), m.c(4, 1)), en_step);
  m.regWrite(round, m.c(4, 0), en_load);
  m.regWrite(rcon, m.lut(m.read(rcon), xtimeLutTable()), en_step);
  m.regWrite(rcon, m.c(8, 1), en_load);
  m.regWrite(busy, m.c(1, 0),
             m.band(m.band(m.read(busy), last), m.bnot(m.read(p.start))));
  m.regWrite(busy, m.c(1, 1), en_load);

  m.assign(p.rk, m.read(w));
  m.assign(p.rk_valid, m.read(busy));
  m.assign(p.round, m.read(round));

  if (ports != nullptr) *ports = p;
  return m;
}

Module buildAesPipelineIr(AesPipeIrPorts* ports) {
  Module m{"aes_pipeline_ir"};

  // One user configuration: all in-flight data belongs to the same level,
  // ciphertext is released by the owner at the end.
  const Label data_label{Conf::category(1), Integ::category(1)};
  const Label pub{Conf::bottom(), Integ::category(1)};
  const Label ctl = lattice::Label::publicTrusted();

  AesPipeIrPorts p;
  p.in_valid = m.input("in_valid", 1, LabelTerm::of(ctl));
  p.pt = m.input("pt", 128, LabelTerm::of(data_label));
  for (unsigned r = 0; r <= 10; ++r) {
    p.rk.push_back(m.input("rk" + std::to_string(r), 128,
                           LabelTerm::of(data_label)));
  }
  p.out_valid = m.output("out_valid", 1, LabelTerm::of(ctl));
  p.ct = m.output("ct", 128, LabelTerm::of(pub));

  // Stage registers: s[r] holds the state after round r's logic.
  ExprId prev_data = m.bxor(m.read(p.pt), m.read(p.rk[0]));
  ExprId prev_valid = m.read(p.in_valid);
  std::vector<hdl::SignalId> stage(10), valid(10);
  for (unsigned r = 1; r <= 10; ++r) {
    stage[r - 1] = m.reg(std::string("s").append(std::to_string(r)), 128,
                         LabelTerm::of(data_label));
    valid[r - 1] = m.reg(std::string("v").append(std::to_string(r)), 1,
                         LabelTerm::of(ctl));
    m.regWrite(stage[r - 1], emitAesRound(m, prev_data, m.read(p.rk[r]),
                                          r == 10));
    m.regWrite(valid[r - 1], prev_valid);
    prev_data = m.read(stage[r - 1]);
    prev_valid = m.read(valid[r - 1]);
  }
  m.assign(p.out_valid, prev_valid);
  // Only the final stage is released — an intermediate tap would be
  // rejected by the checker (Fig. 7's "declassify at the last stage").
  m.declassify(p.ct, prev_data, pub,
               Principal{"owner", Label{Conf::category(1), Integ::category(1)}},
               "ciphertext release at pipeline exit");

  if (ports != nullptr) *ports = p;
  return m;
}

Module buildAesWithStatus(bool trojaned, AesIrPorts* ports) {
  Module m{trojaned ? "aes_trojaned" : "aes_with_status"};

  const Label pt_label{Conf::category(1), Integ::top()};
  const Label key_label{Conf::category(0), Integ::top()};
  const Label ct_label{Conf::category(0).join(Conf::category(1)),
                       Integ::top()};
  const Label pub = lattice::Label::publicTrusted();

  AesIrPorts p;
  p.pt = m.input("pt", 128, LabelTerm::of(pt_label));
  for (unsigned r = 0; r <= 10; ++r) {
    p.rk.push_back(
        m.input("rk" + std::to_string(r), 128, LabelTerm::of(key_label)));
  }
  const auto mode = m.input("mode", 8, LabelTerm::of(pub));
  p.ct = m.output("ct", 128, LabelTerm::of(ct_label));
  const auto status = m.output("status", 8, LabelTerm::of(pub));

  ExprId s = m.bxor(m.read(p.pt), m.read(p.rk[0]));
  for (unsigned r = 1; r <= 10; ++r) {
    s = emitAesRound(m, s, m.read(p.rk[r]), r == 10);
  }
  m.assign(p.ct, s);

  if (trojaned) {
    // The Trojan ([16]): when the plaintext equals a 128-bit magic value,
    // a key byte is exfiltrated through the public status register. A
    // 2^-128 trigger never fires under testing; the label mismatch is
    // structural and the checker reports it regardless.
    const auto magic =
        m.c(BitVec::fromHex(128, "cafebabe8badf00ddeadbeef00c0ffee"));
    const auto trigger = m.eq(m.read(p.pt), magic);
    const auto key_byte = m.slice(m.read(p.rk[0]), 0, 8);
    m.assign(status, m.mux(trigger, key_byte, m.read(mode)));
  } else {
    m.assign(status, m.read(mode));
  }

  if (ports != nullptr) *ports = p;
  return m;
}

}  // namespace aesifc::rtl
