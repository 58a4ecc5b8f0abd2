#include "rtl/verif_models.h"

#include <vector>

namespace aesifc::rtl {

using hdl::ExprId;
using hdl::LabelTerm;
using hdl::Module;
using hdl::SignalId;
using lattice::Conf;
using lattice::Integ;
using lattice::Label;
using lattice::Principal;

namespace {

const Label kPT = Label::publicTrusted();
const Label kPU = Label::publicUntrusted();

// Chain label: confidentiality level k, fully trusted.
Label lvl(unsigned k) { return Label{Conf::level(k), Integ::top()}; }

// Tag encoding used by the pipeline/scratchpad models: value 0 = public /
// empty, values 1..3 = confidentiality levels 1..3 (chain), all trusted.
std::vector<Label> tagTable() { return {lvl(0), lvl(1), lvl(2), lvl(3)}; }

// a <= b on 2-bit tags: !(b < a).
ExprId leq(Module& m, ExprId a, ExprId b) { return m.bnot(m.ult(b, a)); }

// 4-way mux tree selected by a 2-bit index.
ExprId muxTree4(Module& m, ExprId index, const std::vector<ExprId>& vals) {
  ExprId acc = vals[0];
  for (unsigned i = 1; i < 4; ++i) {
    acc = m.mux(m.eq(index, m.c(2, i)), vals[i], acc);
  }
  return acc;
}

}  // namespace

Module buildCacheTags(bool buggy) {
  Module m{buggy ? "cache_tags_buggy" : "cache_tags"};

  const auto we = m.input("we", 1, LabelTerm::of(kPT));
  const auto way = m.input("way", 1, LabelTerm::of(kPT));
  const auto index = m.input("index", 2, LabelTerm::of(kPT));
  // Fig. 3: tag_i / tag_o switch integrity level with the selected way.
  const auto tag_i =
      m.input("tag_i", 19, LabelTerm::dependent(way, {kPT, kPU}));
  const auto tag_o =
      m.output("tag_o", 19, LabelTerm::dependent(way, {kPT, kPU}));

  std::vector<SignalId> tag0, tag1;
  for (unsigned i = 0; i < 4; ++i) {
    tag0.push_back(
        m.reg("tag_0_" + std::to_string(i), 19, LabelTerm::of(kPT)));
    tag1.push_back(
        m.reg("tag_1_" + std::to_string(i), 19, LabelTerm::of(kPU)));
  }

  const auto way0 = m.eq(m.read(way), m.c(1, 0));
  const auto way1 = m.eq(m.read(way), m.c(1, 1));
  for (unsigned i = 0; i < 4; ++i) {
    const auto sel = m.eq(m.read(index), m.c(2, i));
    // The bug: writes land in the trusted array irrespective of the way, so
    // untrusted tag_i (way == 1) contaminates trusted storage.
    const auto en0 =
        buggy ? m.band(m.read(we), sel) : m.band(m.band(m.read(we), way0), sel);
    m.regWrite(tag0[i], m.read(tag_i), en0);
    const auto en1 = m.band(m.band(m.read(we), way1), sel);
    m.regWrite(tag1[i], m.read(tag_i), en1);
  }

  std::vector<ExprId> r0, r1;
  for (unsigned i = 0; i < 4; ++i) {
    r0.push_back(m.read(tag0[i]));
    r1.push_back(m.read(tag1[i]));
  }
  m.assign(tag_o, m.mux(way0, muxTree4(m, m.read(index), r0),
                        muxTree4(m, m.read(index), r1)));
  return m;
}

Module buildAesControl(bool leaky) {
  Module m{leaky ? "aes_control_leaky" : "aes_control"};
  const Label secret{Conf::top(), Integ::top()};

  const auto start = m.input("start", 1, LabelTerm::of(kPT));
  const auto key_bit = m.input("key_bit", 1, LabelTerm::of(secret));
  const auto valid = m.output("valid", 1, LabelTerm::of(kPT));

  // In the leaky design the counter itself becomes key-dependent, so the
  // designer is forced to type it secret — and the public `valid` output
  // then fails to type-check, exactly the Fig. 6 error.
  const auto ctr = m.reg("round_ctr", 4, LabelTerm::of(leaky ? secret : kPT));
  const auto busy = m.reg("busy", 1, LabelTerm::of(leaky ? secret : kPT));

  // Rounds to run: constant in the fixed design, key-dependent in the leaky
  // one (early termination on a key bit — Koeune-Quisquater style).
  const auto limit =
      leaky ? m.mux(m.read(key_bit), m.c(4, 10), m.c(4, 12)) : m.c(4, 12);

  const auto done = m.band(m.read(busy), m.eq(m.read(ctr), limit));
  m.regWrite(busy, m.mux(m.read(start), m.c(1, 1),
                         m.mux(done, m.c(1, 0), m.read(busy))));
  m.regWrite(ctr, m.mux(m.read(start), m.c(4, 0),
                        m.mux(m.read(busy), m.add(m.read(ctr), m.c(4, 1)),
                              m.read(ctr))));
  m.assign(valid, done);
  return m;
}

Module buildCiphertextRelease(ReleaseScenario s) {
  Module m{"ciphertext_release"};

  const Conf cu = Conf::category(1);
  const Integ iu = Integ::category(1);
  const bool master = s == ReleaseScenario::MasterKeyUser ||
                      s == ReleaseScenario::MasterKeySupervisor;
  const Conf ck = master ? Conf::top() : Conf::category(1);

  const auto pt = m.input("plaintext", 8, LabelTerm::of(Label{cu, iu}));
  const auto key = m.input("key", 8, LabelTerm::of(Label{ck, iu}));
  const auto ct = m.output("ciphertext", 8,
                           LabelTerm::of(Label{Conf::bottom(), iu}));

  // Toy "encryption": the label arithmetic — (ck join cu, iu) — is what is
  // under test, not the cipher.
  const auto enc = m.bxor(m.read(pt), m.read(key));

  const Principal user{"user", Label{cu, iu}};
  const Principal sup = Principal::supervisor();

  switch (s) {
    case ReleaseScenario::NoDeclass:
      m.assign(ct, enc);  // designer "considers the ciphertext public"
      break;
    case ReleaseScenario::UserKey:
      m.declassify(ct, enc, Label{Conf::bottom(), iu}, user,
                   "release ciphertext at end of pipeline");
      break;
    case ReleaseScenario::MasterKeyUser:
      m.declassify(ct, enc, Label{Conf::bottom(), iu}, user,
                   "user attempts to release master-key ciphertext");
      break;
    case ReleaseScenario::MasterKeySupervisor:
      m.declassify(ct, enc, Label{Conf::bottom(), iu}, sup,
                   "supervisor releases master-key ciphertext");
      break;
  }
  return m;
}

Module buildStallPipeline(bool meet_gated) {
  return buildStallPipelineN(2, meet_gated);
}

Module buildStallPipelineN(unsigned stages, bool meet_gated) {
  Module m{std::string(meet_gated ? "stall_pipeline_meet"
                                  : "stall_pipeline_baseline") +
           "_x" + std::to_string(stages)};
  const auto table = tagTable();

  const auto in_tag = m.input("in_tag", 2, LabelTerm::of(kPT));
  const auto in_data =
      m.input("in_data", 8, LabelTerm::dependent(in_tag, table));
  const auto req_tag = m.input("req_tag", 2, LabelTerm::of(kPT));
  // The stall request is raised by the requester, so it carries the
  // requester's confidentiality (Fig. 8's l(Stall_req)).
  const auto stall_req =
      m.input("stall_req", 1, LabelTerm::dependent(req_tag, table));

  // Stage tag registers hold public metadata — labels themselves are
  // public, as in HyperFlow. Stage data registers take the dependent label
  // of their stage's tag (Fig. 7).
  std::vector<SignalId> tag_regs(stages), data_regs(stages);
  for (unsigned i = 0; i < stages; ++i) {
    const std::string stage = std::string("s").append(std::to_string(i + 1));
    tag_regs[i] = m.reg(stage + "_tag", 2, LabelTerm::of(kPT));
    data_regs[i] =
        m.reg(stage + "_data", 8, LabelTerm::dependent(tag_regs[i], table));
  }

  const auto out_data =
      m.output("out_data", 8, LabelTerm::dependent(tag_regs.back(), table));

  // Fig. 8: the stall may only take effect when the requester's level flows
  // to the meet of every in-flight tag — including the tag of the block
  // waiting at the input, whose acceptance a stall would also delay.
  auto allowed = leq(m, m.read(req_tag), m.read(in_tag));
  for (unsigned i = 0; i < stages; ++i) {
    allowed = m.band(allowed, leq(m, m.read(req_tag), m.read(tag_regs[i])));
  }

  hdl::ExprId stall;
  if (meet_gated) {
    // The gated stall is the design's single *reviewed downgrade*
    // (Section 3.2.6): the meet comparator guarantees at runtime that every
    // in-flight (and waiting) block is at or above the requester's level,
    // so freezing the pipeline's public tag metadata reveals nothing the
    // observers may not learn. The checker verifies the downgrade is
    // nonmalleable and everything *else* — in particular the per-stage
    // dependent data labels — without trust.
    const auto stall_gate = m.wire("stall_gate", 1, LabelTerm::of(kPT));
    m.declassify(stall_gate, m.band(m.read(stall_req), allowed), kPT,
                 Principal{"stall_arbiter",
                           Label{Conf::top(), Integ::top()}},
                 "Fig. 8 meet-gated stall (reviewed downgrade, Sec 3.2.6)");
    stall = m.read(stall_gate);
  } else {
    // Baseline: the raw stall request gates the pipeline — the covert
    // timing channel of Section 3.2.5, flagged as timing violations.
    stall = m.read(stall_req);
  }
  const auto en = m.bnot(stall);

  // Tag and data shift together under the same enable; the checker resolves
  // each stage's dependent label at the incoming tag value (label update).
  m.regWrite(tag_regs[0], m.read(in_tag), en);
  m.regWrite(data_regs[0], m.read(in_data), en);
  for (unsigned i = 1; i < stages; ++i) {
    m.regWrite(tag_regs[i], m.read(tag_regs[i - 1]), en);
    m.regWrite(data_regs[i], m.read(data_regs[i - 1]), en);
  }

  m.assign(out_data, m.read(data_regs.back()));
  return m;
}

Module buildTaggedScratchpad(bool checked) {
  Module m{checked ? "scratchpad_tagged" : "scratchpad_unchecked"};
  const auto table = tagTable();

  const auto we = m.input("we", 1, LabelTerm::of(kPT));
  const auto addr = m.input("addr", 2, LabelTerm::of(kPT));
  const auto wr_tag = m.input("wr_tag", 2, LabelTerm::of(kPT));
  const auto wr_data =
      m.input("wr_data", 8, LabelTerm::dependent(wr_tag, table));
  const auto rd_tag = m.input("rd_tag", 2, LabelTerm::of(kPT));
  const auto rd_data =
      m.output("rd_data", 8, LabelTerm::dependent(rd_tag, table));

  // Per-cell configuration tags (set by the arbiter; modeled as pins).
  std::vector<SignalId> ctag, cell;
  for (unsigned i = 0; i < 4; ++i) {
    ctag.push_back(
        m.input("cell_tag_" + std::to_string(i), 2, LabelTerm::of(kPT)));
    cell.push_back(m.reg("cell_" + std::to_string(i), 8,
                         LabelTerm::dependent(ctag[i], table)));
  }

  for (unsigned i = 0; i < 4; ++i) {
    const auto hit = m.band(m.read(we), m.eq(m.read(addr), m.c(2, i)));
    // The runtime tag check of Fig. 5: the write proceeds only when the
    // requester's tag matches the cell's tag.
    const auto en =
        checked ? m.band(hit, m.eq(m.read(wr_tag), m.read(ctag[i]))) : hit;
    m.regWrite(cell[i], m.read(wr_data), en);
  }

  std::vector<ExprId> readable;
  for (unsigned i = 0; i < 4; ++i) {
    if (checked) {
      readable.push_back(m.mux(m.eq(m.read(ctag[i]), m.read(rd_tag)),
                               m.read(cell[i]), m.c(8, 0)));
    } else {
      readable.push_back(m.read(cell[i]));
    }
  }
  m.assign(rd_data, muxTree4(m, m.read(addr), readable));
  return m;
}

}  // namespace aesifc::rtl
