// The key meta-property of the methodology: if the static checker accepts a
// design, then executing that design with inputs labeled exactly as
// annotated never produces an output whose dynamically tracked label
// exceeds its annotation. We fuzz random netlists (including dependent
// labels, enables, muxes) and check every checker-accepted one against the
// dynamic tracker in both precision modes.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hdl/ir.h"
#include "ifc/checker.h"
#include "ifc/tracker.h"

namespace aesifc::ifc {
namespace {

using hdl::ExprId;
using hdl::LabelTerm;
using hdl::Module;
using hdl::SignalId;
using lattice::Conf;
using lattice::Integ;
using lattice::Label;

constexpr unsigned kWidth = 8;

Label randomLabel(Rng& rng) {
  switch (rng.below(7)) {
    case 0:
    case 1:
    case 2: return Label::publicTrusted();
    case 3:
    case 4: return Label{Conf::top(), Integ::top()};
    case 5: return Label::publicUntrusted();
    default: return Label{Conf::category(1), Integ::top()};
  }
}

struct RandomDesign {
  Module m{"fuzz"};
  std::vector<SignalId> inputs;
  std::vector<Label> input_labels;  // label each input is poked at
  std::vector<SignalId> outputs;
};

RandomDesign generate(std::uint64_t seed) {
  Rng rng{seed};
  RandomDesign d;
  auto& m = d.m;

  // Inputs (plus an always-present public selector for dependent labels).
  const SignalId sel = m.input("sel", 1, LabelTerm::of(Label::publicTrusted()));
  d.inputs.push_back(sel);
  d.input_labels.push_back(Label::publicTrusted());

  const unsigned n_inputs = 2 + static_cast<unsigned>(rng.below(3));
  for (unsigned i = 0; i < n_inputs; ++i) {
    if (rng.chance(0.25)) {
      // Dependent-labeled input: its level switches with `sel`.
      const Label l0 = randomLabel(rng);
      const Label l1 = randomLabel(rng);
      const SignalId s = m.input("in" + std::to_string(i), kWidth,
                                 LabelTerm::dependent(sel, {l0, l1}));
      d.inputs.push_back(s);
      // Poked at the meet: a label legal in either selector phase (the
      // environment must respect the annotation in every phase).
      d.input_labels.push_back(l0.meet(l1));
    } else {
      const Label l = randomLabel(rng);
      const SignalId s =
          m.input("in" + std::to_string(i), kWidth, LabelTerm::of(l));
      d.inputs.push_back(s);
      d.input_labels.push_back(l);
    }
  }

  // Expression pools.
  std::vector<ExprId> wide, bits;
  for (std::size_t i = 1; i < d.inputs.size(); ++i)
    wide.push_back(m.read(d.inputs[i]));
  wide.push_back(m.c(kWidth, rng.next() & 0xff));
  bits.push_back(m.read(d.inputs[0]));
  bits.push_back(m.c(1, 1));

  // A couple of registers join the pool.
  std::vector<SignalId> regs;
  const unsigned n_regs = 1 + static_cast<unsigned>(rng.below(3));
  for (unsigned i = 0; i < n_regs; ++i) {
    const SignalId r = m.reg(std::string("r").append(std::to_string(i)), kWidth,
                             LabelTerm::of(randomLabel(rng)));
    regs.push_back(r);
    wide.push_back(m.read(r));
  }

  auto pickWide = [&] { return wide[rng.below(wide.size())]; };
  auto pickBit = [&] { return bits[rng.below(bits.size())]; };

  const unsigned n_nodes = 4 + static_cast<unsigned>(rng.below(10));
  for (unsigned i = 0; i < n_nodes; ++i) {
    switch (rng.below(8)) {
      case 0: wide.push_back(m.band(pickWide(), pickWide())); break;
      case 1: wide.push_back(m.bor(pickWide(), pickWide())); break;
      case 2: wide.push_back(m.bxor(pickWide(), pickWide())); break;
      case 3: wide.push_back(m.add(pickWide(), pickWide())); break;
      case 4: wide.push_back(m.bnot(pickWide())); break;
      case 5: wide.push_back(m.mux(pickBit(), pickWide(), pickWide())); break;
      case 6: bits.push_back(m.eq(pickWide(), pickWide())); break;
      default: bits.push_back(m.slice(pickWide(), rng.below(kWidth), 1)); break;
    }
  }

  // Register updates with random enables.
  for (const auto r : regs) {
    m.regWrite(r, pickWide(), pickBit());
  }

  // Outputs: some static, some dependent on `sel`.
  const unsigned n_outputs = 1 + static_cast<unsigned>(rng.below(2));
  for (unsigned i = 0; i < n_outputs; ++i) {
    LabelTerm term = rng.chance(0.3)
                         ? LabelTerm::dependent(
                               sel, {randomLabel(rng), randomLabel(rng)})
                         : LabelTerm::of(randomLabel(rng));
    const SignalId o =
        m.output("out" + std::to_string(i), kWidth, std::move(term));
    m.assign(o, pickWide());
    d.outputs.push_back(o);
  }
  return d;
}

// Runs a checker-accepted design under the tracker with inputs poked at
// exactly their annotated labels; returns the number of output leaks.
std::size_t trackerLeaks(RandomDesign& d, TrackPrecision prec,
                         std::uint64_t seed) {
  DynamicTracker t{d.m, prec};
  Rng rng{seed ^ 0xfeedface};
  for (unsigned cycle = 0; cycle < 24; ++cycle) {
    for (std::size_t i = 0; i < d.inputs.size(); ++i) {
      const unsigned w = d.m.signal(d.inputs[i]).width;
      t.poke(d.inputs[i], rng.bits(w), d.input_labels[i]);
    }
    t.step();
  }
  return t.eventCount(RuntimeEvent::Kind::OutputLeak);
}

TEST(CheckerSoundness, AcceptedDesignsNeverLeakUnderTracking) {
  unsigned passed = 0, failed = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomDesign d = generate(seed);
    const auto report = check(d.m);
    if (!report.ok()) {
      ++failed;
      continue;
    }
    ++passed;
    // Precise (RTLIFT-style) tracking matches the checker's pruning; the
    // conservative mode is a coarser over-approximation and may flag flows
    // the checker proved dead, so soundness is stated against Precise.
    EXPECT_EQ(trackerLeaks(d, TrackPrecision::Precise, seed), 0u)
        << "seed " << seed << "\n"
        << d.m.dump();
  }
  // Non-vacuity: the fuzzer must produce a healthy mix of both verdicts.
  EXPECT_GT(passed, 20u);
  EXPECT_GT(failed, 20u);
}

TEST(CheckerSoundness, DependentInputsPokedPerPhaseNeverLeak) {
  // Sharper variant: poke dependent-labeled inputs at the label of the
  // *current* selector phase, not the join.
  unsigned passed = 0;
  for (std::uint64_t seed = 1000; seed <= 1150; ++seed) {
    RandomDesign d = generate(seed);
    if (!check(d.m).ok()) continue;
    ++passed;

    DynamicTracker t{d.m};
    Rng rng{seed};
    for (unsigned cycle = 0; cycle < 24; ++cycle) {
      const BitVec selv(1, cycle & 1);
      for (std::size_t i = 0; i < d.inputs.size(); ++i) {
        const auto& sig = d.m.signal(d.inputs[i]);
        Label l = d.input_labels[i];
        if (sig.label.kind == hdl::LabelTerm::Kind::Dependent) {
          l = sig.label.by_value[selv.toU64()];
        }
        if (i == 0) {
          t.poke(d.inputs[i], selv, Label::publicTrusted());
        } else {
          t.poke(d.inputs[i], rng.bits(sig.width), l);
        }
      }
      t.step();
    }
    EXPECT_EQ(t.eventCount(RuntimeEvent::Kind::OutputLeak), 0u)
        << "seed " << seed << "\n"
        << d.m.dump();
  }
  EXPECT_GT(passed, 10u);
}

}  // namespace
}  // namespace aesifc::ifc
