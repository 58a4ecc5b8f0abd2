#include "sim/vcd.h"

#include <gtest/gtest.h>

namespace aesifc::sim {
namespace {

using hdl::LabelTerm;
using hdl::Module;
using lattice::Label;

const LabelTerm kPT = LabelTerm::of(Label::publicTrusted());

struct VcdFixture : ::testing::Test {
  Module m{"wave"};
  hdl::SignalId en = m.input("en", 1, kPT);
  hdl::SignalId ctr = m.reg("ctr", 4, kPT);
  hdl::SignalId o = m.output("o", 4, kPT);

  VcdFixture() {
    m.regWrite(ctr, m.add(m.read(ctr), m.c(4, 1)), m.read(en));
    m.assign(o, m.read(ctr));
  }
};

TEST_F(VcdFixture, HeaderDeclaresAllSignals) {
  Simulator sim{m};
  VcdWriter vcd{sim};
  const auto text = vcd.str();
  EXPECT_NE(text.find("$scope module wave $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1"), std::string::npos);
  EXPECT_NE(text.find(" en $end"), std::string::npos);
  EXPECT_NE(text.find(" ctr $end"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
}

TEST_F(VcdFixture, EmitsChangesOnlyOnChange) {
  Simulator sim{m};
  VcdWriter vcd{sim, {ctr}};
  sim.poke("en", BitVec(1, 0));
  vcd.sample();  // initial value 0
  sim.step();
  vcd.sample();  // unchanged (enable off): no new change record
  sim.poke("en", BitVec(1, 1));
  sim.step();
  vcd.sample();  // ctr -> 1
  const auto text = vcd.str();
  // Exactly two binary change records for ctr: b0000 and b0001.
  EXPECT_NE(text.find("b0000 "), std::string::npos);
  EXPECT_NE(text.find("b0001 "), std::string::npos);
  EXPECT_EQ(text.find("b0010 "), std::string::npos);
}

TEST_F(VcdFixture, TimeStampsMatchCycles) {
  Simulator sim{m};
  VcdWriter vcd{sim, {ctr}};
  sim.poke("en", BitVec(1, 1));
  vcd.sample();
  sim.step(3);
  vcd.sample();
  const auto text = vcd.str();
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("#3"), std::string::npos);
}

TEST_F(VcdFixture, ScalarSignalsUseScalarFormat) {
  Simulator sim{m};
  VcdWriter vcd{sim, {en}};
  sim.poke("en", BitVec(1, 1));
  sim.evalComb();
  vcd.sample();
  const auto text = vcd.str();
  // 1-bit changes use the scalar "1<id>" form, not "b1 <id>".
  EXPECT_NE(text.find("\n1!"), std::string::npos);
}

TEST_F(VcdFixture, WritesFile) {
  Simulator sim{m};
  VcdWriter vcd{sim};
  vcd.sample();
  EXPECT_TRUE(vcd.writeTo("/tmp/aesifc_vcd_test.vcd"));
  EXPECT_FALSE(vcd.writeTo("/nonexistent-dir/x.vcd"));
}

TEST(VcdIdCodes, UniqueAndPrintable) {
  // Exercised indirectly through a module with >94 signals.
  Module m{"many"};
  std::vector<hdl::SignalId> sigs;
  const auto a = m.input("a", 1, kPT);
  for (int i = 0; i < 120; ++i) {
    const auto w = m.output(std::string("w").append(std::to_string(i)), 1, kPT);
    m.assign(w, m.read(a));
  }
  Simulator sim{m};
  VcdWriter vcd{sim};
  vcd.sample();
  const auto text = vcd.str();
  for (char c : text) {
    EXPECT_TRUE(c == '\n' || (c >= 32 && c < 127));
  }
}

}  // namespace
}  // namespace aesifc::sim
