#include "hdl/parser.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>

#include "ifc/checker.h"
#include "rtl/verif_models.h"
#include "sim/simulator.h"

namespace aesifc::hdl {
namespace {

using lattice::Conf;
using lattice::Integ;
using lattice::Label;

TEST(Parser, MinimalModule) {
  const auto m = parseModule(R"(
    module tiny {
      input a : 8 label (PUB, TRU);
      output o : 8 label (SEC, TRU);
      assign o = a;
    }
  )");
  EXPECT_EQ(m.name(), "tiny");
  EXPECT_EQ(m.signals().size(), 2u);
  EXPECT_EQ(m.assigns().size(), 1u);
  EXPECT_TRUE(ifc::check(m).ok());
}

TEST(Parser, LabelsAndAtoms) {
  const auto m = parseModule(R"(
    module labels {
      input a : 4 label (C{1,3}, I{2});
      input b : 4 label (CL2, IL4);
      output o : 4 label (SEC, UNT);
      assign o = a ^ b;
    }
  )");
  const auto a = m.findSignal("a");
  EXPECT_EQ(m.signal(a).label.fixed.c,
            Conf{lattice::CatSet::category(1).unionWith(
                lattice::CatSet::category(3))});
  EXPECT_EQ(m.signal(a).label.fixed.i, Integ::category(2));
  const auto b = m.findSignal("b");
  EXPECT_EQ(m.signal(b).label.fixed.c, Conf::level(2));
  EXPECT_EQ(m.signal(b).label.fixed.i, Integ::level(4));
}

TEST(Parser, DependentLabel) {
  const auto m = parseModule(R"(
    module dep {
      input way : 1 label (PUB, TRU);
      input d : 8 label DL(way) { (PUB, TRU), (PUB, UNT) };
      output o : 8 label DL(way) { (PUB, TRU), (PUB, UNT) };
      assign o = d;
    }
  )");
  const auto d = m.findSignal("d");
  ASSERT_EQ(m.signal(d).label.kind, LabelTerm::Kind::Dependent);
  EXPECT_EQ(m.signal(d).label.by_value.size(), 2u);
  EXPECT_TRUE(ifc::check(m).ok());
}

TEST(Parser, RegistersWithResetAndEnable) {
  const auto m = parseModule(R"(
    module ctr {
      input en : 1 label (PUB, TRU);
      reg c : 8 label (PUB, TRU) reset 8'h05;
      output o : 8 label (PUB, TRU);
      c <= c + 8'd1 when en;
      assign o = c;
    }
  )");
  sim::Simulator s{m};
  EXPECT_EQ(s.peek("o").toU64(), 5u);
  s.poke("en", BitVec(1, 1));
  s.step(3);
  EXPECT_EQ(s.peek("o").toU64(), 8u);
  s.poke("en", BitVec(1, 0));
  s.step(2);
  EXPECT_EQ(s.peek("o").toU64(), 8u);
}

TEST(Parser, ExpressionsEvaluateCorrectly) {
  const auto m = parseModule(R"(
    module ops {
      input a : 8 label (PUB, TRU);
      input b : 8 label (PUB, TRU);
      input c : 1 label (PUB, TRU);
      output o1 : 8 label (PUB, TRU);
      output o2 : 1 label (PUB, TRU);
      output o3 : 8 label (PUB, TRU);
      output o4 : 4 label (PUB, TRU);
      output o5 : 1 label (PUB, TRU);
      assign o1 = mux(c, a + b, a - b);
      assign o2 = (a == b) | (a < b);
      assign o3 = ~(a & 8'hf0) ^ b;
      assign o4 = a[7:4];
      assign o5 = &a[3:0] ^ |b;
    }
  )");
  sim::Simulator s{m};
  s.poke("a", BitVec(8, 0x5f));
  s.poke("b", BitVec(8, 0x21));
  s.poke("c", BitVec(1, 1));
  s.evalComb();
  EXPECT_EQ(s.peek("o1").toU64(), 0x80u);
  EXPECT_EQ(s.peek("o2").toU64(), 0u);
  EXPECT_EQ(s.peek("o3").toU64(), (~(0x5fu & 0xf0u) ^ 0x21u) & 0xffu);
  EXPECT_EQ(s.peek("o4").toU64(), 0x5u);
  EXPECT_EQ(s.peek("o5").toU64(), 1u ^ 1u);
}

TEST(Parser, ConcatBuildsMsbFirst) {
  const auto m = parseModule(R"(
    module cat {
      input a : 4 label (PUB, TRU);
      input b : 4 label (PUB, TRU);
      output o : 8 label (PUB, TRU);
      assign o = {a, b};
    }
  )");
  sim::Simulator s{m};
  s.poke("a", BitVec(4, 0xa));
  s.poke("b", BitVec(4, 0x5));
  s.evalComb();
  EXPECT_EQ(s.peek("o").toU64(), 0xa5u);
}

TEST(Parser, DowngradeStatements) {
  const auto m = parseModule(R"(
    module dg {
      input s : 8 label (SEC, TRU);
      output o : 8 label (PUB, TRU);
      declassify o = s to (PUB, TRU) by supervisor;
    }
  )");
  ASSERT_EQ(m.downgrades().size(), 1u);
  EXPECT_TRUE(ifc::check(m).ok());

  const auto m2 = parseModule(R"(
    module dg2 {
      input s : 8 label (SEC, TRU);
      output o : 8 label (PUB, TRU);
      declassify o = s to (PUB, TRU) by mallory (PUB, UNT);
    }
  )");
  EXPECT_EQ(ifc::check(m2).count(ifc::ViolationKind::DowngradeRejected), 1u);
}

TEST(Parser, CommentsAreIgnored) {
  const auto m = parseModule(R"(
    // the whole point of comments
    module c { // trailing
      input a : 1 label (PUB, TRU); // here too
      output o : 1 label (PUB, TRU);
      assign o = a;
    }
  )");
  EXPECT_EQ(m.signals().size(), 2u);
}

// --- Error reporting ---------------------------------------------------------------

struct ErrorCase {
  const char* src;
  const char* expect_substring;
};

// Prints a case as its expected message, reduced to [A-Za-z0-9_]. Without this
// gtest prints the raw pointer bytes, so the ctest names that
// gtest_discover_tests derives from the value would change with every run
// under address-space randomisation.
void PrintTo(const ErrorCase& c, std::ostream* os) {
  for (const char* p = c.expect_substring; *p != '\0'; ++p) {
    if (std::isalnum(static_cast<unsigned char>(*p))) {
      *os << *p;
    } else if (*p == ' ') {
      *os << '_';
    }
  }
}

class ParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrorTest, ReportsLocatedError) {
  try {
    parseModule(GetParam().src);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().expect_substring),
              std::string::npos)
        << e.what();
    EXPECT_GE(e.line, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        ErrorCase{"module m { input a 8; }", "expected ':'"},
        ErrorCase{"module m { input a : 8 label (PUB, TRU); input a : 1 label "
                  "(PUB, TRU); }",
                  "duplicate signal"},
        ErrorCase{"module m { output o : 8 label (PUB, TRU); assign o = x; }",
                  "unknown signal"},
        ErrorCase{"module m { input a : 8 label (PUB, TRU); input b : 4 label "
                  "(PUB, TRU); output o : 8 label (PUB, TRU); assign o = a & "
                  "b; }",
                  "width mismatch"},
        ErrorCase{"module m { input a : 8 label (PUB, TRU); output o : 8 "
                  "label (PUB, TRU); assign o = a + 5; }",
                  "unsized literal"},
        ErrorCase{"module m { input a : 8 label (BOGUS, TRU); }",
                  "confidentiality atom"},
        ErrorCase{"module m { input w : 1 label (PUB, TRU); input d : 8 label "
                  "DL(w) { (PUB, TRU) }; }",
                  "table needs 2 entries"},
        ErrorCase{"module m { input a : 8 label (PUB, TRU); output o : 4 "
                  "label (PUB, TRU); assign o = a[2:5]; }",
                  "slice out of range"},
        ErrorCase{"module m { input a : 8 label (PUB, TRU); a <= 8'h1; }",
                  "not a register"},
        ErrorCase{"module m { input a : 2 label (PUB, TRU); output o : 1 "
                  "label (PUB, TRU); assign o = mux(a, 1'b0, 1'b1); }",
                  "mux condition"},
        ErrorCase{"module m { input a : 4 label (PUB, TRU); output o : 4 "
                  "label (PUB, TRU); assign o = 4'h1f; }",
                  "does not fit"}));

// --- Round trip -------------------------------------------------------------------

TEST(Emitter, RoundTripsTheMailboxExample) {
  const std::string src = R"(
    module mailbox {
      input sel : 1 label (PUB, TRU);
      input we : 1 label (PUB, TRU);
      input din : 32 label DL(sel) { (C{1}, TRU), (C{2}, TRU) };
      reg slot_a : 32 label (C{1}, TRU);
      reg slot_b : 32 label (C{2}, TRU);
      output dout : 32 label DL(sel) { (C{1}, TRU), (C{2}, TRU) };
      slot_a <= din when we & (sel == 1'b0);
      slot_b <= din when we & (sel == 1'b1);
      assign dout = mux(sel == 1'b0, slot_a, slot_b);
    }
  )";
  const auto m1 = parseModule(src);
  EXPECT_TRUE(ifc::check(m1).ok());
  const auto text1 = emitModule(m1);
  const auto m2 = parseModule(text1);
  const auto text2 = emitModule(m2);
  EXPECT_EQ(text1, text2);
  EXPECT_TRUE(ifc::check(m2).ok());
}

TEST(Emitter, RoundTripsBuilderModels) {
  // The builder-made verification models survive emit -> parse -> emit.
  for (auto build : {rtl::buildCacheTags, rtl::buildTaggedScratchpad}) {
    for (bool flag : {false, true}) {
      const auto m1 = build(flag);
      const auto text1 = emitModule(m1);
      const auto m2 = parseModule(text1);
      EXPECT_EQ(text1, emitModule(m2)) << m1.name();
      // Same checker verdict on both.
      EXPECT_EQ(ifc::check(m1).ok(), ifc::check(m2).ok()) << m1.name();
    }
  }
}

TEST(Emitter, RoundTripsStallModelWithDowngrade) {
  const auto m1 = rtl::buildStallPipeline(true);
  const auto text1 = emitModule(m1);
  const auto m2 = parseModule(text1);
  EXPECT_EQ(text1, emitModule(m2));
  EXPECT_TRUE(ifc::check(m2).ok());
}

TEST(Emitter, RefusesLutNodes) {
  Module m{"withlut"};
  const auto a = m.input("a", 2, LabelTerm::of(Label::publicTrusted()));
  const auto o = m.output("o", 8, LabelTerm::of(Label::publicTrusted()));
  m.assign(o, m.lut(m.read(a), {BitVec(8, 1), BitVec(8, 2), BitVec(8, 3),
                                BitVec(8, 4)}));
  EXPECT_THROW(emitModule(m), std::logic_error);
}

}  // namespace
}  // namespace aesifc::hdl
