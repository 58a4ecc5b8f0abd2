#include <gtest/gtest.h>

#include "common/rng.h"
#include "lattice/label.h"
#include "lattice/sec_level.h"

namespace aesifc::lattice {
namespace {

TEST(CatSet, Basics) {
  EXPECT_TRUE(CatSet::none().subsetOf(CatSet::all()));
  EXPECT_FALSE(CatSet::all().subsetOf(CatSet::none()));
  EXPECT_EQ(CatSet::category(3).mask(), 0x8u);
  EXPECT_EQ(CatSet::level(0), CatSet::none());
  EXPECT_EQ(CatSet::level(16), CatSet::all());
  EXPECT_EQ(CatSet::level(4).mask(), 0xfu);
}

TEST(CatSet, ChainEmbedding) {
  for (unsigned a = 0; a <= 16; ++a) {
    for (unsigned b = 0; b <= 16; ++b) {
      EXPECT_EQ(CatSet::level(a).subsetOf(CatSet::level(b)), a <= b)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(CatSet, ToString) {
  EXPECT_EQ(CatSet::none().toString(), "{}");
  EXPECT_EQ(CatSet::all().toString(), "{*}");
  EXPECT_EQ(CatSet::category(0).unionWith(CatSet::category(5)).toString(),
            "{0,5}");
}

TEST(Conf, FlowOrientation) {
  // Public flows to secret, never the reverse.
  EXPECT_TRUE(Conf::bottom().flowsTo(Conf::top()));
  EXPECT_FALSE(Conf::top().flowsTo(Conf::bottom()));
  // Distinct user categories are incomparable (user isolation, Fig. 2).
  EXPECT_FALSE(Conf::category(1).flowsTo(Conf::category(2)));
  EXPECT_FALSE(Conf::category(2).flowsTo(Conf::category(1)));
}

TEST(Integ, FlowOrientation) {
  // Trusted flows to untrusted, never the reverse.
  EXPECT_TRUE(Integ::top().flowsTo(Integ::bottom()));
  EXPECT_FALSE(Integ::bottom().flowsTo(Integ::top()));
  EXPECT_FALSE(Integ::category(1).flowsTo(Integ::category(2)));
}

TEST(Integ, JoinIsLessTrusted) {
  // Paper Section 2.4: (P,U) joinI (P,T) => (P,U).
  EXPECT_EQ(Integ::bottom().join(Integ::top()), Integ::bottom());
  EXPECT_EQ(Integ::top().join(Integ::top()), Integ::top());
}

TEST(Conf, JoinIsMoreSecret) {
  // Paper Section 2.4: (P,U) joinC (S,U) => (S,U).
  EXPECT_EQ(Conf::bottom().join(Conf::top()), Conf::top());
}

TEST(Reflection, PaperIdentities) {
  // r(P) = U and r(U) = P (Section 2.4).
  EXPECT_EQ(reflectToInteg(Conf::bottom()), Integ::bottom());
  EXPECT_EQ(reflectToConf(Integ::bottom()), Conf::bottom());
  // And the top points map to each other (master-key argument, 3.2.2).
  EXPECT_EQ(reflectToInteg(Conf::top()), Integ::top());
  EXPECT_EQ(reflectToConf(Integ::top()), Conf::top());
}

TEST(Label, FlowRequiresBothDimensions) {
  const Label a{Conf::bottom(), Integ::top()};      // (P,T)
  const Label b{Conf::top(), Integ::top()};         // (S,T)
  const Label c{Conf::bottom(), Integ::bottom()};   // (P,U)
  EXPECT_TRUE(a.flowsTo(b));
  EXPECT_TRUE(a.flowsTo(c));
  EXPECT_FALSE(b.flowsTo(a));
  EXPECT_FALSE(c.flowsTo(a));
  EXPECT_FALSE(b.flowsTo(c));
  EXPECT_FALSE(c.flowsTo(b));
}

TEST(Label, NamedPoints) {
  EXPECT_TRUE(Label::publicTrusted().flowsTo(Label::mostRestrictive()));
  EXPECT_TRUE(Label::publicTrusted().flowsTo(Label::topTop()));
  EXPECT_TRUE(Label::topTop().flowsTo(Label::mostRestrictive()));
  EXPECT_FALSE(Label::mostRestrictive().flowsTo(Label::topTop()));
}

TEST(Label, ToString) {
  EXPECT_EQ(Label::publicTrusted().toString(), "(PUB,TRU)");
  EXPECT_EQ(Label::topTop().toString(), "(SEC,TRU)");
  EXPECT_EQ(Label::publicUntrusted().toString(), "(PUB,UNT)");
}

TEST(Principal, UserAndSupervisor) {
  const auto alice = Principal::user("alice", 1);
  EXPECT_EQ(alice.authority.c, Conf::category(1));
  EXPECT_EQ(alice.authority.i, Integ::category(1));
  const auto sup = Principal::supervisor();
  EXPECT_EQ(sup.authority, Label::topTop());
  // Every user's data can flow (conf-wise) to the supervisor.
  EXPECT_TRUE(alice.authority.c.flowsTo(sup.authority.c));
}

// --- Lattice laws, property-swept over random points -------------------------

struct LawCase {
  std::uint64_t seed;
};

class LatticeLawTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Label randomLabel(Rng& rng) {
    return Label{Conf{CatSet{static_cast<std::uint16_t>(rng.next())}},
                 Integ{CatSet{static_cast<std::uint16_t>(rng.next())}}};
  }
};

TEST_P(LatticeLawTest, JoinCommutativeAssociativeIdempotent) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const Label a = randomLabel(rng), b = randomLabel(rng),
                c = randomLabel(rng);
    EXPECT_EQ(a.join(b), b.join(a));
    EXPECT_EQ(a.join(b).join(c), a.join(b.join(c)));
    EXPECT_EQ(a.join(a), a);
  }
}

TEST_P(LatticeLawTest, MeetCommutativeAssociativeIdempotent) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const Label a = randomLabel(rng), b = randomLabel(rng),
                c = randomLabel(rng);
    EXPECT_EQ(a.meet(b), b.meet(a));
    EXPECT_EQ(a.meet(b).meet(c), a.meet(b.meet(c)));
    EXPECT_EQ(a.meet(a), a);
  }
}

TEST_P(LatticeLawTest, Absorption) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const Label a = randomLabel(rng), b = randomLabel(rng);
    EXPECT_EQ(a.join(a.meet(b)), a);
    EXPECT_EQ(a.meet(a.join(b)), a);
  }
}

TEST_P(LatticeLawTest, JoinIsLeastUpperBound) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const Label a = randomLabel(rng), b = randomLabel(rng);
    const Label j = a.join(b);
    EXPECT_TRUE(a.flowsTo(j));
    EXPECT_TRUE(b.flowsTo(j));
    // Least: any upper bound dominates the join.
    const Label u = j.join(randomLabel(rng));
    if (a.flowsTo(u) && b.flowsTo(u)) {
      EXPECT_TRUE(j.flowsTo(u));
    }
  }
}

TEST_P(LatticeLawTest, MeetIsGreatestLowerBound) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const Label a = randomLabel(rng), b = randomLabel(rng);
    const Label mt = a.meet(b);
    EXPECT_TRUE(mt.flowsTo(a));
    EXPECT_TRUE(mt.flowsTo(b));
  }
}

TEST_P(LatticeLawTest, FlowIsPartialOrder) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const Label a = randomLabel(rng), b = randomLabel(rng),
                c = randomLabel(rng);
    EXPECT_TRUE(a.flowsTo(a));
    if (a.flowsTo(b) && b.flowsTo(a)) {
      EXPECT_EQ(a, b);
    }
    if (a.flowsTo(b) && b.flowsTo(c)) {
      EXPECT_TRUE(a.flowsTo(c));
    }
  }
}

TEST_P(LatticeLawTest, ReflectionMonotone) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const Label a = randomLabel(rng), b = randomLabel(rng);
    if (a.c.flowsTo(b.c)) {
      // Reflection preserves the category order (conf -> integ direction:
      // more categories = more conf = more trust after reflection).
      EXPECT_TRUE(
          a.c.cats.subsetOf(b.c.cats) &&
          reflectToInteg(a.c).cats.subsetOf(reflectToInteg(b.c).cats));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeLawTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace aesifc::lattice
