#include "lattice/downgrade.h"

namespace aesifc::lattice {

DowngradeDecision checkDeclassify(const Label& from, const Label& to,
                                  const Principal& p) {
  if (!(from.i == to.i)) {
    return {false, "declassification must not change the integrity component"};
  }
  // C(l) flowsC C(l') joinC r(I(p)): the released categories must be covered
  // by the target plus the reflection of the principal's integrity.
  const Conf bound = to.c.join(reflectToConf(p.authority.i));
  // Allowed releases (one per block on the accelerator's exit path) carry
  // no reason; only a refusal is explained.
  if (from.c.flowsTo(bound)) return {true, {}};
  return {false, "principal '" + p.name + "' with integrity " +
                     p.authority.i.toString() +
                     " is not trusted enough to declassify " +
                     from.c.toString() + " to " + to.c.toString()};
}

DowngradeDecision checkEndorse(const Label& from, const Label& to,
                               const Principal& p) {
  if (!(from.c == to.c)) {
    return {false, "endorsement must not change the confidentiality component"};
  }
  // Authority: the trust categories being added must be held by the
  // principal: I(to) subset-of I(from) union I(p).
  const CatSet claimable = from.i.cats.unionWith(p.authority.i.cats);
  if (!to.i.cats.subsetOf(claimable)) {
    return {false, "principal '" + p.name + "' with integrity " +
                       p.authority.i.toString() + " cannot confer trust " +
                       to.i.toString() + " on data of integrity " +
                       from.i.toString()};
  }
  // Transparency (nonmalleability): the principal must be able to read the
  // data it endorses: C(from) flowsC C(p).
  if (!from.c.flowsTo(p.authority.c)) {
    return {false, "principal '" + p.name + "' with confidentiality " +
                       p.authority.c.toString() +
                       " cannot read the data it endorses (" +
                       from.c.toString() + ")"};
  }
  return {true, {}};
}

DowngradeDecision checkDowngrade(DowngradeKind kind, const Label& from,
                                 const Label& to, const Principal& p) {
  return kind == DowngradeKind::Declassify ? checkDeclassify(from, to, p)
                                           : checkEndorse(from, to, p);
}

}  // namespace aesifc::lattice
