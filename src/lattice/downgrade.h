#pragma once
// Nonmalleable downgrading (paper Section 2.4, Eq. 1; Cecchetti-Myers-Arden
// CCS'17). Downgrading relaxes noninterference in exactly one dimension:
//   declassification lowers confidentiality,
//   endorsement raises integrity.
//
// The paper states the constraints with the reflection operator r(.):
//
//   C(l) -p-> C(l')  allowed iff  C(l) flowsC C(l') joinC r(I(p))
//   I(l) -p-> I(l')  allowed iff  I(l) flowsI I(l') joinI r(C(p))
//
// and glosses them as: "data can only be declassified by a sufficiently
// trusted principal and data can only be endorsed when the principal can
// read it." In the powerset lattice the two rules expand to category-set
// conditions (the form we implement and test):
//
//   declassify:  C(l).cats  subset-of  C(l').cats  union  I(p).cats
//     -- the secrecy categories being released must be covered by the
//        target label plus the categories the principal's trust speaks for.
//        Reproduces the paper's worked example: (S,U) cannot go to (P,U)
//        when I(p)=U because S is not within P join r(U)=P; and the master
//        key (top,top) can only be declassified by the supervisor
//        (Section 3.2.2).
//
//   endorse:     I(l').cats  subset-of  I(l).cats  union  I(p).cats     and
//                C(l).cats   subset-of  C(p).cats
//     -- dual authority condition (a principal may confer only trust it
//        holds) plus the transparency condition from the gloss (it may only
//        endorse data it can read).

#include <string>

#include "lattice/label.h"

namespace aesifc::lattice {

enum class DowngradeKind { Declassify, Endorse };

struct DowngradeDecision {
  bool allowed = false;
  std::string reason;  // explanation of a refusal; empty when allowed
};

// Declassification: `from` and `to` must agree on integrity.
DowngradeDecision checkDeclassify(const Label& from, const Label& to,
                                  const Principal& p);

// Endorsement: `from` and `to` must agree on confidentiality.
DowngradeDecision checkEndorse(const Label& from, const Label& to,
                               const Principal& p);

DowngradeDecision checkDowngrade(DowngradeKind kind, const Label& from,
                                 const Label& to, const Principal& p);

}  // namespace aesifc::lattice
