#include "lattice/label.h"

namespace aesifc::lattice {

std::string Label::toString() const {
  const std::string conf = c.toString(), integ = i.toString();
  return "(" + conf + "," + integ + ")";
}

Principal Principal::user(std::string name, unsigned cat) {
  return Principal{std::move(name),
                   Label{Conf::category(cat), Integ::category(cat)}};
}

Principal Principal::supervisor() {
  return Principal{"supervisor", Label{Conf::top(), Integ::top()}};
}

}  // namespace aesifc::lattice
