#include "lattice/sec_level.h"

#include <cassert>

namespace aesifc::lattice {

CatSet CatSet::category(unsigned i) {
  assert(i < kMaxCategories);
  return CatSet{static_cast<std::uint16_t>(1u << i)};
}

CatSet CatSet::level(unsigned k) {
  assert(k <= kMaxCategories);
  if (k == 0) return none();
  if (k >= 16) return all();
  return CatSet{static_cast<std::uint16_t>((1u << k) - 1)};
}

std::string CatSet::toString() const {
  if (mask_ == 0) return "{}";
  if (mask_ == 0xffff) return "{*}";
  std::string s = "{";
  bool first = true;
  for (unsigned i = 0; i < kMaxCategories; ++i) {
    if (mask_ & (1u << i)) {
      if (!first) s += ",";
      s += std::to_string(i);
      first = false;
    }
  }
  return s + "}";
}

std::string Conf::toString() const {
  if (cats == CatSet::none()) return "PUB";
  if (cats == CatSet::all()) return "SEC";
  return std::string("C").append(cats.toString());
}

std::string Integ::toString() const {
  if (cats == CatSet::all()) return "TRU";
  if (cats == CatSet::none()) return "UNT";
  return std::string("I").append(cats.toString());
}

}  // namespace aesifc::lattice
