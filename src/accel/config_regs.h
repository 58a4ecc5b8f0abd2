#pragma once
// Configuration registers (Section 3.2.4). Labeled (bottom, top): readable
// by every user, writable only by a fully trusted principal. Baseline mode
// performs no integrity check on writes.
//
// The registers live in one array, indexed in names() order; the device
// addresses them by index (the scrub ring, the debug gate), and names are
// only the MMIO and debug boundary's (read, write, faultFlipBit).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/types.h"

namespace aesifc::accel {

class ConfigRegisters {
 public:
  // Register indices, in names() order.
  enum Index : unsigned {
    kArbiterMode,  // 0 = fine-grained RR, 1 = coarse-grained
    kDebugEnable,  // debug peripheral gate
    kOutBufDepth,  // overflow buffer high-water mark
    kVersion,      // read-only identification
    kCount
  };

  explicit ConfigRegisters(SecurityMode mode);

  // Any user may read (values are public). Throws std::out_of_range for
  // an unknown name.
  std::uint32_t read(const std::string& name) const;
  std::uint32_t value(unsigned i) const { return regs_.at(i).value; }

  // Returns false (and leaves the register unchanged) when the writer lacks
  // full integrity in Protected mode.
  bool write(const std::string& name, std::uint32_t value,
             const Label& writer);

  static Label label() {
    return Label{lattice::Conf::bottom(), lattice::Integ::top()};
  }

  // --- Fail-secure hardening -------------------------------------------------
  // Every register stores a parity bit, written with the value. On a
  // mismatch the fail-secure action is restoreDefault(): the register goes
  // back to its power-on value (all power-on values are the *closed* /
  // least-permissive settings, e.g. debug_enable = 0).
  bool parityOk(unsigned i) const;
  void restoreDefault(unsigned i);
  // Register names in index order (the background scrub rotation's).
  const std::vector<std::string>& names() const { return names_; }
  unsigned size() const { return kCount; }

  bool faultFlipBit(const std::string& name, unsigned bit);

 private:
  struct Reg {
    std::uint32_t value = 0;
    std::uint32_t reset = 0;  // power-on value
    bool parity = false;
  };
  // Index of `name`; throws std::out_of_range for an unknown name.
  unsigned indexOf(const std::string& name) const;

  SecurityMode mode_;
  std::array<Reg, kCount> regs_;
  std::vector<std::string> names_;
};

}  // namespace aesifc::accel
