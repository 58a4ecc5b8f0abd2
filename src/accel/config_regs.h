#pragma once
// Configuration registers (Section 3.2.4). Labeled (bottom, top): readable
// by every user, writable only by a fully trusted principal. Baseline mode
// performs no integrity check on writes.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "accel/types.h"

namespace aesifc::accel {

class ConfigRegisters {
 public:
  explicit ConfigRegisters(SecurityMode mode);

  // Any user may read (values are public).
  std::uint32_t read(const std::string& name) const;

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
  bool parityOk(const std::string& name) const;
  void restoreDefault(const std::string& name);
  // Register names in a stable order (for the background scrub rotation).
  const std::vector<std::string>& names() const { return names_; }

  bool faultFlipBit(const std::string& name, unsigned bit);

 private:
  SecurityMode mode_;
  std::map<std::string, std::uint32_t> regs_;
  std::map<std::string, std::uint32_t> defaults_;
  std::map<std::string, bool> parity_;
  std::vector<std::string> names_;
};

}  // namespace aesifc::accel
