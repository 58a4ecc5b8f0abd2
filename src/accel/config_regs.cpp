#include "accel/config_regs.h"

#include <algorithm>
#include <stdexcept>

namespace aesifc::accel {

ConfigRegisters::ConfigRegisters(SecurityMode mode)
    : mode_{mode},
      names_{"arbiter_mode", "debug_enable", "out_buf_depth", "version"} {
  // Register map of the prototype. Power-on values are the closed /
  // least-permissive settings — they double as the fail-secure targets.
  const std::array<std::uint32_t, kCount> reset{0, 0, 32, 0x20190602};
  for (unsigned i = 0; i < kCount; ++i)
    regs_[i] = {reset[i], reset[i], parity64(reset[i])};
}

unsigned ConfigRegisters::indexOf(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end())
    throw std::out_of_range("ConfigRegisters: no register '" + name + "'");
  return static_cast<unsigned>(it - names_.begin());
}

std::uint32_t ConfigRegisters::read(const std::string& name) const {
  return regs_[indexOf(name)].value;
}

bool ConfigRegisters::write(const std::string& name, std::uint32_t value,
                            const Label& writer) {
  Reg& r = regs_[indexOf(name)];
  // A write asserts the register's full (top) integrity, so only a
  // full-integrity principal may perform it. Confidentiality is not
  // checked: config values are public by construction, and the writer
  // choosing a public value does not declassify its secrets.
  if (mode_ == SecurityMode::Protected && !writer.i.flowsTo(label().i)) {
    return false;
  }
  r.value = value;
  r.parity = parity64(value);
  return true;
}

bool ConfigRegisters::parityOk(unsigned i) const {
  const Reg& r = regs_.at(i);
  return parity64(r.value) == r.parity;
}

void ConfigRegisters::restoreDefault(unsigned i) {
  Reg& r = regs_.at(i);
  r.value = r.reset;
  r.parity = parity64(r.reset);
}

bool ConfigRegisters::faultFlipBit(const std::string& name, unsigned bit) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end() || bit >= 32) return false;
  regs_[static_cast<unsigned>(it - names_.begin())].value ^= 1u << bit;
  return true;
}

}  // namespace aesifc::accel
