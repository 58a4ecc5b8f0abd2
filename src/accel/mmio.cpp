#include "accel/mmio.h"

#include <algorithm>

namespace aesifc::accel {

namespace {

const char* configName(std::uint32_t addr) {
  switch (addr) {
    case MmioWindow::kCfgBase + 0x0: return "debug_enable";
    case MmioWindow::kCfgBase + 0x4: return "arbiter_mode";
    case MmioWindow::kCfgBase + 0x8: return "out_buf_depth";
    case MmioWindow::kCfgBase + 0xc: return "version";
  }
  return nullptr;
}

std::uint32_t blockWord(const aes::Block& b, unsigned w) {
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(b[4 * w + i]) << (8 * i);
  return v;
}

}  // namespace

MmioWindow::MmioWindow(AesAccelerator& acc, unsigned user)
    : acc_{acc}, user_{user} {
  // Distinct id spaces per window so request ids do not collide.
  next_req_ = (static_cast<std::uint64_t>(user) << 48) | 1;
}

lattice::Conf MmioWindow::confFromPalette(unsigned idx) const {
  static const lattice::TagCodec codec = lattice::TagCodec::userCategories();
  return codec.conf(idx);
}

void MmioWindow::doSubmit(bool decrypt) {
  BlockRequest req;
  req.req_id = next_req_++;
  req.user = user_;
  req.key_slot = key_slot_;
  req.decrypt = decrypt;
  for (unsigned w = 0; w < 4; ++w) {
    for (unsigned i = 0; i < 4; ++i) {
      req.data[4 * w + i] =
          static_cast<std::uint8_t>(data_in_[w] >> (8 * i));
    }
  }
  last_ok_ = acc_.submit(req);
}

void MmioWindow::doKeyGo(std::uint32_t op) {
  switch (op) {
    case 1: {  // write staged 64-bit word into scratchpad cell KEY_ARG
      const std::uint64_t v =
          (static_cast<std::uint64_t>(key_hi_) << 32) | key_lo_;
      last_ok_ = acc_.writeKeyCell(user_, key_arg_ & 0xff, v);
      break;
    }
    case 2: {  // configure cells [base, base+count) to this user
      const unsigned base = key_arg_ & 0xff;
      const unsigned count = (key_arg_ >> 8) & 0xff;
      last_ok_ = acc_.configureKeyCells(user_, base, count);
      break;
    }
    case 4: {  // expand from cells into KEY_SLOT
      const unsigned base = key_arg_ & 0xff;
      const unsigned palette = (key_arg_ >> 8) & 0xf;
      last_ok_ = acc_.loadKey(user_, key_slot_, base, aes::KeySize::Aes128,
                              confFromPalette(palette));
      break;
    }
    default:
      last_ok_ = false;
      break;
  }
}

void MmioWindow::write(std::uint32_t addr, std::uint32_t value) {
  if (addr >= kDataIn && addr < kDataIn + 16) {
    data_in_[(addr - kDataIn) / 4] = value;
    return;
  }
  if (const char* cfg = configName(addr)) {
    last_ok_ = acc_.writeConfig(user_, cfg, value);
    return;
  }
  switch (addr) {
    case kCtrl:
      if (value & 1u) doSubmit(false);
      if (value & 2u) doSubmit(true);
      if (value & 4u) {
        last_ok_ = acc_.fetchOutput(user_).has_value();
      }
      break;
    case kKeySlot: key_slot_ = value; break;
    case kKeyArg: key_arg_ = value; break;
    case kKeyLo: key_lo_ = value; break;
    case kKeyHi: key_hi_ = value; break;
    case kKeyGo: doKeyGo(value); break;
    case kDebugStage: debug_stage_ = value; break;
    default:
      break;  // writes to read-only / unmapped space are ignored
  }
}

std::uint32_t MmioWindow::read(std::uint32_t addr) {
  if (addr >= kDataOut && addr < kDataOut + 16) {
    const BlockResponse* head = acc_.peekOutput(user_);
    if (head == nullptr) return 0;
    return blockWord(head->data, (addr - kDataOut) / 4);
  }
  if (addr >= kDebugData && addr < kDebugData + 16) {
    const auto data = acc_.debugReadStage(user_, debug_stage_);
    debug_ok_ = data.has_value();
    if (!data) return 0;
    return blockWord(*data, (addr - kDebugData) / 4);
  }
  if (const char* cfg = configName(addr)) {
    return acc_.readConfig(cfg);
  }
  switch (addr) {
    case kStatus: {
      const BlockResponse* head = acc_.peekOutput(user_);
      std::uint32_t s = 0;
      if (head != nullptr) {
        s |= 1u;
        if (head->status == AccelStatus::Suppressed) s |= 2u;
        if (head->status == AccelStatus::FaultAborted) s |= 4u;
        if (head->status == AccelStatus::Dropped) s |= 8u;
      }
      s |= static_cast<std::uint32_t>(
               std::min<std::size_t>(acc_.pendingOutputs(user_), 0xffff))
           << 8;
      return s;
    }
    case kKeySlot: return key_slot_;
    case kKeyArg: return key_arg_;
    case kReqIdLo: {
      const BlockResponse* head = acc_.peekOutput(user_);
      return head ? static_cast<std::uint32_t>(head->req_id) : 0;
    }
    case kReqIdHi: {
      const BlockResponse* head = acc_.peekOutput(user_);
      return head ? static_cast<std::uint32_t>(head->req_id >> 32) : 0;
    }
    case kLastOpOk: return last_ok_ ? 1 : 0;
    case kDebugOk: return debug_ok_ ? 1 : 0;
    default: return 0;
  }
}

}  // namespace aesifc::accel
