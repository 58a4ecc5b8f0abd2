#pragma once
// Memory-mapped host interface (the AXI/RoCC block of Fig. 4): the
// register-level programming model a device driver would use. Each user
// application gets its own aperture (`MmioWindow`), which is how the SoC's
// interconnect attributes requests to principals (the per-user tags of
// Fig. 2).
//
// Register map (byte offsets, 32-bit registers):
//   0x000 CTRL      (W)  bit0 submit-encrypt, bit1 submit-decrypt,
//                        bit2 pop-output
//   0x004 STATUS    (R)  bit0 out-ready, bits[23:8] pending output count;
//                        bits 1-3 give the head output's verdict, at most
//                        one set: bit1 out-suppressed (declassification
//                        refused), bit2 out-fault-aborted (squashed
//                        fail-secure), bit3 out-dropped (overflow buffer
//                        full). With any of them set DATA_OUT reads zero
//                        and is no result.
//   0x008 KEY_SLOT  (RW) round-key slot for submits / expansion
//   0x010-0x01c DATA_IN[0..3]  (W) 128-bit input block, little-endian words
//   0x020-0x02c DATA_OUT[0..3] (R) head of the output queue
//   0x030 REQ_ID_LO (R)  0x034 REQ_ID_HI (R) id of the head output
//   0x040 KEY_ARG   (RW) cell index / cell count / conf palette index
//   0x044 KEY_LO    (W)  0x048 KEY_HI (W) 64-bit key cell staging
//   0x04c KEY_GO    (W)  1 = write staged words to cell KEY_ARG,
//                        2 = configure KEY_ARG(low byte)=base,
//                            (second byte)=count cells to this user,
//                        4 = expand cells starting at KEY_ARG(low byte)
//                            into KEY_SLOT with conf palette index in the
//                            second byte (0 = public, k = category k,
//                            15 = top/master)
//   0x050 LAST_OP_OK(R)  result of the last CTRL/KEY_GO side effect; 0 on
//                        a refusal, including an out-of-range KEY_GO (op 2
//                        past cell 8, op 4 with KEY_SLOT >= 8)
//   0x100 CFG_DEBUG_ENABLE / 0x104 CFG_ARBITER_MODE /
//   0x108 CFG_OUT_BUF_DEPTH / 0x10c CFG_VERSION    (RW; writes go through
//                        the integrity-checked config path)
//   0x200 DEBUG_STAGE (W) stage select
//   0x210-0x21c DEBUG_DATA[0..3] (R) tag-checked stage readout (zeros when
//                        refused)
//   0x220 DEBUG_OK    (R) last debug read honored; 0 on a refusal,
//                        including a DEBUG_STAGE past the pipe

#include <cstdint>

#include "accel/accelerator.h"

namespace aesifc::accel {

class MmioWindow {
 public:
  MmioWindow(AesAccelerator& acc, unsigned user);

  std::uint32_t read(std::uint32_t addr);
  void write(std::uint32_t addr, std::uint32_t value);

  unsigned user() const { return user_; }

  // Register offsets (public for drivers/tests).
  static constexpr std::uint32_t kCtrl = 0x000;
  static constexpr std::uint32_t kStatus = 0x004;
  static constexpr std::uint32_t kKeySlot = 0x008;
  static constexpr std::uint32_t kDataIn = 0x010;
  static constexpr std::uint32_t kDataOut = 0x020;
  static constexpr std::uint32_t kReqIdLo = 0x030;
  static constexpr std::uint32_t kReqIdHi = 0x034;
  static constexpr std::uint32_t kKeyArg = 0x040;
  static constexpr std::uint32_t kKeyLo = 0x044;
  static constexpr std::uint32_t kKeyHi = 0x048;
  static constexpr std::uint32_t kKeyGo = 0x04c;
  static constexpr std::uint32_t kLastOpOk = 0x050;
  static constexpr std::uint32_t kCfgBase = 0x100;
  static constexpr std::uint32_t kDebugStage = 0x200;
  static constexpr std::uint32_t kDebugData = 0x210;
  static constexpr std::uint32_t kDebugOk = 0x220;

 private:
  void doSubmit(bool decrypt);
  void doKeyGo(std::uint32_t op);
  lattice::Conf confFromPalette(unsigned idx) const;

  AesAccelerator& acc_;
  unsigned user_;
  std::uint64_t next_req_ = 1;

  std::uint32_t key_slot_ = 0;
  std::uint32_t key_arg_ = 0;
  std::uint32_t key_lo_ = 0, key_hi_ = 0;
  std::uint32_t data_in_[4] = {};
  std::uint32_t debug_stage_ = 0;
  bool last_ok_ = false;
  bool debug_ok_ = false;
};

}  // namespace aesifc::accel
