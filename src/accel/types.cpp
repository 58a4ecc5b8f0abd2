#include "accel/types.h"

#include <sstream>

namespace aesifc::accel {

std::string toString(SecurityEventKind k) {
  switch (k) {
    case SecurityEventKind::ScratchpadWriteBlocked:
      return "scratchpad-write-blocked";
    case SecurityEventKind::ScratchpadReadBlocked:
      return "scratchpad-read-blocked";
    case SecurityEventKind::DebugReadBlocked: return "debug-read-blocked";
    case SecurityEventKind::ConfigWriteBlocked: return "config-write-blocked";
    case SecurityEventKind::DeclassifyRejected: return "declassify-rejected";
    case SecurityEventKind::StallDenied: return "stall-denied";
    case SecurityEventKind::OutputBufferOverflow:
      return "output-buffer-overflow";
    case SecurityEventKind::KeySlotBlocked: return "key-slot-blocked";
    case SecurityEventKind::FaultDetected: return "fault-detected";
    case SecurityEventKind::FaultScrubbed: return "fault-scrubbed";
    case SecurityEventKind::ServiceHealth: return "service-health";
    case SecurityEventKind::AuthTagMismatch: return "auth-tag-mismatch";
    case SecurityEventKind::MigrationBegun: return "migration-begun";
    case SecurityEventKind::MigrationKeyZeroized:
      return "migration-key-zeroized";
    case SecurityEventKind::MigrationCommitted: return "migration-committed";
    case SecurityEventKind::MigrationAborted: return "migration-aborted";
    case SecurityEventKind::DmaRingViolation: return "dma-ring-violation";
    case SecurityEventKind::DmaRingRecovery: return "dma-ring-recovery";
  }
  return "?";
}

Label workLabel(const Principal& p, lattice::Conf key_conf) {
  return Label{p.authority.c.join(key_conf), p.authority.i};
}

lattice::DowngradeDecision releaseDecision(const Label& work,
                                           const Principal& p) {
  return lattice::checkDeclassify(work, Label{lattice::Conf::bottom(), work.i},
                                  p);
}

std::string toString(AccelStatus s) {
  switch (s) {
    case AccelStatus::Ok: return "ok";
    case AccelStatus::Suppressed: return "suppressed";
    case AccelStatus::Timeout: return "timeout";
    case AccelStatus::FaultAborted: return "fault-aborted";
    case AccelStatus::Dropped: return "dropped";
    case AccelStatus::Rejected: return "rejected";
    case AccelStatus::AuthFailed: return "auth-failed";
  }
  return "?";
}

std::string toString(FaultSite s) {
  switch (s) {
    case FaultSite::StageData: return "stage-data";
    case FaultSite::StageTag: return "stage-tag";
    case FaultSite::ScratchCell: return "scratch-cell";
    case FaultSite::ScratchTag: return "scratch-tag";
    case FaultSite::RoundKey: return "round-key";
    case FaultSite::ConfigReg: return "config-reg";
    case FaultSite::GhashStage: return "ghash-stage";
    case FaultSite::GhashStageTag: return "ghash-stage-tag";
    case FaultSite::GhashAcc: return "ghash-acc";
    case FaultSite::GhashKeyTable: return "ghash-key-table";
    case FaultSite::HostDrop: return "host-drop";
    case FaultSite::HostDuplicate: return "host-duplicate";
    case FaultSite::HostStuckReceiver: return "host-stuck-receiver";
    case FaultSite::HostSpuriousSubmit: return "host-spurious-submit";
    case FaultSite::RingDescriptor: return "ring-descriptor";
    case FaultSite::RingCompletion: return "ring-completion";
  }
  return "?";
}

std::string SecurityEvent::toString() const {
  std::ostringstream os;
  os << "cycle " << cycle << " [" << accel::toString(kind) << "] user " << user;
  if (!detail.empty()) os << " : " << detail;
  return os.str();
}

}  // namespace aesifc::accel
