#pragma once
// The fail-secure checks a hardened soc::runDeviceFaultCampaign report must
// pass, shared by the tier-1 campaign tests and the nightly soak sweep.

#include <gtest/gtest.h>

#include <string>

#include "soc/fault_injector.h"

namespace aesifc::soc {

inline void expectFailSecure(const DeviceCampaignReport& r,
                             const std::string& what) {
  using accel::FaultSite;
  // The only data ever released to a tenant is its own golden AES/GCM
  // result: no cross-tenant material, no corrupted-key block, no wrong tag.
  EXPECT_EQ(r.wrong_block_releases, 0u)
      << what << "\nreplay trace:\n" << traceToString(r.campaign.records);
  EXPECT_EQ(r.wrong_tag_releases, 0u)
      << what << "\nreplay trace:\n" << traceToString(r.campaign.records);
  // Every offered op ends in exactly one driver verdict.
  EXPECT_EQ(r.ops + r.gcm_ops, r.telemetry.operations()) << what;
  EXPECT_GT(r.ok, 0u) << what << ": campaign produced no successful traffic";
  // The tag arrays are covered by the every-cycle scrub ring: no injected
  // tag upset may escape detection.
  EXPECT_EQ(r.campaign.escaped(static_cast<unsigned>(FaultSite::StageTag)), 0u)
      << what << "\n" << r.campaign.toJson();
  EXPECT_EQ(r.campaign.escaped(static_cast<unsigned>(FaultSite::ScratchTag)),
            0u)
      << what << "\n" << r.campaign.toJson();
  // Telemetry is internally consistent.
  EXPECT_EQ(r.campaign.detected, r.fault_events) << what;
  EXPECT_LE(r.events_logged, kCampaignEventLogCap) << what;
}

}  // namespace aesifc::soc
