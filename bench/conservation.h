#pragma once
// The conservation identity a bench record carries: every offered request
// (block or AEAD op) ends in exactly one bucket,
//   offered = ok + suppressed + shed + rejected + failed + still_queued.
// `rejected` counts admission refusals and Rejected verdicts; `failed` the
// timed-out, fault-aborted, dropped and auth-failed ones. A bench that
// counts a shed ticket as work, or loses one, breaks the identity.

#include <cstdint>
#include <string>

#include "common/counters.h"
#include "soc/service.h"

namespace aesifc::bench {

struct Conservation {
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t still_queued = 0;

  // One offer: a refused one is already resolved as rejected.
  void offer(bool admitted) {
    ++offered;
    if (!admitted) ++rejected;
  }

  // One terminal verdict fetched from the service.
  void resolve(soc::CompletionStatus st) {
    using soc::CompletionStatus;
    switch (st) {
      case CompletionStatus::Ok: ++ok; break;
      case CompletionStatus::Suppressed: ++suppressed; break;
      case CompletionStatus::Shed: ++shed; break;
      case CompletionStatus::Rejected: ++rejected; break;
      case CompletionStatus::TimedOut:
      case CompletionStatus::FaultAborted:
      case CompletionStatus::Dropped:
      case CompletionStatus::AuthFailed: ++failed; break;
    }
  }

  static constexpr auto counterFields() {
    using C = Conservation;
    using counters::field;
    return std::tuple{
        field("offered", &C::offered), field("ok", &C::ok),
        field("suppressed", &C::suppressed), field("shed", &C::shed),
        field("rejected", &C::rejected), field("failed", &C::failed),
        field("still_queued", &C::still_queued)};
  }
  std::string toJson() const { return counters::toJson(*this); }
};
static_assert(counters::listsEveryByte<Conservation>());

}  // namespace aesifc::bench
