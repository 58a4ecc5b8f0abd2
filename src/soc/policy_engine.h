#pragma once
// Evaluates the six Table 1 policies against the behavioral accelerator by
// running the attack drivers and interpreting their results as evidence for
// or against each requirement.

#include <string>
#include <vector>

#include "accel/types.h"
#include "ifc/policy.h"

namespace aesifc::soc {

struct PolicyVerdict {
  int policy_id = 0;
  bool holds = false;
  std::string evidence;
};

// Runs all attack drivers once under `mode` and scores each Table 1 row.
std::vector<PolicyVerdict> evaluatePolicies(accel::SecurityMode mode);

// Fixed-width report: requirements x {baseline, protected}.
std::string renderPolicyMatrix();

}  // namespace aesifc::soc
