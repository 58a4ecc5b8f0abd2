#include "soc/policy_engine.h"

#include <sstream>

#include "soc/attacks.h"

namespace aesifc::soc {

std::vector<PolicyVerdict> evaluatePolicies(accel::SecurityMode mode) {
  const auto debug = runDebugPortAttack(mode);
  const auto overflow = runScratchpadOverflow(mode);
  const auto misuse = runKeyMisuseAttack(mode);
  const auto config = runConfigTamper(mode);
  const auto dma = runDmaTheftAttack(mode);

  std::vector<PolicyVerdict> verdicts;

  // 1. A classified key cannot be read out by a less confidential user.
  verdicts.push_back(
      {1, !debug.key_recovered,
       debug.key_recovered
           ? "Eve recovered Alice's full AES key via the debug peripheral"
           : "debug read of Alice's in-flight state blocked by tag check"});

  // 2. A protected key cannot be modified by a less trusted user: neither
  //    its scratchpad cells nor its round-key slot.
  const bool modified = overflow.alice_key_corrupted ||
                        misuse.alice_slot_overwritten ||
                        misuse.master_slot_overwritten;
  verdicts.push_back(
      {2, !modified,
       modified ? "Eve overwrote Alice's key cell or another principal's "
                  "round-key slot"
                : "per-cell tag check and key-slot owner rule block Eve"});

  // 3. A classified key cannot be used by a less trusted user.
  const bool used = misuse.master_key_output_released ||
                    misuse.alice_key_output_released;
  verdicts.push_back(
      {3, !used && misuse.supervisor_master_ok && misuse.own_key_ok,
       used ? "Eve obtained outputs computed under the master/Alice key"
            : "nonmalleable declassification rejected Eve's key-misuse "
              "outputs; supervisor and own-key use unaffected"});

  // 4. A low-confidential user cannot read a higher user's plaintext —
  //    checked through both the debug peripheral and the DMA path.
  const bool pt_read = debug.key_recovered || dma.alice_plaintext_stolen;
  verdicts.push_back(
      {4, !pt_read && dma.legit_dma_ok,
       pt_read ? "Alice's plaintext reached Eve (debug peripheral and/or "
                 "cross-user DMA)"
               : "stage contents and host pages carry Alice's tag; debug "
                 "reads and cross-user DMA both refused"});

  // 5. A less trusted user cannot modify data beyond its authority —
  //    scratchpad cells and host pages alike.
  const bool tampered =
      overflow.overflow_write_succeeded || !dma.dst_write_blocked;
  verdicts.push_back(
      {5, !tampered,
       tampered ? "out-of-authority write landed (scratchpad overrun or DMA "
                  "into a foreign page)"
                : "out-of-authority writes rejected at the scratchpad and "
                  "the DMA engine"});

  // 6. Config registers: readable by all, writable only by the supervisor.
  verdicts.push_back(
      {6,
       !config.eve_write_landed && config.supervisor_write_landed &&
           config.eve_read_ok && !debug.eve_enabled_debug,
       config.eve_write_landed
           ? "Eve modified a configuration register"
           : "unprivileged config writes blocked; supervisor writes and "
             "public reads work"});

  return verdicts;
}

std::string renderPolicyMatrix() {
  const auto base = evaluatePolicies(accel::SecurityMode::Baseline);
  const auto prot = evaluatePolicies(accel::SecurityMode::Protected);
  const auto& policies = ifc::table1Policies();

  std::ostringstream os;
  os << "Table 1 policy enforcement (behavioral accelerator)\n";
  os << "  id  baseline   protected  requirement\n";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    os << "  " << policies[i].id << "   "
       << (base[i].holds ? "holds     " : "VIOLATED  ") << " "
       << (prot[i].holds ? "holds     " : "VIOLATED  ") << " "
       << policies[i].requirement << "\n";
  }
  return os.str();
}

}  // namespace aesifc::soc
