#include "soc/attacks.h"

#include <algorithm>
#include <stdexcept>

#include "accel/accelerator.h"
#include "accel/driver.h"
#include "aes/cipher.h"
#include "aes/key_schedule.h"
#include "aes/modes.h"
#include "aes/sbox.h"
#include "common/rng.h"
#include "soc/dma.h"
#include "soc/fault_injector.h"

namespace aesifc::soc {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::BlockRequest;
using accel::BlockResponse;
using accel::SecurityEventKind;
using accel::SecurityMode;

namespace {

struct Bench {
  AesAccelerator acc;
  unsigned sup, alice, eve;
  std::vector<std::uint8_t> master_key, alice_key, eve_key;

  explicit Bench(SecurityMode mode, unsigned out_buffer_depth = 64)
      : acc{AcceleratorConfig{mode, 10, out_buffer_depth, false}} {
    sup = acc.addUser(lattice::Principal::supervisor());
    alice = acc.addUser(lattice::Principal::user("alice", 1));
    eve = acc.addUser(lattice::Principal::user("eve", 2));

    Rng rng{0xa11cee4e};
    master_key = randomKey(rng);
    alice_key = randomKey(rng);
    eve_key = randomKey(rng);

    // Cell map: Eve 0-1, Alice 2-3 (adjacent to Eve: the Fig. 5 overflow
    // target), supervisor 6-7.
    loadKey128(sup, 0, 6, master_key, lattice::Conf::top());
    loadKey128(alice, 1, 2, alice_key, acc.principal(alice).authority.c);
    loadKey128(eve, 2, 0, eve_key, acc.principal(eve).authority.c);
  }

  static std::vector<std::uint8_t> randomKey(Rng& rng) {
    std::vector<std::uint8_t> k(16);
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.next());
    return k;
  }

  void loadKey128(unsigned user, unsigned slot, unsigned base,
                  const std::vector<std::uint8_t>& key, lattice::Conf conf) {
    if (!accel::loadKey128(acc, user, slot, base, key, conf))
      throw std::runtime_error("attack bench: legitimate key load refused");
  }

  // Submit one block for `user` and run until its response arrives.
  BlockResponse crypt(unsigned user, unsigned slot, const aes::Block& data,
                      bool decrypt) {
    static std::uint64_t next_id = 1000000;
    BlockRequest req;
    req.req_id = ++next_id;
    req.user = user;
    req.key_slot = slot;
    req.decrypt = decrypt;
    req.data = data;
    if (!acc.submit(req))
      throw std::runtime_error("attack bench: submit refused");
    for (unsigned i = 0; i < 500; ++i) {
      acc.tick();
      if (auto out = acc.fetchOutput(user)) {
        if (out->req_id == req.req_id) return *out;
      }
    }
    throw std::runtime_error("attack bench: response never arrived");
  }
};

// True when `r` released a result and it equals `want`.
bool releasedAs(const BlockResponse& r, const aes::Block& want) {
  return r.status == accel::AccelStatus::Ok && r.data == want;
}

aes::Block blockOf(std::uint8_t fill) {
  aes::Block b;
  for (unsigned i = 0; i < 16; ++i)
    b[i] = static_cast<std::uint8_t>(fill + i * 7);
  return b;
}

}  // namespace

// --- Timing covert channel ----------------------------------------------------

TimingChannelResult runTimingChannelAttack(SecurityMode mode,
                                           const TimingChannelParams& p) {
  Bench bench{mode, /*out_buffer_depth=*/256};
  auto& acc = bench.acc;
  Rng rng{p.seed};

  std::vector<int> secret(p.secret_bits);
  for (auto& b : secret) b = rng.chance(0.5) ? 1 : 0;

  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> eve_latencies;
  std::vector<int> eve_window_completions(p.secret_bits, 0);

  auto submitFor = [&](unsigned user, unsigned slot) {
    if (acc.pendingInputs(user) >= 2) return;
    BlockRequest req;
    req.req_id = next_id++;
    req.user = user;
    req.key_slot = slot;
    req.data = blockOf(static_cast<std::uint8_t>(next_id));
    acc.submit(req);
  };

  // Warm the pipeline before the first window.
  for (unsigned i = 0; i < 3 * acc.pipeline().depth(); ++i) {
    submitFor(bench.alice, 1);
    submitFor(bench.eve, 2);
    acc.tick();
    while (acc.fetchOutput(bench.alice)) {
    }
    while (acc.fetchOutput(bench.eve)) {
    }
  }

  const std::uint64_t t0 = acc.cycle();
  const std::uint64_t total_cycles =
      static_cast<std::uint64_t>(p.secret_bits) * p.window;

  while (acc.cycle() - t0 < total_cycles) {
    const std::uint64_t rel = acc.cycle() - t0;
    const unsigned window = static_cast<unsigned>(rel / p.window);
    // Alice signals bit=1 by withholding her receiver (stall requests).
    acc.setReceiverReady(bench.alice, secret[window] == 0);
    submitFor(bench.alice, 1);
    submitFor(bench.eve, 2);
    acc.tick();
    while (acc.fetchOutput(bench.alice)) {
    }
    while (auto out = acc.fetchOutput(bench.eve)) {
      const std::uint64_t done_rel = out->complete_cycle - t0;
      if (done_rel < total_cycles) {
        ++eve_window_completions[done_rel / p.window];
        eve_latencies.push_back(out->complete_cycle - out->accept_cycle);
      }
    }
  }
  acc.setReceiverReady(bench.alice, true);

  // Eve decodes: fewer completions in a window => Alice was stalling (bit 1).
  int lo = eve_window_completions[0], hi = eve_window_completions[0];
  for (int c : eve_window_completions) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  const double threshold = (lo + hi) / 2.0;
  std::vector<int> decoded(p.secret_bits);
  unsigned correct = 0;
  for (unsigned i = 0; i < p.secret_bits; ++i) {
    decoded[i] =
        (lo == hi) ? 0 : (eve_window_completions[i] < threshold ? 1 : 0);
    if (decoded[i] == secret[i]) ++correct;
  }

  TimingChannelResult r;
  r.mi_bits = mutualInformationBits(secret, decoded);
  r.accuracy = static_cast<double>(correct) / p.secret_bits;
  r.eve_latency = latencyStats(eve_latencies);
  r.stalled_cycles = acc.stats().stalled_cycles;
  r.denied_stalls = acc.stats().denied_stalls;
  return r;
}

AcceptanceDelayResult runAcceptanceDelayAttack(bool meet_includes_inputs,
                                               const TimingChannelParams& p) {
  AcceleratorConfig cfg;
  cfg.mode = SecurityMode::Protected;
  cfg.out_buffer_depth = 256;
  cfg.meet_includes_inputs = meet_includes_inputs;

  AesAccelerator acc{cfg};
  const unsigned sup = acc.addUser(lattice::Principal::supervisor());
  const unsigned alice = acc.addUser(lattice::Principal::user("alice", 1));
  const unsigned eve = acc.addUser(lattice::Principal::user("eve", 2));
  (void)sup;

  Rng rng{p.seed};
  std::vector<std::uint8_t> alice_key(16), eve_key(16);
  for (auto& b : alice_key) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : eve_key) b = static_cast<std::uint8_t>(rng.next());

  auto load = [&](unsigned user, unsigned slot, unsigned base,
                  const std::vector<std::uint8_t>& key) {
    if (!accel::loadKey128(acc, user, slot, base, key,
                           acc.principal(user).authority.c))
      throw std::runtime_error("acceptance bench: key load refused");
  };
  load(alice, 1, 2, alice_key);
  load(eve, 2, 0, eve_key);

  std::vector<int> secret(p.secret_bits);
  for (auto& b : secret) b = rng.chance(0.5) ? 1 : 0;

  std::uint64_t next_id = 1;
  auto aliceSubmit = [&] {
    if (acc.pendingInputs(alice) >= 2) return;
    BlockRequest req;
    req.req_id = next_id++;
    req.user = alice;
    req.key_slot = 1;
    req.data = blockOf(static_cast<std::uint8_t>(next_id));
    acc.submit(req);
  };

  // Warm up with Alice-only traffic.
  for (unsigned i = 0; i < 3 * acc.pipeline().depth(); ++i) {
    aliceSubmit();
    acc.tick();
    while (acc.fetchOutput(alice)) {
    }
  }

  const std::uint64_t t0 = acc.cycle();
  // A probe that never returns within the experiment is the strongest stall
  // evidence of all; score it as a very long latency.
  const double kTrapped = 3.0 * p.window;
  std::vector<double> window_latency(p.secret_bits, kTrapped);
  std::vector<std::uint64_t> probe_latencies;
  std::uint64_t probe_id = 0;
  std::uint64_t probe_submit_cycle = 0;
  int probe_window = -1;

  while (acc.cycle() - t0 < static_cast<std::uint64_t>(p.secret_bits) * p.window) {
    const unsigned window =
        static_cast<unsigned>((acc.cycle() - t0) / p.window);
    acc.setReceiverReady(alice, secret[window] == 0);
    aliceSubmit();
    // One Eve probe at the start of each window.
    if (static_cast<int>(window) != probe_window) {
      probe_window = static_cast<int>(window);
      BlockRequest req;
      req.req_id = probe_id = next_id++;
      req.user = eve;
      req.key_slot = 2;
      req.data = blockOf(0x55);
      acc.submit(req);
      probe_submit_cycle = acc.cycle();
    }
    acc.tick();
    while (acc.fetchOutput(alice)) {
    }
    while (auto out = acc.fetchOutput(eve)) {
      if (out->req_id == probe_id && probe_window >= 0 &&
          probe_window < static_cast<int>(p.secret_bits)) {
        const std::uint64_t lat = out->complete_cycle - probe_submit_cycle;
        window_latency[static_cast<unsigned>(probe_window)] =
            static_cast<double>(lat);
        probe_latencies.push_back(lat);
      }
    }
  }
  acc.setReceiverReady(alice, true);

  double lo = window_latency[0], hi = window_latency[0];
  for (double v : window_latency) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double threshold = (lo + hi) / 2.0;
  std::vector<int> decoded(p.secret_bits);
  unsigned correct = 0;
  for (unsigned i = 0; i < p.secret_bits; ++i) {
    decoded[i] = (lo == hi) ? 0 : (window_latency[i] > threshold ? 1 : 0);
    if (decoded[i] == secret[i]) ++correct;
  }
  // The attacker calibrates polarity, so score the better of the two.
  correct = std::max(correct, p.secret_bits - correct);

  AcceptanceDelayResult r;
  r.mi_bits = mutualInformationBits(secret, decoded);
  r.accuracy = static_cast<double>(correct) / p.secret_bits;
  r.probe_latency = latencyStats(probe_latencies);
  r.stalled_cycles = acc.stats().stalled_cycles;
  r.denied_stalls = acc.stats().denied_stalls;
  return r;
}

// --- Scratchpad overflow --------------------------------------------------------

OverflowResult runScratchpadOverflow(SecurityMode mode) {
  Bench bench{mode};
  auto& acc = bench.acc;
  OverflowResult r;

  // Sanity: Alice's key works before the attack.
  const aes::Block pt = blockOf(0x20);
  const aes::Block golden =
      aes::encryptBlock(pt, bench.alice_key.data(), aes::KeySize::Aes128);
  if (bench.crypt(bench.alice, 1, pt, false).data != golden)
    throw std::runtime_error("overflow bench: pre-attack encryption wrong");

  // Eve claims to store a 192-bit key in her 128-bit allocation: cells 0,1
  // are hers, cell 2 belongs to Alice (Fig. 5).
  acc.writeKeyCell(bench.eve, 0, 0x1111111111111111ULL);
  acc.writeKeyCell(bench.eve, 1, 0x2222222222222222ULL);
  r.overflow_write_succeeded =
      acc.writeKeyCell(bench.eve, 2, 0xdeadbeefdeadbeefULL);

  // Alice refreshes her key from the scratchpad (periodic re-expansion) and
  // encrypts again.
  if (!acc.loadKey(bench.alice, 1, 2, aes::KeySize::Aes128,
                   acc.principal(bench.alice).authority.c))
    throw std::runtime_error("overflow bench: alice reload refused");
  const auto after = bench.crypt(bench.alice, 1, pt, false);
  r.alice_key_corrupted = !releasedAs(after, golden);
  r.blocked_events = acc.eventCount(SecurityEventKind::ScratchpadWriteBlocked);
  return r;
}

// --- Debug peripheral ------------------------------------------------------------

DebugPortResult runDebugPortAttack(SecurityMode mode) {
  Bench bench{mode};
  auto& acc = bench.acc;
  DebugPortResult r;

  // Step 1: Eve tries to enable the debug port herself (config tamper).
  acc.writeConfig(bench.eve, "debug_enable", 1);
  r.eve_enabled_debug = acc.readConfig("debug_enable") == 1;
  if (!r.eve_enabled_debug) {
    // In the protected design Eve's write is blocked; model the rogue/test
    // scenario where the port was legitimately enabled by the supervisor.
    acc.writeConfig(bench.sup, "debug_enable", 1);
  }

  // Step 2: Alice encrypts a plaintext Eve knows (e.g. a protocol header).
  const aes::Block pt = blockOf(0x41);
  BlockRequest req;
  req.req_id = 7777;
  req.user = bench.alice;
  req.key_slot = 1;
  req.data = pt;
  acc.submit(req);
  acc.tick();  // the block now sits in stage 0: SubBytes(pt ^ rk0)

  // Step 3: Eve reads stage 0 through the debug port and inverts the
  // round-0 micro-op to recover Alice's key.
  if (auto leaked = acc.debugReadStage(bench.eve, 0)) {
    std::vector<std::uint8_t> recovered(16);
    for (unsigned i = 0; i < 16; ++i) {
      recovered[i] =
          static_cast<std::uint8_t>(aes::invSbox((*leaked)[i]) ^ pt[i]);
    }
    r.key_recovered = recovered == bench.alice_key;
  }

  // Step 4: a fully cleared principal may still use the debug port.
  r.supervisor_read_ok = acc.debugReadStage(bench.sup, 0).has_value();

  r.blocked_events = acc.eventCount(SecurityEventKind::DebugReadBlocked) +
                     acc.eventCount(SecurityEventKind::ConfigWriteBlocked);
  return r;
}

// --- Key misuse -------------------------------------------------------------------

KeyMisuseResult runKeyMisuseAttack(SecurityMode mode) {
  Bench bench{mode};
  KeyMisuseResult r;

  // Normal operation: Alice with her own key.
  const aes::Block pt_a = blockOf(0x10);
  const aes::Block ct_a =
      aes::encryptBlock(pt_a, bench.alice_key.data(), aes::KeySize::Aes128);
  r.own_key_ok = releasedAs(bench.crypt(bench.alice, 1, pt_a, false), ct_a);

  // Eve encrypts with the master key (slot 0).
  const aes::Block pt_e = blockOf(0x30);
  const aes::Block ct_master =
      aes::encryptBlock(pt_e, bench.master_key.data(), aes::KeySize::Aes128);
  r.master_key_output_released =
      releasedAs(bench.crypt(bench.eve, 0, pt_e, false), ct_master);

  // Eve decrypts Alice's ciphertext with Alice's key slot.
  r.alice_key_output_released =
      releasedAs(bench.crypt(bench.eve, 1, ct_a, true), pt_a);

  // The supervisor is trusted enough to declassify master-key output.
  r.supervisor_master_ok =
      releasedAs(bench.crypt(bench.sup, 0, pt_e, false), ct_master);

  // Eve expands her key (still in her cells 0-1) over Alice's slot and the
  // master slot, labelled like the key it replaces so outputs still leave.
  const auto ks = aes::KeySize::Aes128;
  const aes::Block ct_eve = aes::encryptBlock(pt_e, bench.eve_key.data(), ks);
  bench.acc.loadKey(bench.eve, 1, 0, ks, lattice::Conf::category(1));
  bench.acc.loadKey(bench.eve, 0, 0, ks, lattice::Conf::top());
  r.alice_slot_overwritten = bench.crypt(bench.alice, 1, pt_e, false).data == ct_eve;
  r.master_slot_overwritten = bench.crypt(bench.sup, 0, pt_e, false).data == ct_eve;

  r.declass_rejected =
      bench.acc.eventCount(SecurityEventKind::DeclassifyRejected);
  return r;
}

// --- DMA theft -------------------------------------------------------------------

DmaTheftResult runDmaTheftAttack(SecurityMode mode) {
  Bench bench{mode};
  auto& acc = bench.acc;
  DmaTheftResult r;

  HostMemory mem{64 * 1024};
  DmaRingEngine eng{acc, mem};
  // One ring channel per user. The OS labels each channel's descriptor and
  // completion pages with its owner's authority, so the ring-page rule binds
  // the channel to that user the way the MMIO port binds a BlockRequest.
  DmaRingConfig alice_ring;
  alice_ring.desc_base = 0x000;
  alice_ring.desc_slots = 4;
  alice_ring.comp_base = 0x100;
  alice_ring.comp_slots = 4;
  DmaRingConfig eve_ring = alice_ring;
  eve_ring.desc_base = 0x200;
  eve_ring.comp_base = 0x300;
  mem.setPageLabel(0x000, 0x200, acc.principal(bench.alice).authority);
  mem.setPageLabel(0x200, 0x200, acc.principal(bench.eve).authority);
  DmaRingDriver alice_drv{eng, mem, eng.addChannel(alice_ring), alice_ring};
  DmaRingDriver eve_drv{eng, mem, eng.addChannel(eve_ring), eve_ring};
  // Publish one descriptor and wait for its completion record.
  auto run = [](DmaRingDriver& drv, const DmaDescriptor& d) {
    const auto seq = drv.submit(d);
    const DmaCompletion* c = seq ? drv.wait(*seq, 1u << 16) : nullptr;
    return c ? *c : DmaCompletion{DmaError::RingStalled};
  };

  // The OS allocates per-user buffers (page-aligned, page-labeled).
  const std::size_t alice_buf = 0x1000, alice_dst = 0x2000;
  const std::size_t eve_dst = 0x8000;
  const std::size_t len = 256;
  mem.setPageLabel(alice_buf, len, acc.principal(bench.alice).authority);
  mem.setPageLabel(alice_dst, len, acc.principal(bench.alice).authority);
  mem.setPageLabel(eve_dst, len, acc.principal(bench.eve).authority);

  // Alice's secret plaintext.
  std::vector<std::uint8_t> secret(len);
  for (std::size_t i = 0; i < len; ++i)
    secret[i] = static_cast<std::uint8_t>(0xA0 + i * 13);
  mem.writeBytes(alice_buf, secret);

  // Legitimate use: Alice encrypts her own buffer in place.
  DmaDescriptor legit;
  legit.user = bench.alice;
  legit.key_slot = 1;
  legit.mode = DmaMode::EcbEncrypt;
  legit.src = alice_buf;
  legit.dst = alice_dst;
  legit.len = len;
  const std::uint64_t start = acc.cycle();
  const auto lr = run(alice_drv, legit);
  if (lr.status == DmaError::None) {
    const auto ek = aes::expandKey(bench.alice_key, aes::KeySize::Aes128);
    r.legit_dma_ok = mem.readBytes(alice_dst, len) ==
                     aes::ecbEncrypt(secret, ek);
    r.cycles_per_block =
        static_cast<double>(acc.cycle() - start) / lr.blocks;
  }

  // The attack: Eve encrypts Alice's buffer under Eve's key into Eve's
  // pages, then decrypts the result offline with her own key.
  DmaDescriptor theft;
  theft.user = bench.eve;
  theft.key_slot = 2;
  theft.mode = DmaMode::EcbEncrypt;
  theft.src = alice_buf;
  theft.dst = eve_dst;
  theft.len = len;
  const auto tr = run(eve_drv, theft);
  r.src_read_blocked = tr.status == DmaError::SrcPageDenied;
  if (tr.status == DmaError::None) {
    const auto ek = aes::expandKey(bench.eve_key, aes::KeySize::Aes128);
    r.alice_plaintext_stolen =
        aes::ecbDecrypt(mem.readBytes(eve_dst, len), ek) == secret;
  }

  // Integrity direction: Eve scribbles over Alice's destination pages.
  DmaDescriptor scribble = theft;
  scribble.src = eve_dst;
  scribble.dst = alice_dst;
  r.dst_write_blocked =
      run(eve_drv, scribble).status == DmaError::DstPageDenied;

  return r;
}

// --- DMA descriptor-ring fault campaign ------------------------------------------

namespace {

// Rewrite one little-endian u64 field of a published ring descriptor and
// re-seal its checksum — the adversary who can write ring memory can of
// course keep the checksum consistent; the engine's structural validation
// and latching must not depend on checksums alone.
void rewriteDescField(HostMemory& mem, std::size_t desc_addr, unsigned offset,
                      std::uint64_t value) {
  mem.write64(desc_addr + offset, value);
  mem.write32(desc_addr + 4, ringChecksum(mem, desc_addr + 8, kDescBytes - 8));
}

}  // namespace

RingCampaignReport runRingFaultCampaign(const RingCampaignConfig& cfg) {
  Bench bench{SecurityMode::Protected};
  auto& acc = bench.acc;
  RingCampaignReport rep;
  Rng rng{cfg.seed * 0x9e3779b97f4a7c15ull + 1};

  HostMemory mem{256 * 1024};
  DmaRingEngine eng{acc, mem, cfg.hardened};

  DmaRingConfig ring;
  ring.desc_base = 0x0000;
  ring.desc_slots = 16;
  ring.chain_base = 0x0400;
  ring.chain_slots = 32;
  ring.comp_base = 0x0c00;
  ring.comp_slots = 8;  // small on purpose: overflow scenarios must bite
  ring.watchdog_cycles = cfg.watchdog_cycles;
  const unsigned ch = eng.addChannel(ring);
  DmaRingDriver drv{eng, mem, ch, ring};

  // Ring and data pages belong to alice; a victim region belongs to eve.
  const lattice::Label alice_l = acc.principal(bench.alice).authority;
  const lattice::Label eve_l = acc.principal(bench.eve).authority;
  mem.setPageLabel(0x0000, 0x1000, alice_l);          // rings + arena
  const std::size_t src_base = 0x2000, dst_base = 0x8000;
  mem.setPageLabel(src_base, 0x4000, alice_l);
  mem.setPageLabel(dst_base, 0x4000, alice_l);
  const std::size_t victim_base = 0x10000, victim_len = 0x1000;
  mem.setPageLabel(victim_base, victim_len, eve_l);
  for (std::size_t i = 0; i < victim_len; ++i)
    mem.write8(victim_base + i, static_cast<std::uint8_t>(0xE5 ^ (i * 7)));
  std::vector<std::uint8_t> victim_snap = mem.readBytes(victim_base, victim_len);

  // Random ring/host faults land through the injector between clock edges.
  FaultCampaignConfig fcfg;
  fcfg.seed = cfg.seed;
  fcfg.fault_rate = cfg.fault_rate;
  fcfg.hw_faults = false;  // this campaign is about the ring, not the core
  FaultInjector inj{acc, fcfg, {bench.alice}};
  inj.attachRingMemory(
      &mem,
      {{ring.desc_base, ring.desc_slots, kDescBytes},
       {ring.chain_base, ring.chain_slots, kDescBytes}},
      {{ring.comp_base, ring.comp_slots, kCompBytes}});
  acc.setTickHook([&] { inj.tick(); });

  const auto ek = aes::expandKey(bench.alice_key, aes::KeySize::Aes128);
  const std::uint64_t budget =
      16 * cfg.watchdog_cycles + 4096;  // per-transfer cycle budget

  for (unsigned i = 0; i < cfg.descriptors; ++i) {
    ++rep.descriptors;
    const unsigned scenario =
        cfg.scripted_scenarios ? i % 7 : 7;  // 7 = plain transfer

    // Build one transfer: fresh random payload, ECB or CTR, sometimes
    // scatter-gathered across 2-3 segments.
    const std::size_t len = 16 * (1 + rng.below(24));
    const std::size_t src = src_base + (i % 16) * 0x200;
    const std::size_t dst = dst_base + (i % 16) * 0x200;
    std::vector<std::uint8_t> payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    mem.writeBytes(src, payload);

    DmaDescriptor head;
    head.user = bench.alice;
    head.key_slot = 1;
    head.mode = (i % 2 == 0) ? DmaMode::EcbEncrypt : DmaMode::CtrCrypt;
    for (auto& b : head.ctr_iv) b = static_cast<std::uint8_t>(rng.next());

    std::vector<std::uint8_t> golden;
    if (head.mode == DmaMode::EcbEncrypt) {
      golden = aes::ecbEncrypt(payload, ek);
    } else {
      aes::Iv nonce{};
      std::copy(head.ctr_iv.begin(), head.ctr_iv.end(), nonce.begin());
      golden = aes::ctrCrypt(payload, ek, nonce);
    }
    const std::vector<std::uint8_t> dst_before = mem.readBytes(dst, len);

    // Split into segments (chains exercise the next-pointer path).
    std::vector<DmaDescriptor> segs;
    const unsigned nseg = 1 + static_cast<unsigned>(rng.below(3));
    std::size_t off = 0;
    for (unsigned s = 0; s < nseg && off < len; ++s) {
      DmaDescriptor seg = head;
      seg.src = src + off;
      seg.dst = dst + off;
      const std::size_t remain = len - off;
      std::size_t take = (s + 1 == nseg)
                             ? remain
                             : 16 * (1 + rng.below(remain / 16));
      take = std::min(take, remain);
      seg.len = take;
      segs.push_back(seg);
      off += take;
    }

    auto seq = drv.submitChain(segs);
    if (!seq) {  // ring backpressure: drain a little and retry once
      for (unsigned t = 0; t < 256; ++t) eng.tick();
      drv.poll();
      ++rep.submit_retries;
      seq = drv.submitChain(segs);
      if (!seq) {
        ++rep.unresolved;
        continue;
      }
    }

    // Scripted adversarial interleave.
    const std::size_t head_addr =
        ring.desc_base +
        ((eng.headSlot(ch)) % ring.desc_slots) * kDescBytes;
    bool stalled_receiver = false;
    std::uint64_t release_at = 0;
    switch (scenario) {
      case 1: {  // chain loop: continuation points at itself
        if (segs.size() > 1) {
          // Re-read the published next-pointer; a ring fault may already
          // have corrupted it, so only follow it if it still lands in the
          // chain arena (the adversary writes ring memory, not random RAM).
          const std::uint64_t cont = mem.read64(head_addr + 40);
          const std::uint64_t arena_end =
              ring.chain_base + ring.chain_slots * kDescBytes;
          if (cont >= ring.chain_base && cont + kDescBytes <= arena_end)
            rewriteDescField(mem, cont, 40, cont);
        }
        break;
      }
      case 2:  // OOB next-pointer: head chains into the completion ring
        rewriteDescField(mem, head_addr, 40, ring.comp_base);
        break;
      case 3:  // completion overflow: host stops consuming completions
        drv.setAutoPoll(false);
        break;
      case 4:  // stalled ring: receiver wedged past the watchdog
        acc.setReceiverReady(bench.alice, false);
        stalled_receiver = true;
        release_at = cfg.watchdog_cycles + 64;
        break;
      default: break;
    }

    std::uint64_t waited = 0;
    bool torn_done = false, toctou_done = false, reset_done = false;
    while (!drv.done(*seq) && waited < budget) {
      eng.tick();
      ++waited;
      if (stalled_receiver && waited == release_at) {
        acc.setReceiverReady(bench.alice, true);
        inj.releaseStuckReceivers();
        stalled_receiver = false;
      }
      if (scenario == 0 && !torn_done && waited == 8) {
        // Torn ownership: the host reclaims the descriptor mid-flight.
        mem.write32(head_addr,
                    static_cast<std::uint32_t>(eng.generation(ch)) << 16);
        torn_done = true;
      }
      if (scenario == 6 && !toctou_done && waited == 8) {
        // TOCTOU: redirect the head's destination into eve's pages after
        // the engine has (or should have) latched it.
        rewriteDescField(mem, head_addr, 24, victim_base);
        toctou_done = true;
      }
      if (scenario == 5 && !reset_done && waited == 4) {
        // Ring reset under a published descriptor: everything in flight is
        // abandoned and pre-reset descriptors turn stale.
        eng.ringReset(ch);
        drv.resync();
        reset_done = true;
      }
      if (scenario == 3 && waited == cfg.watchdog_cycles + 256) {
        drv.setAutoPoll(true);  // host resumes; parked completion lands
        drv.poll();
      }
    }
    if (stalled_receiver) {
      acc.setReceiverReady(bench.alice, true);
      inj.releaseStuckReceivers();
    }
    drv.setAutoPoll(true);
    drv.poll();

    const DmaCompletion* comp = drv.result(*seq);
    if (comp == nullptr) {
      ++rep.unresolved;
      // A wedged ring (e.g. a fault cleared OWNED before the fetch) is
      // recovered the blunt way: quiesce everything and start a fresh
      // generation, exactly what a driver's error path would do.
      eng.ringReset(ch);
      drv.resync();
    } else if (comp->status == DmaError::None) {
      ++rep.completed_ok;
      if (mem.readBytes(dst, len) != golden) ++rep.wrong_plaintext_releases;
    } else {
      ++rep.refused;
      // Fail-secure: a refused transfer must not have moved its
      // destination (scenario 6 aside — there the write went elsewhere,
      // which the victim-page oracle below catches).
      if (scenario != 6 && mem.readBytes(dst, len) != dst_before)
        ++rep.partial_writes;
    }

    // Cross-label oracle: any byte of eve's pages changed?
    const auto victim_now = mem.readBytes(victim_base, victim_len);
    if (victim_now != victim_snap) {
      ++rep.cross_label_writes;
      for (std::size_t b = 0; b < victim_len; ++b)  // restore + re-arm
        mem.write8(victim_base + b, victim_snap[b]);
    }
  }

  acc.setTickHook(nullptr);

  // Scripted overlap scenario, once per campaign and without random faults:
  // reset channel A while channel B's blocks sit behind A's tail in the
  // pipe. B is alice's second channel, so A's abandoned blocks surface in
  // the very output queue B collects from. Only A's chain may be abandoned:
  // B must complete Ok on its undisturbed schedule, with no watchdog fire
  // or block resubmit, A must write nothing, and the engine must record
  // exactly that one reset.
  if (cfg.scripted_scenarios) {
    // A clean slate after the random phase: receivers the injector wedged
    // are released, and A is reset with its rings re-initialised as a
    // driver's reset path would.
    inj.releaseStuckReceivers();
    eng.ringReset(ch);
    drv.resync();
    mem.writeBytes(ring.desc_base, std::vector<std::uint8_t>(
                                       ring.desc_slots * kDescBytes, 0));
    mem.writeBytes(ring.comp_base, std::vector<std::uint8_t>(
                                       ring.comp_slots * kCompBytes, 0));
    DmaRingConfig ring_b;
    ring_b.desc_base = 0x0d00;
    ring_b.desc_slots = 4;
    ring_b.comp_base = 0x0e00;
    ring_b.comp_slots = 4;
    ring_b.watchdog_cycles = cfg.watchdog_cycles;
    DmaRingDriver drv_b{eng, mem, eng.addChannel(ring_b), ring_b};

    constexpr unsigned kBlocksA = 64, kBlocksB = 32;
    std::vector<std::uint8_t> pa(16 * kBlocksA), pb(16 * kBlocksB);
    for (auto& b : pa) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : pb) b = static_cast<std::uint8_t>(rng.next());
    DmaDescriptor da;
    da.user = bench.alice;
    da.key_slot = 1;
    da.src = src_base;
    da.dst = dst_base;
    da.len = pa.size();
    DmaDescriptor db = da;
    db.src = src_base + 0x1000;
    db.dst = dst_base + 0x1000;
    db.len = pb.size();
    mem.writeBytes(da.src, pa);
    mem.writeBytes(db.src, pb);
    const auto dst_a_before = mem.readBytes(da.dst, da.len);
    const DmaRingStats before = eng.stats();
    rep.descriptors += 2;

    const auto seq_a = drv.submit(da);
    const auto seq_b = drv_b.submit(db);
    // A holds the unit for 3 + 64 cycles, B then fetches for 3; eight
    // cycles later B has eight blocks in the pipe right behind A's tail.
    // Undisturbed, B resolves on the overlapped schedule: both descriptors'
    // unit time plus one pipe drain.
    std::uint64_t b_cycles = 0;
    for (; b_cycles < kBlocksA + 3 + 3 + 8; ++b_cycles) eng.tick();
    eng.ringReset(ch);
    drv.resync();
    for (; seq_b && b_cycles < budget && !drv_b.done(*seq_b); ++b_cycles)
      eng.tick();

    const DmaCompletion* ca = seq_a ? drv.result(*seq_a) : nullptr;
    const DmaCompletion* cb = seq_b ? drv_b.result(*seq_b) : nullptr;
    bool isolated = ca != nullptr && ca->status != DmaError::None &&
                    cb != nullptr && cb->status == DmaError::None;
    if (ca == nullptr) {
      ++rep.unresolved;
    } else if (ca->status == DmaError::None) {
      ++rep.completed_ok;  // finished before the reset: nothing isolated
      if (mem.readBytes(da.dst, da.len) != aes::ecbEncrypt(pa, ek))
        ++rep.wrong_plaintext_releases;
    } else {
      ++rep.refused;
      if (mem.readBytes(da.dst, da.len) != dst_a_before) ++rep.partial_writes;
    }
    if (cb == nullptr) {
      ++rep.unresolved;
    } else if (cb->status == DmaError::None) {
      ++rep.completed_ok;
      if (mem.readBytes(db.dst, db.len) != aes::ecbEncrypt(pb, ek))
        ++rep.wrong_plaintext_releases;
    } else {
      ++rep.refused;
    }
    const DmaRingStats& after = eng.stats();
    isolated = isolated && b_cycles == kBlocksA + kBlocksB + 2 * 3 + 31 &&
               after.watchdog_fires == before.watchdog_fires &&
               after.block_resubmits == before.block_resubmits &&
               after.ring_resets == before.ring_resets + 1;
    if (!isolated) ++rep.reset_isolation_failures;
    if (mem.readBytes(victim_base, victim_len) != victim_snap)
      ++rep.cross_label_writes;
    eng.setCompletionHandler(drv_b.channel(), nullptr);  // drv_b dies here
  }

  const DmaRingStats& rs = eng.stats();
  rep.ring = rs;
  rep.watchdog_fires = rs.watchdog_fires;
  rep.recoveries = rs.recoveries;
  rep.ring_resets = rs.ring_resets;
  rep.cross_label_writes += rs.cross_label_writes;
  rep.corrupt_completions = drv.corruptCompletions();
  rep.duplicate_completions = drv.duplicateCompletions();
  const auto frep = inj.report();
  rep.ring_faults = frep.host_ring_desc + frep.host_ring_comp;
  return rep;
}

// --- Config tampering ----------------------------------------------------------

ConfigTamperResult runConfigTamper(SecurityMode mode) {
  Bench bench{mode};
  auto& acc = bench.acc;
  ConfigTamperResult r;

  const std::uint32_t before = acc.readConfig("arbiter_mode");
  acc.writeConfig(bench.eve, "arbiter_mode", before ^ 1u);
  r.eve_write_landed = acc.readConfig("arbiter_mode") != before;

  acc.writeConfig(bench.sup, "arbiter_mode", before);  // restore
  acc.writeConfig(bench.sup, "out_buf_depth", 48);
  r.supervisor_write_landed = acc.readConfig("out_buf_depth") == 48;

  r.eve_read_ok = acc.readConfig("version") == 0x20190602;
  r.blocked_events = acc.eventCount(SecurityEventKind::ConfigWriteBlocked);
  return r;
}

}  // namespace aesifc::soc
