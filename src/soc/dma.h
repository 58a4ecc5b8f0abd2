#pragma once
// DMA path of the SoC (the tagged "DMA" block of Fig. 2).
//
// DmaRingEngine is the scatter-gather descriptor-ring data path (modeled on
// the cesa TDescr/Tdmaowned and s805 descriptor-table exemplars).
// Descriptors and completion records live in label-tagged HostMemory;
// ownership bits hand descriptors to the device, chained next-pointers
// build multi-segment transfers, and completion events (a modeled
// interrupt) wake host-side futures in DmaRingDriver so software overlaps
// with device ticks. It is the only engine that moves host memory through
// the accelerator.
//
// The ring is UNTRUSTED INPUT: it lives in host memory a buggy or hostile
// host can rewrite at any time, and the fault campaigns flip bits in it
// mid-flight. The hardened engine therefore
//
//  - validates every descriptor against a checksum plus structural rules
//    (bounds, alignment, chain length, next-pointer loops, ownership and
//    generation consistency) and refuses with a typed DmaError;
//  - latches the descriptor at fetch time and makes every later decision
//    (what to read, where to write) from the latch, never from a re-read —
//    closing the classic ring TOCTOU;
//  - re-checks destination page labels at the point of use and buffers all
//    output so a failed transfer never partially writes;
//  - detects stalls with a per-descriptor watchdog and recovers by
//    quiesce -> resync -> idempotent resubmit (a descriptor produces
//    exactly one completion record no matter how many attempts it took);
//  - never overwrites an unconsumed completion record (completion-queue
//    overflow is backpressure, not data loss).
//
// `hardened = false` reproduces a conventional ring engine (no checksum,
// incremental writes, dst re-read at write time) so the campaigns can
// demonstrate the violations the hardening removes.
//
// Host memory carries per-page security tags. In Protected mode the engine
// checks, for the requesting user u:
//   - source pages:      label(page) may flow (conf) to u;
//   - destination pages: u's label may flow to label(page);
//   - ring pages (descriptors, chain segments, completion records): BOTH
//     directions — the engine reads descriptors and writes completions on
//     u's behalf, so the pages must be readable and writable by u. A
//     descriptor claiming a user who could not have written its page is a
//     forgery and is refused (RingPageDenied).

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/accelerator.h"
#include "common/counters.h"

namespace aesifc::soc {

inline constexpr unsigned kPageBytes = 256;

// Flat host memory with one security label per page.
class HostMemory {
 public:
  explicit HostMemory(std::size_t bytes);

  std::size_t size() const { return mem_.size(); }

  // Page ownership (set by the "OS" at allocation time). Labels every page
  // the byte span [addr, addr + len) touches. A zero-length span labels
  // nothing; a span that overflows the address space or extends past the
  // end of memory throws std::out_of_range BEFORE any label changes (the
  // OS call fails atomically, it never half-labels a range).
  void setPageLabel(std::size_t addr, std::size_t len, const lattice::Label& l);
  const lattice::Label& pageLabel(std::size_t addr) const;

  // Raw accessors (the backdoor used by testbenches and the unprotected
  // engine; checked accesses live in the ring engine).
  std::uint8_t read8(std::size_t addr) const { return mem_.at(addr); }
  void write8(std::size_t addr, std::uint8_t v) { mem_.at(addr) = v; }
  void writeBytes(std::size_t addr, const std::vector<std::uint8_t>& data);
  std::vector<std::uint8_t> readBytes(std::size_t addr, std::size_t len) const;

  // Little-endian word accessors (the descriptor/completion codecs).
  std::uint32_t read32(std::size_t addr) const;
  void write32(std::size_t addr, std::uint32_t v);
  std::uint64_t read64(std::size_t addr) const;
  void write64(std::size_t addr, std::uint64_t v);

 private:
  std::vector<std::uint8_t> mem_;
  std::vector<lattice::Label> page_labels_;
};

enum class DmaMode : std::uint8_t { EcbEncrypt = 0, EcbDecrypt = 1,
                                    CtrCrypt = 2 };

// Typed DMA verdicts (the PlaceError/MigrateError convention): every
// refused or failed transfer names exactly why, and the completion codec
// carries the same code across the host interface.
enum class DmaError : std::uint8_t {
  None = 0,           // success
  BadRange,           // src/dst out of bounds, zero length, or overflow
  UnalignedLength,    // ECB length not a multiple of the block size
  OverlapDenied,      // src/dst ranges partially overlap (in-place is exact)
  SrcPageDenied,      // source page label may not flow to the user
  DstPageDenied,      // user label may not flow to the destination page
  RingPageDenied,     // descriptor/completion page fails the ring label rule
  BadDescriptor,      // malformed fields (user, mode, reserved bits, slots)
  BadChecksum,        // descriptor checksum mismatch (corrupt or forged)
  OobNextPointer,     // chain pointer outside host memory / unaligned
  ChainLoop,          // next-pointer cycle detected
  ChainTooLong,       // chain exceeds the 64-segment cap
  TornOwnership,      // ownership bits changed under the engine mid-flight
  StaleGeneration,    // descriptor generation predates a ring reset
  CompletionOverflow, // completion ring full past the watchdog (unhardened)
  RingStalled,        // watchdog expired after exhausting resubmit attempts
  OutputSuppressed,   // the accelerator refused to declassify an output
  FaultAborted,       // fail-secure fault squash survived the retry budget
  Rejected,           // the submit port refused (e.g. zeroized key slot)
};

inline constexpr unsigned kDmaErrors = 19;

std::string toString(DmaError e);

struct DmaDescriptor {
  unsigned user = 0;
  unsigned key_slot = 0;
  DmaMode mode = DmaMode::EcbEncrypt;
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t len = 0;          // bytes; multiple of 16 for ECB
  aes::Block ctr_iv{};          // initial counter block for CTR
};

// ---------------------------------------------------------------------------
// Descriptor-ring data path
// ---------------------------------------------------------------------------

// On-ring descriptor layout, 64 bytes, little-endian:
//   +0  u32 flags     bit 0 = OWNED (device-owned), bits 16..31 generation.
//                     The handshake word — mutated by both sides, excluded
//                     from the checksum, protected by the torn-ownership
//                     re-read and the generation check instead.
//   +4  u32 checksum  FNV-1a over bytes [8, 64)
//   +8  u8  mode      DmaMode
//   +9  u8  reserved  must be 0
//   +10 u16 user
//   +12 u16 key_slot
//   +14 u16 seq       driver-assigned sequence (completion correlation)
//   +16 u64 src
//   +24 u64 dst
//   +32 u64 len
//   +40 u64 next      absolute address of the next chain segment; 0 = end
//   +48 16B ctr_iv
inline constexpr unsigned kDescBytes = 64;

// Completion record layout, 32 bytes, little-endian:
//   +0  u32 flags     bit 0 = VALID (host-owned until it clears the bit),
//                     bits 16..31 generation
//   +4  u32 checksum  FNV-1a over bytes [8, 32)
//   +8  u32 status    DmaError
//   +12 u16 user
//   +14 u16 seq
//   +16 u64 desc_addr head descriptor address
//   +24 u32 blocks
//   +28 u32 exec_cycles
inline constexpr unsigned kCompBytes = 32;

inline constexpr std::uint32_t kRingOwned = 1u;   // descriptor flags bit 0
inline constexpr std::uint32_t kRingValid = 1u;   // completion flags bit 0

// FNV-1a over a byte span of host memory (the descriptor/completion
// integrity checksum — the ring is untrusted, so structure alone cannot
// distinguish a corrupted descriptor from a reprogrammed one).
std::uint32_t ringChecksum(const HostMemory& mem, std::size_t addr,
                           std::size_t len);

// Host-side codec: write `d` as a ring descriptor at `addr`. Sets the
// checksum; sets OWNED last when `owned` (the release store of the
// handshake). `next` chains a continuation segment (0 terminates).
void writeRingDescriptor(HostMemory& mem, std::size_t addr,
                         const DmaDescriptor& d, std::uint64_t next,
                         std::uint16_t seq, std::uint16_t generation,
                         bool owned);

struct DmaRingConfig {
  std::size_t desc_base = 0;   // head-descriptor ring (kDescBytes stride)
  unsigned desc_slots = 16;
  std::size_t comp_base = 0;   // completion ring (kCompBytes stride)
  unsigned comp_slots = 16;
  // Chain arena: continuation segments live here; next-pointers must land
  // inside it (kDescBytes-aligned) or the chain is refused OobNextPointer.
  std::size_t chain_base = 0;
  unsigned chain_slots = 0;
  // Per-descriptor execution watchdog: quiesce -> resync -> resubmit when
  // a transfer makes no progress for this many cycles.
  std::uint64_t watchdog_cycles = 4096;
};

struct DmaRingStats {
  std::uint64_t doorbells = 0;
  std::uint64_t idle_polls = 0;
  std::uint64_t descriptors_fetched = 0;  // head descriptors latched
  std::uint64_t segments_fetched = 0;     // chain segments latched
  std::uint64_t completed_ok = 0;
  std::uint64_t refused = 0;              // completions with error status
  std::uint64_t blocks = 0;               // blocks written back
  std::uint64_t watchdog_fires = 0;
  std::uint64_t recoveries = 0;           // quiesce -> resync -> resubmit
  std::uint64_t block_resubmits = 0;      // single-block transient retries
  std::uint64_t torn_ownership = 0;
  std::uint64_t checksum_rejects = 0;
  std::uint64_t stale_generation = 0;
  std::uint64_t comp_stall_cycles = 0;    // cycles blocked on a full ring
  std::uint64_t comp_overflow_drops = 0;  // unhardened only; hardened: 0
  std::uint64_t cross_label_writes = 0;   // dst writes past a failed label
                                          // re-check; hardened: always 0
  std::uint64_t ring_resets = 0;
  std::array<std::uint64_t, kDmaErrors> by_error{};

  static constexpr auto counterFields() {
    using S = DmaRingStats;
    using counters::field;
    return std::tuple{
        field("doorbells", &S::doorbells), field("idle_polls", &S::idle_polls),
        field("descriptors_fetched", &S::descriptors_fetched),
        field("segments_fetched", &S::segments_fetched),
        field("completed_ok", &S::completed_ok), field("refused", &S::refused),
        field("blocks", &S::blocks),
        field("watchdog_fires", &S::watchdog_fires),
        field("recoveries", &S::recoveries),
        field("block_resubmits", &S::block_resubmits),
        field("torn_ownership", &S::torn_ownership),
        field("checksum_rejects", &S::checksum_rejects),
        field("stale_generation", &S::stale_generation),
        field("comp_stall_cycles", &S::comp_stall_cycles),
        field("comp_overflow_drops", &S::comp_overflow_drops),
        field("cross_label_writes", &S::cross_label_writes),
        field("ring_resets", &S::ring_resets),
        field("errors", &S::by_error, [](std::ostream& os, const auto& n) {
          const char* sep = "";  // nonzero entries only
          os << '{';
          for (unsigned e = 0; e < kDmaErrors; ++e) {
            if (n[e] == 0) continue;
            os << sep << '"' << toString(static_cast<DmaError>(e))
               << "\":" << n[e];
            sep = ",";
          }
          os << '}';
        })};
  }
  std::string toJson() const { return counters::toJson(*this); }
  DmaRingStats& operator+=(const DmaRingStats& o) {
    return counters::addTo(*this, o);
  }
};
static_assert(counters::listsEveryByte<DmaRingStats>());

// The device-side ring engine. One engine serves N channels (per-tenant
// rings) over one shared fetch/issue unit, round-robin between descriptors.
// A chain holds the unit only while it fetches and issues: once its last
// block is accepted by the pipe it moves to collect and frees the unit, so
// the next channel fetches while the previous chain's tail is still in the
// pipe. Any number of chains may be collecting (at most one per channel,
// so each channel's completion records stay in order); responses are
// routed to the chain that issued them by request id, and a collecting
// chain that needs a retry queues for the unit again. A channel blocked on
// a full completion ring parks without holding the unit. Drive it with
// tick() when the engine owns the device clock, or register onDeviceTick()
// inside an accelerator tick hook to overlap ring DMA with other traffic.
class DmaRingEngine {
 public:
  DmaRingEngine(accel::AesAccelerator& acc, HostMemory& mem,
                bool hardened = true);

  unsigned addChannel(const DmaRingConfig& cfg);

  // Host doorbell: the driver rang after publishing a descriptor; the
  // engine checks the head slot on its next cycle instead of waiting out
  // the poll interval.
  void doorbell(unsigned channel);

  // Completion "interrupt": invoked right after a completion record lands
  // in the channel's completion ring (the host-side future machinery hooks
  // this; polling still works without it).
  void setCompletionHandler(unsigned channel, std::function<void()> fn);

  // Quiesce the channel (abandon any in-flight transfer without writing
  // anything), bump the ring generation so descriptors published before
  // the reset are refused StaleGeneration, and rewind the head to slot 0.
  void ringReset(unsigned channel);

  std::uint16_t generation(unsigned channel) const;
  std::size_t headSlot(unsigned channel) const;
  // True while the channel is parked on an unconsumable completion ring.
  bool channelStalled(unsigned channel) const;

  // One engine step per device cycle. onDeviceTick() does the engine's
  // work only (for composition inside an accelerator tick hook); tick()
  // additionally advances the device clock.
  void onDeviceTick();
  void tick();

  bool idle() const;  // every channel idle and nothing in flight
  bool hardened() const { return hardened_; }
  const DmaRingStats& stats() const { return stats_; }

 private:
  struct Segment {
    std::size_t addr = 0;  // where the segment descriptor lives
    std::size_t src = 0;
    std::size_t dst = 0;
    std::size_t len = 0;
  };

  // One latched chain in flight (the shadow copy every decision uses).
  // Fetch and Issue hold the fetch/issue unit; Collect does not.
  struct Chain {
    enum class Phase { Fetch, Issue, Collect };
    Phase phase = Phase::Fetch;
    unsigned channel = 0;
    std::size_t head_addr = 0;
    std::uint32_t head_flags = 0;   // as latched (OWNED set)
    std::uint16_t seq = 0;
    unsigned user = 0;
    unsigned key_slot = 0;
    DmaMode mode = DmaMode::EcbEncrypt;
    aes::Block ctr_iv{};
    std::vector<Segment> segs;
    std::size_t next_fetch = 0;     // next segment address to latch
    unsigned fetch_wait = 0;        // cycles left on the current fetch
    // Flattened block stream across segments (inputs latched at fetch).
    std::vector<aes::Block> stream;
    std::vector<std::uint8_t> xor_src;  // CTR: plaintext latched at fetch
    std::vector<aes::Block> out;
    std::vector<char> done;
    std::size_t submitted = 0;
    std::size_t collected = 0;
    std::deque<std::size_t> retry;  // transient-failed block indices
    std::unordered_map<std::uint64_t, std::size_t> inflight;  // req -> idx
    unsigned block_retries = 0;
    unsigned submit_refusals = 0;   // consecutive refused submits
    unsigned attempts = 0;          // watchdog resubmit count
    std::uint64_t progress_cycle = 0;  // last cycle something completed
    std::uint64_t start_cycle = 0;
    bool suppressed = false;
    DmaError verdict = DmaError::None;
  };

  struct Channel {
    DmaRingConfig cfg;
    std::size_t head = 0;          // ring slot index the engine scans next
    std::size_t comp_tail = 0;     // completion slot it writes next
    std::uint16_t generation = 1;
    bool doorbell = false;
    std::uint64_t next_poll_cycle = 0;
    std::function<void()> on_completion;
    bool parked = false;           // completed, waiting on a comp slot
    std::optional<Chain> chain;    // in-flight transfer (live or parked)
    std::uint64_t park_start = 0;
    bool park_watchdog_logged = false;
  };

  std::size_t descAddr(const Channel& ch) const {
    return ch.cfg.desc_base + ch.head * kDescBytes;
  }
  bool ringPageOk(const lattice::Label& user_label, std::size_t addr,
                  std::size_t len) const;
  DmaError latchSegment(Chain& c, std::size_t addr, bool head);
  void buildStream(Chain& c);
  // A chain past fetch, with blocks in or headed for the pipe.
  static bool executing(const Channel& ch) {
    return ch.chain && !ch.parked && ch.chain->phase != Chain::Phase::Fetch;
  }
  void startChannel(unsigned idx);
  void stepFetch(unsigned idx);
  void collect();
  void routeResponse(const accel::BlockResponse& resp);
  void stepIssue(unsigned idx);
  // The fetch/issue unit's cycle: step its holder, else grant it.
  void stepUnit(std::uint64_t now);
  void stepWatchdog(unsigned idx);
  void finalize(unsigned idx);
  void writeBack(const Chain& c);
  bool tryWriteCompletion(unsigned idx);
  void handback(Channel& ch, const Chain& c);
  void resubmitChain(Chain& c);
  void noteViolation(const Chain& c, DmaError e);
  void finishChain(unsigned idx);

  accel::AesAccelerator& acc_;
  HostMemory& mem_;
  bool hardened_;
  std::vector<Channel> chans_;
  int issuer_ = -1;       // channel index holding the fetch/issue unit
  unsigned rr_next_ = 0;  // round-robin scan start
  std::uint64_t next_req_ = (1ull << 41);
  DmaRingStats stats_;
};

// One resolved transfer as the host sees it.
struct DmaCompletion {
  DmaError status = DmaError::None;
  std::uint16_t seq = 0;
  unsigned user = 0;
  std::uint64_t desc_addr = 0;
  std::uint64_t blocks = 0;
  std::uint32_t exec_cycles = 0;
};

// Host-side driver for one ring channel: programs descriptors, rings the
// doorbell, and resolves futures from completion events. The completion
// handler (the modeled interrupt) consumes records as they land, so a
// caller that overlaps work with engine ticks sees done() flip without
// ever polling the ring memory itself.
class DmaRingDriver {
 public:
  DmaRingDriver(DmaRingEngine& eng, HostMemory& mem, unsigned channel,
                const DmaRingConfig& cfg);

  // Publish one transfer (optionally scatter-gather). Segments after the
  // first inherit the head's user/key/mode and supply src/dst/len. Returns
  // the future's sequence number, or nullopt on backpressure (descriptor
  // ring or chain arena full).
  std::optional<std::uint16_t> submit(const DmaDescriptor& d);
  std::optional<std::uint16_t> submitChain(
      const std::vector<DmaDescriptor>& segs);

  // Consume completion records (also invoked by the completion event).
  void poll();

  // Detach/re-attach the completion-event hook from poll(). Campaigns
  // disable auto-polling to model a host that stops consuming completions
  // (the completion-queue-overflow scenario); the records stay in the ring
  // until poll() is called explicitly.
  void setAutoPoll(bool on) { auto_poll_ = on; }

  bool done(std::uint16_t seq) const;
  const DmaCompletion* result(std::uint16_t seq) const;

  // Convenience synchronous wait: tick the engine (and the device) until
  // the future resolves or the cycle budget runs out.
  const DmaCompletion* wait(std::uint16_t seq, std::uint64_t max_cycles);

  // Forget resolved futures older than the horizon (long-lived callers).
  void forgetResolved();

  std::uint64_t corruptCompletions() const { return corrupt_completions_; }
  std::uint64_t duplicateCompletions() const { return duplicate_completions_; }
  std::size_t outstanding() const { return outstanding_; }
  unsigned channel() const { return channel_; }

  // Re-arm after a ring reset: adopts the engine's new generation and
  // rewinds the slot cursors (outstanding futures resolve as RingStalled —
  // the reset abandoned them).
  void resync();

 private:
  DmaRingEngine& eng_;
  HostMemory& mem_;
  unsigned channel_;
  DmaRingConfig cfg_;
  std::size_t next_slot_ = 0;
  std::size_t next_chain_slot_ = 0;
  std::size_t comp_head_ = 0;
  std::uint16_t next_seq_ = 1;
  std::size_t outstanding_ = 0;
  bool auto_poll_ = true;
  std::uint64_t corrupt_completions_ = 0;
  std::uint64_t duplicate_completions_ = 0;
  std::unordered_map<std::uint16_t, std::optional<DmaCompletion>> futures_;
  std::vector<char> arena_busy_;  // chain-arena slot in an outstanding chain
  std::unordered_map<std::uint16_t, std::vector<unsigned>> chain_slots_of_;
};

}  // namespace aesifc::soc
