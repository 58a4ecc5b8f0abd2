#include "accel/driver.h"

#include <algorithm>
#include <cstring>

namespace aesifc::accel {

namespace {

aes::Block loadBlock(const aes::Bytes& b, std::size_t off) {
  aes::Block out{};
  std::memcpy(out.data(), b.data() + off, 16);
  return out;
}

void storeBlock(aes::Bytes& b, std::size_t off, const aes::Block& blk) {
  std::memcpy(b.data() + off, blk.data(), 16);
}

std::vector<aes::Block> toBlocks(const aes::Bytes& b) {
  std::vector<aes::Block> out(b.size() / 16);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = loadBlock(b, 16 * i);
  return out;
}

aes::Bytes toBytes(const std::vector<aes::Block>& blocks) {
  aes::Bytes out(16 * blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i)
    storeBlock(out, 16 * i, blocks[i]);
  return out;
}

aes::Block xorBlocks(aes::Block a, const aes::Block& b) {
  for (unsigned i = 0; i < 16; ++i) a[i] ^= b[i];
  return a;
}

}  // namespace

bool loadKeyBytes(AesAccelerator& acc, unsigned user, unsigned slot,
                  unsigned cell_base, std::span<const std::uint8_t> key,
                  aes::KeySize ks, lattice::Conf key_conf) {
  if (key.size() != aes::keyBytes(ks)) return false;
  const unsigned cells = aes::keyBytes(ks) / 8;
  if (!acc.configureKeyCells(user, cell_base, cells)) return false;
  for (unsigned c = 0; c < cells; ++c) {
    std::uint64_t w = 0;
    for (unsigned b = 0; b < 8; ++b)
      w |= static_cast<std::uint64_t>(key[8 * c + b]) << (8 * b);
    if (!acc.writeKeyCell(user, cell_base + c, w)) return false;
  }
  return acc.loadKey(user, slot, cell_base, ks, key_conf);
}

bool loadKey128(AesAccelerator& acc, unsigned user, unsigned slot,
                unsigned cell_base, std::span<const std::uint8_t> key,
                lattice::Conf key_conf) {
  return loadKeyBytes(acc, user, slot, cell_base, key, aes::KeySize::Aes128,
                      key_conf);
}

bool waitSlotIdle(AesAccelerator& acc, unsigned slot,
                  std::uint64_t max_cycles) {
  // A quiet span moves no block out of the pipe and runs no GCM op, so the
  // slot stays busy through it.
  for (std::uint64_t waited = 0; acc.keySlotBusy(slot);) {
    if (waited >= max_cycles) return false;
    const std::uint64_t quiet = acc.skipQuiet(max_cycles - waited);
    if (quiet == 0) acc.tick();
    waited += quiet == 0 ? 1 : quiet;
  }
  return true;
}

bool zeroizeKey128(AesAccelerator& acc, unsigned user, unsigned slot,
                   unsigned cell_base, std::uint64_t max_wait_cycles) {
  if (!waitSlotIdle(acc, slot, max_wait_cycles)) return false;
  const bool cleared = acc.clearKey(user, slot);
  // A cell another key's load has re-tagged since is no longer this key's
  // (the re-tag scrubbed it); writing it would only log a blocked write.
  const Label& owner = acc.principal(user).authority;
  for (unsigned c = cell_base; c < cell_base + 2; ++c) {
    if (acc.scratchpad().cellLabel(c) == owner) acc.writeKeyCell(user, c, 0);
  }
  return cleared;
}

AccelSession::AccelSession(AesAccelerator& acc, unsigned user,
                           unsigned key_slot, SessionOptions opts)
    : acc_{acc}, user_{user}, key_slot_{key_slot}, opts_{opts} {}

AccelResult<std::vector<aes::Block>> AccelSession::runBlocks(
    std::vector<aes::Block> blocks, bool decrypt) {
  const GcmHandle h = next_flight_++;
  Flight& f = flights_[h];
  f.start_cycle = acc_.cycle();
  f.decrypt = decrypt;
  f.units.assign(blocks.size(), Flight::Unit::Pending);
  f.data = std::move(blocks);
  // The first block is submitted before the first tick; from then on each
  // cycle drains the output queue after the tick. A quiet span delivers
  // nothing, so the collects it skips would have found nothing; an
  // attempt submitted whole is carried by one run span, after which its
  // blocks are all out or its watchdog fires.
  auto v = advance(f);
  while (!v) {
    const std::uint64_t idle = idleCycles(f);
    if (f.open && f.whole) {
      acc_.runSpan(user_, idle);
    } else if (acc_.skipQuiet(idle) == 0) {
      acc_.tick();
    }
    route(false);
    v = advance(f);
  }
  auto spent = flights_.extract(h);
  if (*v != AccelStatus::Ok) return *v;
  return std::move(spent.mapped().data);
}

std::optional<AccelStatus> AccelSession::advance(Flight& f) {
  for (;;) {
    if (!f.open && acc_.cycle() < f.attempt_start) return std::nullopt;
    const auto st = f.gcm ? stepGcm(f) : stepBlocks(f);
    if (!st) return std::nullopt;
    if (!isRetryable(*st) || f.attempt >= opts_.max_retries)
      return finishVerdict(*st, f.start_cycle);
    // Bounded backoff before the retry; route() keeps crediting responses
    // that arrive meanwhile.
    ++retries_;
    acc_.noteRetry();
    f.attempt_start = acc_.cycle() + (opts_.backoff_cycles << f.attempt);
    ++f.attempt;
    f.open = false;
  }
}

void AccelSession::route(bool gcm) {
  // Each id is taken once, so a duplicated response — or the late original
  // racing a resubmission — can never be delivered twice.
  const auto take = [&](std::uint64_t id) -> std::pair<Flight*, std::size_t> {
    for (auto& [h, f] : flights_) {
      const auto it = std::lower_bound(
          f.ids.begin(), f.ids.end(), id,
          [](const auto& e, std::uint64_t v) { return e.first < v; });
      if (it != f.ids.end() && it->first == id) {
        const std::size_t unit = it->second;
        f.ids.erase(it);
        return {&f, unit};
      }
    }
    return {nullptr, 0};
  };
  if (gcm) {
    while (auto r = acc_.fetchGcm(user_)) {
      if (Flight* f = take(r->req_id).first) f->got = std::move(*r);
    }
    return;
  }
  using U = Flight::Unit;
  drained_.clear();
  acc_.fetchOutputs(user_, drained_);
  for (const auto& resp : drained_) {
    const auto [f, i] = take(resp.req_id);
    if (f == nullptr) continue;
    if (f->units[i] == U::Done || f->units[i] == U::Suppressed) continue;
    if (f->units[i] == U::Pending) --f->pending;
    if (resp.status == AccelStatus::Ok) {
      f->data[i] = resp.data;
      f->units[i] = U::Done;
    } else if (resp.status == AccelStatus::Suppressed) {
      f->units[i] = U::Suppressed;  // security refusal: final
    } else {
      f->units[i] = U::Failed;  // fault-aborted or dropped
      if (f->attempt_fail == AccelStatus::Ok) f->attempt_fail = resp.status;
    }
  }
}

std::optional<AccelStatus> AccelSession::stepBlocks(Flight& f) {
  using U = Flight::Unit;
  if (!f.open) {
    // The attempt takes every block not yet resolved.
    f.todo.clear();
    for (std::size_t i = 0; i < f.units.size(); ++i) {
      if (f.units[i] == U::Failed) f.units[i] = U::Pending;
      if (f.units[i] == U::Pending) f.todo.push_back(i);
    }
    f.pending = f.todo.size();
    f.next = 0;
    f.attempt_fail = AccelStatus::Ok;
    f.attempt_start = acc_.cycle();
    f.open = true;
    // When nothing else can move on the device, every block goes in now.
    f.whole = !f.todo.empty() && acc_.canTakeRun(user_, key_slot_);
  }
  const auto pending = [&](std::size_t i) { return f.units[i] == U::Pending; };
  // The device is wedged (e.g. permanently stalled) past this watchdog.
  const bool timed_out =
      acc_.cycle() - f.attempt_start > opts_.timeout_cycles + f.todo.size();
  if (!timed_out && f.pending != 0) {
    // One submission per cycle, or all at once for a whole attempt; skip
    // blocks a late response from an earlier attempt already resolved.
    do {
      while (f.next < f.todo.size() && !pending(f.todo[f.next])) ++f.next;
      if (f.next == f.todo.size()) break;
      BlockRequest req;
      req.req_id = next_req_++;
      req.user = user_;
      req.key_slot = key_slot_;
      req.decrypt = f.decrypt;
      req.data = f.data[f.todo[f.next]];
      // A deterministic refusal (e.g. a zeroized slot) is final.
      if (!acc_.submit(req)) return AccelStatus::Rejected;
      f.ids.emplace_back(req.req_id, f.todo[f.next++]);
    } while (f.whole);
    return std::nullopt;
  }
  const auto open = [](U u) { return u == U::Pending || u == U::Failed; };
  if (std::none_of(f.units.begin(), f.units.end(), open)) {
    return std::count(f.units.begin(), f.units.end(), U::Suppressed)
               ? AccelStatus::Suppressed
               : AccelStatus::Ok;
  }
  if (f.attempt_fail != AccelStatus::Ok) return f.attempt_fail;
  return timed_out ? AccelStatus::Timeout : AccelStatus::FaultAborted;
}

std::uint64_t AccelSession::idleCycles(const Flight& f) const {
  const std::uint64_t now = acc_.cycle();
  if (!f.open) return f.attempt_start > now ? f.attempt_start - now : 0;
  if (f.gcm || f.next < f.todo.size()) return 0;
  // stepBlocks times the attempt out on the first cycle past this.
  return f.attempt_start + opts_.timeout_cycles + f.todo.size() + 1 - now;
}

AccelStatus AccelSession::finishVerdict(AccelStatus verdict,
                                        std::uint64_t start_cycle) {
  cycles_used_ += acc_.cycle() - start_cycle;
  last_status_ = verdict;
  switch (verdict) {
    case AccelStatus::Ok: ++telemetry_.ok; break;
    case AccelStatus::Suppressed: ++telemetry_.suppressed; break;
    case AccelStatus::Timeout: ++telemetry_.timeouts; break;
    case AccelStatus::FaultAborted: ++telemetry_.fault_aborts; break;
    case AccelStatus::Dropped: ++telemetry_.drops; break;
    case AccelStatus::Rejected: ++telemetry_.rejected; break;
    case AccelStatus::AuthFailed: ++telemetry_.auth_failed; break;
  }
  return verdict;
}

AccelResult<std::vector<aes::Block>> AccelSession::encryptBlocks(
    const std::vector<aes::Block>& pts) {
  return runBlocks(pts, false);
}

AccelResult<std::vector<aes::Block>> AccelSession::decryptBlocks(
    const std::vector<aes::Block>& cts) {
  return runBlocks(cts, true);
}

AccelResult<aes::Block> AccelSession::encryptBlock(const aes::Block& pt) {
  auto r = runBlocks({pt}, false);
  if (!r) return r.status();
  return (*r)[0];
}

AccelResult<aes::Block> AccelSession::decryptBlock(const aes::Block& ct) {
  auto r = runBlocks({ct}, true);
  if (!r) return r.status();
  return (*r)[0];
}

AccelResult<aes::Bytes> AccelSession::ecbEncrypt(const aes::Bytes& data) {
  if (data.size() % 16 != 0) return AccelStatus::Rejected;
  auto r = runBlocks(toBlocks(data), false);
  if (!r) return r.status();
  return toBytes(*r);
}

AccelResult<aes::Bytes> AccelSession::ecbDecrypt(const aes::Bytes& data) {
  if (data.size() % 16 != 0) return AccelStatus::Rejected;
  auto r = runBlocks(toBlocks(data), true);
  if (!r) return r.status();
  return toBytes(*r);
}

AccelResult<aes::Bytes> AccelSession::ctrCrypt(const aes::Bytes& data,
                                               const aes::Iv& nonce) {
  const std::size_t nblocks = (data.size() + 15) / 16;
  std::vector<aes::Block> counters(nblocks);
  aes::Block ctr = nonce;
  for (auto& c : counters) {
    c = ctr;
    aes::incCounterBe(ctr, 64);  // CTR counts in the low 64 bits
  }
  auto ks = runBlocks(std::move(counters), false);  // keystream, pipelined
  if (!ks) return ks.status();
  aes::Bytes out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = data[i] ^ (*ks)[i / 16][i % 16];
  }
  return out;
}

AccelResult<aes::Bytes> AccelSession::cbcDecrypt(const aes::Bytes& data,
                                                 const aes::Iv& iv) {
  if (data.size() % 16 != 0 || data.empty()) return AccelStatus::Rejected;
  const auto blocks = toBlocks(data);
  auto r = runBlocks(blocks, true);  // all blocks decrypt in parallel
  if (!r) return r.status();
  aes::Bytes out(data.size());
  aes::Block prev = iv;
  for (std::size_t i = 0; i < r->size(); ++i) {
    storeBlock(out, 16 * i, xorBlocks((*r)[i], prev));
    prev = blocks[i];
  }
  return out;
}

AccelResult<GcmResponse> AccelSession::runGcm(GcmRequest req) {
  const auto h = startGcm(std::move(req));
  if (!h) return finishVerdict(AccelStatus::Rejected, acc_.cycle());
  for (;;) {
    if (gcmDue(*h)) {
      if (auto r = collectGcm(*h)) return std::move(*r);
    }
    if (acc_.skipQuiet(idleCycles(flights_.at(*h))) == 0) acc_.tick();
  }
}

GcmSubmit AccelSession::submitAttempt(Flight& f) {
  f.req.req_id = next_req_++;
  f.budget = gcmWatchdog(gcmWorkBlocks(f.req));
  const GcmSubmit s = acc_.submitGcm(f.req);
  if (s == GcmSubmit::Accepted) {
    f.open = true;
    f.attempt_start = acc_.cycle();
    f.ids.emplace_back(f.req.req_id, 0);
  }
  return s;
}

std::uint64_t AccelSession::gcmWatchdog(std::uint64_t own_blocks) const {
  // One AES pass per keystream/H/J0 block plus one GHASH pass per hashed
  // block, for this op and for every op it shares the sequencer with, on
  // top of the configured timeout. Ops share the pipe evenly, so ops
  // accepted after this one slow it as much as ops ahead of it.
  return opts_.timeout_cycles +
         2 * (own_blocks + acc_.gcm().backlogBlocks());
}

std::optional<GcmHandle> AccelSession::startGcm(GcmRequest req) {
  Flight f;
  f.gcm = true;
  f.req = std::move(req);
  f.req.user = user_;
  f.req.key_slot = key_slot_;
  f.start_cycle = acc_.cycle();
  const GcmSubmit s = submitAttempt(f);
  if (s == GcmSubmit::Full) return std::nullopt;
  if (s != GcmSubmit::Accepted)
    f.refused = finishVerdict(AccelStatus::Rejected, f.start_cycle);
  const GcmHandle h = next_flight_++;
  flights_.emplace(h, std::move(f));
  return h;
}

std::optional<AccelResult<GcmResponse>> AccelSession::collectGcm(
    GcmHandle h) {
  Flight& f = flights_.at(h);
  route(true);
  const auto v = f.refused ? f.refused : advance(f);
  if (!v) return std::nullopt;
  auto spent = flights_.extract(h);
  if (*v != AccelStatus::Ok) return *v;
  return std::move(*spent.mapped().got);
}

bool AccelSession::gcmDue(GcmHandle h) const {
  const Flight& f = flights_.at(h);
  if (f.refused || f.got || acc_.gcm().hasResponse(user_)) return true;
  if (!f.open) return acc_.cycle() >= f.attempt_start;
  // stepGcm's two effects on an open attempt with no response: raising the
  // budget, and firing the watchdog.
  return gcmWatchdog(0) > f.budget ||
         acc_.cycle() - f.attempt_start > f.budget;
}

std::optional<AccelStatus> AccelSession::stepGcm(Flight& f) {
  if (!f.open) {
    const GcmSubmit s = submitAttempt(f);
    if (s == GcmSubmit::Accepted) return std::nullopt;
    if (s != GcmSubmit::Full) return AccelStatus::Rejected;
    // Every op slot is busy: wait for one on this attempt's watchdog.
    if (acc_.cycle() - f.attempt_start <= f.budget) return std::nullopt;
    return AccelStatus::Timeout;
  }
  // Ok, or a final Suppressed or AuthFailed verdict.
  if (f.got && f.got->status != AccelStatus::FaultAborted)
    return f.got->status;
  if (!f.got) {
    // The backlog counts this op while it computes, and every op that
    // joined it since.
    f.budget = std::max(f.budget, gcmWatchdog(0));
    if (acc_.cycle() - f.attempt_start <= f.budget) return std::nullopt;
  }
  // The attempt failed; a response to it from now on is discarded.
  const AccelStatus failed =
      f.got ? AccelStatus::FaultAborted : AccelStatus::Timeout;
  f.ids.clear();
  f.got.reset();
  return failed;
}

AccelResult<GcmSealed> AccelSession::gcmSeal(
    const std::vector<std::uint8_t>& plaintext,
    const std::vector<std::uint8_t>& aad,
    const std::vector<std::uint8_t>& iv) {
  GcmRequest req;
  req.open = false;
  req.iv = iv;
  req.aad = aad;
  req.data = plaintext;
  auto r = runGcm(std::move(req));
  if (!r) return r.status();
  return GcmSealed{std::move(r->data), r->tag};
}

AccelResult<std::vector<std::uint8_t>> AccelSession::gcmOpen(
    const std::vector<std::uint8_t>& ciphertext,
    const std::vector<std::uint8_t>& aad, const aes::Tag128& tag,
    const std::vector<std::uint8_t>& iv) {
  GcmRequest req;
  req.open = true;
  req.iv = iv;
  req.aad = aad;
  req.data = ciphertext;
  req.tag = tag;
  auto r = runGcm(std::move(req));
  if (!r) return r.status();
  return std::move(r->data);
}

AccelResult<aes::Bytes> AccelSession::cbcEncrypt(const aes::Bytes& data,
                                                 const aes::Iv& iv) {
  if (data.size() % 16 != 0) return AccelStatus::Rejected;
  aes::Bytes out(data.size());
  aes::Block prev = iv;
  // Chained: each block must wait for the previous ciphertext — the
  // pipelined engine degrades to one block per full latency.
  for (std::size_t off = 0; off < data.size(); off += 16) {
    auto ct = encryptBlock(xorBlocks(loadBlock(data, off), prev));
    if (!ct) return ct.status();
    storeBlock(out, off, *ct);
    prev = *ct;
  }
  return out;
}

}  // namespace aesifc::accel
