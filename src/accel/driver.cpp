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

aes::Block xorBlocks(aes::Block a, const aes::Block& b) {
  for (unsigned i = 0; i < 16; ++i) a[i] ^= b[i];
  return a;
}

}  // namespace

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

bool loadKeyBytes(AesAccelerator& acc, unsigned user, unsigned slot,
                  unsigned cell_base, std::span<const std::uint8_t> key,
                  aes::KeySize ks, lattice::Conf key_conf) {
  if (key.size() != aes::keyBytes(ks)) return false;
  const unsigned cells = aes::keyBytes(ks) / 8;
  acc.configureKeyCells(user, cell_base, cells);
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
  for (std::uint64_t waited = 0; acc.keySlotBusy(slot); ++waited) {
    if (waited >= max_cycles) return false;
    acc.tick();
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

AccelResult<std::vector<aes::Block>> AccelSession::runBatch(
    const std::vector<aes::Block>& blocks, bool decrypt) {
  const std::uint64_t start_cycle = acc_.cycle();
  std::vector<aes::Block> out(blocks.size());

  // Terminal per-block states. `order` maps every request id ever issued
  // (across attempts) to its block index; an entry is erased when its
  // response is consumed, so a duplicated response — or the late original
  // racing a resubmission — can never be delivered twice.
  enum class St : std::uint8_t { Pending, Done, Supp, Fail };
  std::vector<St> st(blocks.size(), St::Pending);
  std::map<std::uint64_t, std::size_t> order;

  AccelStatus attempt_fail = AccelStatus::Ok;
  std::vector<BlockResponse> drained;  // reused batch-drain buffer
  auto drain = [&] {
    drained.clear();
    acc_.fetchOutputs(user_, drained);
    for (const auto& resp : drained) {
      auto it = order.find(resp.req_id);
      if (it == order.end()) continue;  // unknown / already-consumed id
      const std::size_t idx = it->second;
      order.erase(it);
      if (st[idx] == St::Done || st[idx] == St::Supp) continue;  // stale
      if (resp.suppressed) {
        st[idx] = St::Supp;  // security refusal: final, never retried
      } else if (resp.fault_aborted || resp.dropped) {
        st[idx] = St::Fail;
        if (attempt_fail == AccelStatus::Ok) {
          attempt_fail = resp.fault_aborted ? AccelStatus::FaultAborted
                                            : AccelStatus::Dropped;
        }
      } else {
        out[idx] = resp.data;
        st[idx] = St::Done;
      }
    }
  };
  for (unsigned attempt = 0;; ++attempt) {
    // (Re)open failed blocks and collect this attempt's submission list.
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (st[i] == St::Fail) st[i] = St::Pending;
      if (st[i] == St::Pending) todo.push_back(i);
    }
    attempt_fail = AccelStatus::Ok;
    std::size_t submitted = 0;
    const std::uint64_t attempt_start = acc_.cycle();
    bool timed_out = false;
    bool rejected = false;

    while (true) {
      bool any_open = false;
      for (auto i : todo) {
        if (st[i] == St::Pending) {
          any_open = true;
          break;
        }
      }
      if (!any_open) break;
      // One submission per cycle; skip blocks a late response from an
      // earlier attempt already resolved.
      while (submitted < todo.size() && st[todo[submitted]] != St::Pending)
        ++submitted;
      if (submitted < todo.size()) {
        BlockRequest req;
        req.req_id = next_req_++;
        req.user = user_;
        req.key_slot = key_slot_;
        req.decrypt = decrypt;
        req.data = blocks[todo[submitted]];
        if (acc_.submit(req)) {
          order[req.req_id] = todo[submitted];
          ++submitted;
        } else {
          rejected = true;  // deterministic refusal (e.g. zeroized slot)
          break;
        }
      }
      acc_.tick();
      drain();
      if (acc_.cycle() - attempt_start >
          opts_.timeout_cycles + todo.size()) {
        timed_out = true;  // device wedged (e.g. permanently stalled)
        break;
      }
    }

    if (rejected) return finishVerdict(AccelStatus::Rejected, start_cycle);

    bool need_retry = false;
    for (auto s : st) {
      if (s == St::Fail || s == St::Pending) {
        need_retry = true;
        break;
      }
    }
    if (!need_retry) {
      for (auto s : st) {
        if (s == St::Supp)
          return finishVerdict(AccelStatus::Suppressed, start_cycle);
      }
      (void)finishVerdict(AccelStatus::Ok, start_cycle);
      return out;
    }

    const AccelStatus verdict =
        attempt_fail != AccelStatus::Ok
            ? attempt_fail
            : (timed_out ? AccelStatus::Timeout : AccelStatus::FaultAborted);
    if (attempt >= opts_.max_retries)
      return finishVerdict(verdict, start_cycle);

    // Bounded backoff before the retry; keep draining so in-flight
    // responses from this attempt are still credited.
    ++retries_;
    acc_.noteRetry();
    const std::uint64_t backoff = opts_.backoff_cycles << attempt;
    for (std::uint64_t i = 0; i < backoff; ++i) {
      acc_.tick();
      drain();
    }
  }
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
  return runBatch(pts, false);
}

AccelResult<std::vector<aes::Block>> AccelSession::decryptBlocks(
    const std::vector<aes::Block>& cts) {
  return runBatch(cts, true);
}

AccelResult<aes::Block> AccelSession::encryptBlock(const aes::Block& pt) {
  auto r = runBatch({pt}, false);
  if (!r) return r.status();
  return (*r)[0];
}

AccelResult<aes::Block> AccelSession::decryptBlock(const aes::Block& ct) {
  auto r = runBatch({ct}, true);
  if (!r) return r.status();
  return (*r)[0];
}

AccelResult<aes::Bytes> AccelSession::ecbEncrypt(const aes::Bytes& data) {
  if (data.size() % 16 != 0) return AccelStatus::Rejected;
  std::vector<aes::Block> blocks(data.size() / 16);
  for (std::size_t i = 0; i < blocks.size(); ++i)
    blocks[i] = loadBlock(data, 16 * i);
  auto r = runBatch(blocks, false);
  if (!r) return r.status();
  aes::Bytes out(data.size());
  for (std::size_t i = 0; i < r->size(); ++i) storeBlock(out, 16 * i, (*r)[i]);
  return out;
}

AccelResult<aes::Bytes> AccelSession::ecbDecrypt(const aes::Bytes& data) {
  if (data.size() % 16 != 0) return AccelStatus::Rejected;
  std::vector<aes::Block> blocks(data.size() / 16);
  for (std::size_t i = 0; i < blocks.size(); ++i)
    blocks[i] = loadBlock(data, 16 * i);
  auto r = runBatch(blocks, true);
  if (!r) return r.status();
  aes::Bytes out(data.size());
  for (std::size_t i = 0; i < r->size(); ++i) storeBlock(out, 16 * i, (*r)[i]);
  return out;
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
  auto ks = runBatch(counters, false);  // keystream, fully pipelined
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
  std::vector<aes::Block> blocks(data.size() / 16);
  for (std::size_t i = 0; i < blocks.size(); ++i)
    blocks[i] = loadBlock(data, 16 * i);
  auto r = runBatch(blocks, true);  // all blocks decrypt in parallel
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
    if (auto r = collectGcm(*h)) return std::move(*r);
    acc_.tick();
  }
}

GcmSubmit AccelSession::submitAttempt(GcmFlight& f) {
  f.req.req_id = next_req_++;
  f.budget = gcmWatchdog(gcmWorkBlocks(f.req));
  const GcmSubmit s = acc_.submitGcm(f.req);
  if (s == GcmSubmit::Accepted) {
    f.submitted = true;
    f.attempt_start = acc_.cycle();
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
  req.user = user_;
  req.key_slot = key_slot_;
  GcmFlight f;
  f.req = std::move(req);
  f.start_cycle = acc_.cycle();
  const GcmSubmit s = submitAttempt(f);
  if (s == GcmSubmit::Full) return std::nullopt;
  if (s != GcmSubmit::Accepted)
    f.refused = finishVerdict(AccelStatus::Rejected, f.start_cycle);
  const GcmHandle h = next_gcm_++;
  gcm_flights_.emplace(h, std::move(f));
  return h;
}

std::optional<AccelResult<GcmResponse>> AccelSession::collectGcm(
    GcmHandle h) {
  // Hand each arrived response to the attempt it answers; one from an
  // abandoned attempt matches none and is discarded.
  while (auto r = acc_.fetchGcm(user_)) {
    for (auto& [id, fl] : gcm_flights_) {
      if (fl.submitted && fl.req.req_id == r->req_id) {
        fl.got = std::move(*r);
        break;
      }
    }
  }
  const auto it = gcm_flights_.find(h);
  GcmFlight& f = it->second;
  const auto spend = [&](AccelResult<GcmResponse> r) {
    gcm_flights_.erase(it);
    return r;
  };
  if (f.refused) return spend(*f.refused);
  for (;;) {
    AccelStatus failed = AccelStatus::Timeout;
    if (f.submitted) {
      if (f.got && f.got->suppressed)  // final
        return spend(finishVerdict(AccelStatus::Suppressed, f.start_cycle));
      if (f.got && f.got->auth_failed)  // a verdict
        return spend(finishVerdict(AccelStatus::AuthFailed, f.start_cycle));
      if (f.got && !f.got->fault_aborted) {
        (void)finishVerdict(AccelStatus::Ok, f.start_cycle);
        return spend(std::move(*f.got));
      }
      if (f.got) {
        failed = AccelStatus::FaultAborted;
      } else {
        // The backlog counts this op while it computes, and every op that
        // joined it since.
        f.budget = std::max(f.budget, gcmWatchdog(0));
        if (acc_.cycle() - f.attempt_start <= f.budget) return std::nullopt;
      }
    } else {
      if (acc_.cycle() < f.attempt_start) return std::nullopt;  // backoff
      const GcmSubmit s = submitAttempt(f);
      if (s == GcmSubmit::Accepted) return std::nullopt;
      if (s != GcmSubmit::Full)
        return spend(finishVerdict(AccelStatus::Rejected, f.start_cycle));
      // Every op slot is busy: wait for one on this attempt's watchdog.
      if (acc_.cycle() - f.attempt_start <= f.budget) return std::nullopt;
    }
    if (f.attempt >= opts_.max_retries)
      return spend(finishVerdict(failed, f.start_cycle));
    ++retries_;
    acc_.noteRetry();
    f.attempt_start = acc_.cycle() + (opts_.backoff_cycles << f.attempt);
    ++f.attempt;
    f.submitted = false;
    f.got.reset();
  }
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
