#pragma once
// FNV-1a over an observable trace: the pinned-digest tests fold every
// completion, counter and cycle stamp into one of these, so any change to
// what the device releases, or when, moves the digest.

#include <cstdint>
#include <span>

namespace aesifc {

struct TraceHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; }
  void u64(std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i)
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(std::span<const std::uint8_t> v) {
    for (const auto b : v) byte(b);
  }
};

}  // namespace aesifc
