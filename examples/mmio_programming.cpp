// Register-level programming walkthrough: what a kernel driver does on the
// Fig. 4 AXI interface, step by step — allocate cells, stage and install a
// key, submit a block, poll STATUS, read the result, and watch the
// protection respond to a hostile window. Exits 1 if any step does not do
// what the walkthrough says it does.
//
// Build & run:  ./build/examples/mmio_programming

#include <cstdio>

#include "accel/mmio.h"
#include "aes/cipher.h"

using namespace aesifc;
using accel::AesAccelerator;
using W = accel::MmioWindow;

namespace {

bool all_ok = true;

void show(const char* step, std::uint32_t value) {
  std::printf("  %-46s -> 0x%08x\n", step, value);
}

// Shows a register read and checks it against what the step must yield.
void expect(const char* step, std::uint32_t value, std::uint32_t want) {
  show(step, value);
  if (value != want) {
    std::printf("  MISMATCH: expected 0x%08x\n", want);
    all_ok = false;
  }
}

}  // namespace

int main() {
  accel::AcceleratorConfig cfg;
  AesAccelerator acc{cfg};
  const unsigned sup = acc.addUser(lattice::Principal::supervisor());
  const unsigned alice = acc.addUser(lattice::Principal::user("alice", 1));
  const unsigned eve = acc.addUser(lattice::Principal::user("eve", 2));
  W sup_win{acc, sup};
  W alice_win{acc, alice};
  W eve_win{acc, eve};

  std::printf("Step 1: identify the device through any window\n");
  show("read CFG_VERSION", alice_win.read(W::kCfgBase + 0xc));

  std::printf("\nStep 2: Alice provisions a key through her window\n");
  alice_win.write(W::kKeyArg, (2u << 8) | 0);  // 2 cells at base 0
  alice_win.write(W::kKeyGo, 2);               // configure
  const std::uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                                0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                                0x4f, 0x3c};
  for (unsigned c = 0; c < 2; ++c) {
    std::uint32_t lo = 0, hi = 0;
    for (unsigned i = 0; i < 4; ++i) {
      lo |= static_cast<std::uint32_t>(key[8 * c + i]) << (8 * i);
      hi |= static_cast<std::uint32_t>(key[8 * c + 4 + i]) << (8 * i);
    }
    alice_win.write(W::kKeyArg, c);
    alice_win.write(W::kKeyLo, lo);
    alice_win.write(W::kKeyHi, hi);
    alice_win.write(W::kKeyGo, 1);  // store staged words into cell c
  }
  alice_win.write(W::kKeySlot, 1);
  alice_win.write(W::kKeyArg, (1u << 8) | 0);  // palette 1 = category 1
  alice_win.write(W::kKeyGo, 4);               // expand into slot 1
  expect("KEY_GO expand, LAST_OP_OK", alice_win.read(W::kLastOpOk), 1);

  std::printf("\nStep 3: Eve's window tries to poke Alice's cells\n");
  eve_win.write(W::kKeyArg, 0);
  eve_win.write(W::kKeyLo, 0xdeadbeef);
  eve_win.write(W::kKeyGo, 1);
  expect("Eve KEY_GO write, LAST_OP_OK (0 = refused)",
         eve_win.read(W::kLastOpOk), 0);

  std::printf("\nStep 4: Alice encrypts one block\n");
  aes::Block pt{};
  for (unsigned i = 0; i < 16; ++i) pt[i] = static_cast<std::uint8_t>(i);
  for (unsigned w = 0; w < 4; ++w) {
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(pt[4 * w + i]) << (8 * i);
    alice_win.write(W::kDataIn + 4 * w, v);
  }
  alice_win.write(W::kCtrl, 1);  // submit-encrypt
  unsigned polls = 0;
  while ((alice_win.read(W::kStatus) & 1u) == 0 && polls < 1000) {
    acc.tick();
    ++polls;
  }
  std::printf("  polled STATUS %u times (30-stage pipeline)\n", polls);

  aes::Block ct{};
  for (unsigned w = 0; w < 4; ++w) {
    const std::uint32_t v = alice_win.read(W::kDataOut + 4 * w);
    for (unsigned i = 0; i < 4; ++i)
      ct[4 * w + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  alice_win.write(W::kCtrl, 4);  // pop

  const auto golden = aes::encryptBlock(pt, key, aes::KeySize::Aes128);
  std::printf("  ciphertext: ");
  for (unsigned i = 0; i < 16; ++i) std::printf("%02x", ct[i]);
  std::printf("\n  matches software AES: %s\n",
              ct == golden ? "yes" : "NO");
  all_ok = all_ok && ct == golden;

  std::printf("\nStep 5: config window integrity\n");
  eve_win.write(W::kCfgBase + 0x0, 1);  // debug_enable tamper
  expect("Eve CFG write, LAST_OP_OK", eve_win.read(W::kLastOpOk), 0);
  sup_win.write(W::kCfgBase + 0x0, 1);
  expect("supervisor CFG write, LAST_OP_OK", sup_win.read(W::kLastOpOk), 1);

  std::printf("\nsecurity events logged by the device: %zu\n",
              acc.events().size());
  for (const auto& e : acc.events()) {
    std::printf("  %s\n", e.toString().c_str());
  }
  return all_ok ? 0 : 1;
}
