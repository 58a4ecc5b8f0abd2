#pragma once
// Word-wise (T-table) AES rounds: each round works on four 32-bit columns,
// folding SubBytes, ShiftRows and MixColumns into four table lookups per
// column. The accelerator pipe uses it to finish a block at its exit in one
// call instead of 3 x rounds byte-wise micro-ops; the result is the same
// state those micro-ops produce.
//
// The byte-wise micro-ops in block.h and encryptBlock/decryptBlock in
// cipher.h stay the independent reference; they never call these kernels.

#include <vector>

#include "aes/block.h"

namespace aesifc::aes {

// Rounds 1..nr of encryption on a state that already has round key 0
// added. Reads rk[1..nr]; throws std::out_of_range when rk is too short.
void encryptRounds(State& s, const std::vector<RoundKey>& rk, unsigned nr);

// Rounds 1..nr of the straightforward inverse cipher (InvShiftRows,
// InvSubBytes, AddRoundKey rk[nr - r], InvMixColumns) on a state that
// already has round key nr added. Uses the round keys as stored, with no
// InvMixColumns-ed copy: each is unmixed as it is read (InvMixColumns is
// linear), so any round keys give the micro-ops' result, not only an
// expanded schedule. Throws std::out_of_range when rk is too short.
void decryptRounds(State& s, const std::vector<RoundKey>& rk, unsigned nr);

}  // namespace aesifc::aes
