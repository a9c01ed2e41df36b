//===- Hashing.h - Deterministic hashing utilities --------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic hashing, kept independent of std::hash so that cache
/// statistics are reproducible across standard libraries. FNV-1a
/// (hashBytes) fingerprints configurations, memory images and FastSim
/// states; hashKey hashes action-cache keys a word at a time.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SUPPORT_HASHING_H
#define FACILE_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>

namespace facile {

inline constexpr uint64_t FNVOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t FNVPrime = 0x100000001b3ULL;

/// Hashes \p Size bytes starting at \p Data, continuing from \p Seed.
inline uint64_t hashBytes(const void *Data, size_t Size,
                          uint64_t Seed = FNVOffset) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= FNVPrime;
  }
  return H;
}

/// Mixes one 64-bit value into a running hash.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return hashBytes(&Value, sizeof(Value), Seed);
}

namespace detail {

inline constexpr uint64_t KeyPrime1 = 0x9e3779b185ebca87ULL;
inline constexpr uint64_t KeyPrime2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr uint64_t KeyPrime3 = 0x165667b19e3779f9ULL;
inline constexpr uint64_t KeyPrime4 = 0x85ebca77c2b2ae63ULL;

inline uint64_t rotl64(uint64_t X, int R) { return (X << R) | (X >> (64 - R)); }

/// Folds one 8-byte lane into an accumulator.
inline uint64_t keyRound(uint64_t Acc, uint64_t Lane) {
  return rotl64(Acc + Lane * KeyPrime2, 31) * KeyPrime1;
}

inline uint64_t loadLane(const unsigned char *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

} // namespace detail

/// Hashes the \p Size-byte action-cache key at \p Data, 8-byte lanes at a
/// time (xxHash64-style rounds): four independent accumulators take one
/// lane each per 32-byte stripe, so their multiply chains overlap instead
/// of forming FNV-1a's one-multiply-per-byte chain. Lanes are read
/// host-endian and the length is mixed in, so zero-padding the final
/// partial lane cannot collide two keys. Store files persist these hashes:
/// changing this function is a store-format change.
inline uint64_t hashKey(const void *Data, size_t Size) {
  using namespace detail;
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t H;
  size_t Left = Size;
  if (Left >= 32) {
    uint64_t A = KeyPrime1 + KeyPrime2, B = KeyPrime2, C = 0, D = -KeyPrime1;
    for (; Left >= 32; P += 32, Left -= 32) {
      A = keyRound(A, loadLane(P));
      B = keyRound(B, loadLane(P + 8));
      C = keyRound(C, loadLane(P + 16));
      D = keyRound(D, loadLane(P + 24));
    }
    H = rotl64(A, 1) + rotl64(B, 7) + rotl64(C, 12) + rotl64(D, 18);
    for (uint64_t V : {A, B, C, D})
      H = (H ^ keyRound(0, V)) * KeyPrime1 + KeyPrime4;
  } else {
    H = KeyPrime3;
  }
  H += Size;
  for (; Left >= 8; P += 8, Left -= 8)
    H = rotl64(H ^ keyRound(0, loadLane(P)), 27) * KeyPrime1 + KeyPrime4;
  if (Left != 0) {
    uint64_t Lane = 0;
    std::memcpy(&Lane, P, Left);
    H = rotl64(H ^ keyRound(0, Lane), 27) * KeyPrime1 + KeyPrime4;
  }
  H ^= H >> 33;
  H *= KeyPrime2;
  H ^= H >> 29;
  H *= KeyPrime3;
  return H ^ (H >> 32);
}

} // namespace facile

#endif // FACILE_SUPPORT_HASHING_H
