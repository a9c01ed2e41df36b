//===- Serializer.cpp - Bounds-checked binary (de)serialization ------------===//

#include "src/snapshot/Serializer.h"

namespace facile {
namespace snapshot {

namespace {

/// Slice-by-8 tables: T[0] is the classic byte table; T[K][I] is the CRC of
/// byte I followed by K zero bytes, so eight table lookups fold one 8-byte
/// word into the running CRC.
struct Crc32Tables {
  uint32_t T[8][256];
  Crc32Tables() {
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (uint32_t I = 0; I != 256; ++I)
      for (int K = 1; K != 8; ++K)
        T[K][I] = T[0][T[K - 1][I] & 0xffu] ^ (T[K - 1][I] >> 8);
  }
};

} // namespace

uint32_t crc32(const void *Data, size_t Len, uint32_t Seed) {
  static const Crc32Tables Tables;
  const auto &T = Tables.T;
  const auto *P = static_cast<const uint8_t *>(Data);
  uint32_t C = Seed ^ 0xffffffffu;
  // Words are read host-endian; the fold below assumes a little-endian
  // host, like every fixed-width field the Writer emits.
  for (; Len >= 8; P += 8, Len -= 8) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    W ^= C;
    C = T[7][W & 0xffu] ^ T[6][(W >> 8) & 0xffu] ^ T[5][(W >> 16) & 0xffu] ^
        T[4][(W >> 24) & 0xffu] ^ T[3][(W >> 32) & 0xffu] ^
        T[2][(W >> 40) & 0xffu] ^ T[1][(W >> 48) & 0xffu] ^ T[0][W >> 56];
  }
  for (; Len != 0; ++P, --Len)
    C = T[0][(C ^ *P) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

} // namespace snapshot
} // namespace facile
