//===- Serializer.h - Bounds-checked binary (de)serialization ---*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte layer of the snapshot subsystem (Snapshot.h): an append-only
/// Writer and a bounds-checked Reader over flat byte buffers, plus the
/// CRC-32 used to checksum every container section.
///
/// The Reader is built for hostile input — snapshot files may be
/// truncated, bit-flipped or simply stale. Every read checks bounds; a
/// failed read sticks (ok() stays false), returns a zero value and never
/// touches out-of-range memory, so callers can decode an entire payload
/// straight-line and check ok() once at the end. Vector reads bound the
/// element count by the bytes actually remaining, so a corrupt length
/// prefix cannot trigger a multi-gigabyte allocation.
///
/// Values are fixed-width little-endian. Structs are serialized
/// field-by-field — never by memcpy of the struct — so padding bytes
/// neither leak into files nor break round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SNAPSHOT_SERIALIZER_H
#define FACILE_SNAPSHOT_SERIALIZER_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace facile {
namespace snapshot {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of \p Len bytes at \p Data,
/// continuing from \p Seed so section checksums can be streamed.
uint32_t crc32(const void *Data, size_t Len, uint32_t Seed = 0);

/// Append-only byte sink for one snapshot payload.
class Writer {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) { put(&V, 4); }
  void u64(uint64_t V) { put(&V, 8); }
  void i64(int64_t V) { put(&V, 8); }
  void bytes(const void *Data, size_t Len) { put(Data, Len); }

  /// Length-prefixed (u64 element count) vectors of fixed-width elements.
  void i64Vec(const std::vector<int64_t> &V) {
    u64(V.size());
    put(V.data(), V.size() * sizeof(int64_t));
  }
  void u32Vec(const std::vector<uint32_t> &V) {
    u64(V.size());
    put(V.data(), V.size() * sizeof(uint32_t));
  }
  void u8Vec(const std::vector<uint8_t> &V) {
    u64(V.size());
    put(V.data(), V.size());
  }
  void charVec(const std::vector<char> &V) {
    u64(V.size());
    put(V.data(), V.size());
  }

  size_t size() const { return Buf.size(); }
  const std::vector<uint8_t> &buffer() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  void put(const void *Data, size_t Len) {
    if (Len == 0)
      return; // empty vectors have null data(); keep memlib calls non-null
    const auto *P = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), P, P + Len);
  }

  std::vector<uint8_t> Buf;
};

/// Bounds-checked byte source over one snapshot payload. Does not own the
/// bytes; the buffer must outlive the reader.
class Reader {
public:
  Reader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}
  explicit Reader(const std::vector<uint8_t> &V) : Data(V.data()), Len(V.size()) {}

  uint8_t u8() {
    uint8_t V = 0;
    get(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    get(&V, 4);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    get(&V, 8);
    return V;
  }
  int64_t i64() {
    int64_t V = 0;
    get(&V, 8);
    return V;
  }
  bool bytes(void *Out, size_t N) { return get(Out, N); }

  /// Skips the next \p N bytes and returns a pointer to them inside the
  /// reader's buffer, or null (failing the reader) on short input.
  const uint8_t *view(size_t N) {
    if (Failed || N > Len - Pos) {
      Failed = true;
      return nullptr;
    }
    const uint8_t *P = Data + Pos;
    Pos += N;
    return P;
  }

  /// Reads a length-prefixed vector. The count is validated against the
  /// bytes remaining before any allocation, so corrupt counts fail cleanly
  /// instead of exhausting memory. Returns false (and fails the reader) on
  /// short input.
  bool i64Vec(std::vector<int64_t> &Out) { return vec(Out, sizeof(int64_t)); }
  bool u32Vec(std::vector<uint32_t> &Out) { return vec(Out, sizeof(uint32_t)); }
  bool u8Vec(std::vector<uint8_t> &Out) { return vec(Out, 1); }
  bool charVec(std::vector<char> &Out) { return vec(Out, 1); }

  /// True while every read so far was in bounds.
  bool ok() const { return !Failed; }
  /// Marks the payload as invalid (semantic validation failures).
  void fail() { Failed = true; }
  bool atEnd() const { return Pos == Len; }
  size_t remaining() const { return Len - Pos; }

private:
  bool get(void *Out, size_t N) {
    if (N == 0)
      return !Failed;
    if (Failed || N > Len - Pos) {
      Failed = true;
      std::memset(Out, 0, N);
      return false;
    }
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
    return true;
  }

  template <typename T> bool vec(std::vector<T> &Out, size_t ElemSize) {
    uint64_t N = u64();
    if (Failed || N > remaining() / ElemSize) {
      Failed = true;
      return false;
    }
    Out.resize(static_cast<size_t>(N));
    return get(Out.data(), static_cast<size_t>(N) * ElemSize);
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace snapshot
} // namespace facile

#endif // FACILE_SNAPSHOT_SERIALIZER_H
