//===- JitArena.h - W^X executable-memory arena -----------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable memory for compiled code under a strict W^X discipline:
/// each published unit gets its own page-rounded mmap chunk, filled while
/// the mapping is read-write and mprotect-flipped to read-execute before
/// the entry pointer is ever published. Chunks are never flipped back,
/// reused or freed until arena destruction, so a page that other threads
/// may be executing is never writable again — publication is a single
/// release-store of the function pointer done by the caller.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITARENA_H
#define FACILE_JIT_JITARENA_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace facile {
namespace jit {

class JitArena {
public:
  JitArena() = default;
  ~JitArena();
  JitArena(const JitArena &) = delete;
  JitArena &operator=(const JitArena &) = delete;

  /// Copies \p Size bytes of machine code into a fresh RW mapping and flips
  /// it RX. Returns the executable address, or null when the platform has
  /// no executable memory (or mapping failed) — the caller treats that as
  /// "cannot compile", never as an error.
  const uint8_t *publish(const uint8_t *Code, size_t Size);

  /// Total bytes of page-rounded executable memory held.
  uint64_t mappedBytes() const { return Mapped; }

private:
  struct Chunk {
    void *Base;
    size_t Size;
  };
  std::vector<Chunk> Chunks;
  uint64_t Mapped = 0;
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITARENA_H
