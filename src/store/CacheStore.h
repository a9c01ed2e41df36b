//===- CacheStore.h - Content-addressed, mmap-shared cache store -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed on-disk store of sealed action caches, designed to
/// be memory-mapped read-only and shared by any number of processes and
/// sessions, and the FACSTOR1 image format it stores. FACSTOR1 is the one
/// on-disk and on-wire form of an action cache: a `--save-cache` file, a
/// facilesimd `snapshot-save kind=cache` payload and a store generation are
/// all FACSTOR1 images, written by buildStoreImage and read by
/// parseStoreImage.
///
/// The action cache is relocatable by construction (every link is an arena
/// index — see ActionCache.h), so an image is simply the arenas in their
/// in-memory layout plus a validated header: mapping a store file costs no
/// deserialization, no rehash and no per-session copies of the node, seal,
/// data or key arenas. Each consumer layers a private copy-on-write overlay
/// (ActionCache::attachBase) over the image; the base is never written.
/// Loading a saved cache file parses the same image inside the buffer the
/// file was read into and attaches that buffer the same way.
///
/// Files are keyed by Simulation::compatKey() — the hash binding a cache
/// to the exact compiled program, options, ISA revision and target image —
/// and carry a monotonically increasing *generation*: promoting a
/// session's warmed cache writes the next generation beside the old one
/// (atomic rename), so live mappings of earlier generations stay valid.
/// Saved cache files carry generation 0.
///
/// FACSTOR1 layout (host-endian: a file from a host of the other byte
/// order fails the version check):
///
///   header (64 bytes):
///     magic "FACSTOR1" (8) | version u32 | action count u32
///     | compat key u64 | generation u64 | reserved (8, zero)
///     | section count u32 | header CRC-32 u32 | reserved (16, zero)
///   section table: per section (32 bytes), in the order of the Sec* tags
///   below
///     tag u32 | reserved u32 (zero) | file offset u64 | byte length u64
///     | payload CRC-32 u32 | reserved u32 (zero)
///   sections: raw arena bytes, each at the next 8-byte aligned offset,
///     gaps zero, nothing after the last
///
/// Parsing validates everything before a byte reaches the runtime: magic,
/// version, compat key, header and per-section CRCs, the exact section
/// layout and zero reserved bytes, then the arenas' structure (links,
/// spans, key spans, key→entry consistency, recomputed key hashes) plus
/// the persisted probe table (power-of-two size, every key findable from
/// its home slot). Any failure is a diagnosed cold start, never UB.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_STORE_CACHESTORE_H
#define FACILE_STORE_CACHESTORE_H

#include "src/runtime/ActionCache.h"
#include "src/snapshot/Snapshot.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace facile {
namespace store {

/// Bumped whenever the header, section table, any arena layout or the
/// persisted key hash (hashKey) changes.
inline constexpr uint32_t StoreVersion = 3;

/// Section tags (ASCII fourcc, little-endian in the table).
inline constexpr uint32_t SecNodes = 0x45444f4eu;      // "NODE"
inline constexpr uint32_t SecSeals = 0x4c414553u;      // "SEAL"
inline constexpr uint32_t SecData = 0x41544144u;       // "DATA"
inline constexpr uint32_t SecKeyPool = 0x4c4f504bu;    // "KPOL"
inline constexpr uint32_t SecKeyRecs = 0x4345524bu;    // "KREC"
inline constexpr uint32_t SecKeyToEntry = 0x0045324bu; // "K2E\0"
inline constexpr uint32_t SecEntries = 0x52544e45u;    // "ENTR"
inline constexpr uint32_t SecKeyTable = 0x4241544bu;   // "KTAB"

/// Serializes \p Img as a FACSTOR1 image. Every node's ActionId must
/// already be < \p NumActions — the image comes from a cache that enforced
/// it. Deterministic: equal inputs give bit-identical bytes.
std::vector<uint8_t> buildStoreImage(const rt::ActionCache::FlatImage &Img,
                                     uint64_t CompatKey, uint32_t NumActions,
                                     uint64_t Generation);

/// A parsed, fully validated FACSTOR1 image: views into the parsed bytes.
struct StoreImage {
  rt::ActionCache::BaseArenas Arenas;
  uint64_t Generation = 0;
};

/// Parses and validates the FACSTOR1 image at [\p Data, \p Data + \p Len)
/// for a consumer with \p CompatKey and \p NumActions. \p Data must be
/// 8-byte aligned and outlive \p Out's views. Returns BadFormat (magic,
/// version), CompatMismatch (compat key or action count) or Corrupt
/// (everything else) with \p Err set, leaving \p Out untouched.
snapshot::LoadStatus parseStoreImage(const uint8_t *Data, size_t Len,
                                     uint64_t CompatKey, uint32_t NumActions,
                                     StoreImage &Out, std::string &Err);

/// One validated, read-only mapping of a store file. Immutable and
/// thread-safe after open; shared as std::shared_ptr<const StoreMap> so a
/// mapping outlives every cache attached over it (the shared_ptr doubles
/// as the ActionCache keepalive). The destructor unmaps.
class StoreMap {
public:
  StoreMap(const StoreMap &) = delete;
  StoreMap &operator=(const StoreMap &) = delete;
  ~StoreMap();

  /// Maps \p Path and validates it with parseStoreImage. \p CompatKey and
  /// \p NumActions are the consumer's — mismatch is a rejection, not a
  /// fault. Returns null with \p Err set on any failure.
  static std::shared_ptr<const StoreMap> open(const std::string &Path,
                                              uint64_t CompatKey,
                                              uint32_t NumActions,
                                              std::string &Err);

  /// A base-layer view into the mapping, ready for
  /// Simulation::attachCacheBase. Valid for this StoreMap's lifetime.
  const rt::ActionCache::BaseArenas &arenas() const { return Image.Arenas; }

  uint64_t compatKey() const { return CompatKeyV; }
  uint64_t generation() const { return Image.Generation; }
  uint32_t numActions() const { return NumActionsV; }
  const std::string &path() const { return FilePath; }
  /// The mapped extent — what N sessions share instead of N copies.
  size_t mappedBytes() const { return MapLen; }
  /// The first mapped byte (tests check the mapping is PROT_READ).
  const void *mappedBase() const { return Map; }

private:
  StoreMap() = default;

  void *Map = nullptr;
  size_t MapLen = 0;
  std::string FilePath;
  uint64_t CompatKeyV = 0;
  uint32_t NumActionsV = 0;
  StoreImage Image;
};

/// A directory of store files, one per (compat key, generation). The
/// handle caches live mappings by file name, so every lookup of the same
/// generation — across all sessions of a process — shares one StoreMap.
/// Thread-safe.
class CacheStoreDir {
public:
  explicit CacheStoreDir(std::string Dir) : Dir(std::move(Dir)) {}

  const std::string &path() const { return Dir; }

  /// The store file name for (\p CompatKey, \p Generation).
  static std::string fileName(uint64_t CompatKey, uint64_t Generation);

  /// Maps the highest-generation store file for \p CompatKey. A clean
  /// miss (no file) returns null with \p Err empty; a validation or I/O
  /// failure returns null with \p Err set.
  std::shared_ptr<const StoreMap> lookup(uint64_t CompatKey,
                                         uint32_t NumActions,
                                         std::string *Err = nullptr);

  /// Writes \p Img as the next generation for \p CompatKey (one past the
  /// highest present; 1 when none). Existing mappings are untouched —
  /// promotion is additive. Creates the directory if needed. On success
  /// *\p OutGeneration (when non-null) receives the new generation.
  bool promote(const rt::ActionCache::FlatImage &Img, uint64_t CompatKey,
               uint32_t NumActions, uint64_t *OutGeneration,
               std::string *Err);

  /// Number of distinct live mappings held through this handle — the "N
  /// sessions, one mapping" observability hook (expired cache slots are
  /// pruned first).
  size_t mappedCount() const;

  /// Generation GC: unlinks every store file that is not among the newest
  /// \p KeepPerKey generations of its compat key. POSIX unlink semantics
  /// make this safe while any generation — including an unlinked one — is
  /// mapped: the pages stay valid until the last mapping drops. Returns
  /// the number of files unlinked; \p KeepPerKey of 0 is treated as 1
  /// (never delete the newest generation).
  size_t gc(size_t KeepPerKey, std::string *Err = nullptr);

private:
  uint64_t latestGeneration(uint64_t CompatKey) const;

  std::string Dir;
  mutable std::mutex Mu;
  /// file name -> mapping; weak so an unused generation can unmap.
  mutable std::map<std::string, std::weak_ptr<const StoreMap>> Maps;
};

} // namespace store
} // namespace facile

#endif // FACILE_STORE_CACHESTORE_H
