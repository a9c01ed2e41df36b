//===- Snapshot.h - Versioned, checksummed snapshot container ---*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk container for checkpoints: complete dynamic simulation
/// state (target memory, globals/arrays/slots, cycle and retired counters,
/// extern-unit state) so a run can stop and resume bit-identically. The
/// paper's whole premise is that simulation work is redundant; a
/// checkpoint plus a saved action cache extends that memoization from
/// intra-run to inter-run. Saved action caches are not FACSNAP2
/// containers: they are FACSTOR1 images, the same format as a cache-store
/// generation (src/store/CacheStore.h).
///
/// Layout (all integers little-endian):
///
///   header:   magic "FACSNAP2" (8) | format version u32 | payload kind u32
///             (always 1, checkpoint) | compat key u64 | section count u32
///             | header CRC-32 u32
///   sections: tag u32 | payload length u64 | payload CRC-32 u32 | payload
///
/// The compat key binds a payload to the exact producer configuration — a
/// hash of the compiled program's ExecPlan fingerprint, the ISA revision,
/// Simulation::Options and the target image digest (Simulation::compatKey).
/// Readers reject on any mismatch, and every parse error is a clean,
/// diagnosable failure — mismatch and corruption degrade to a cold start,
/// never an abort or UB. Loading is strict: the whole file is read and
/// checksummed before a single byte reaches a consumer.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SNAPSHOT_SNAPSHOT_H
#define FACILE_SNAPSHOT_SNAPSHOT_H

#include "src/snapshot/Serializer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace facile {
namespace snapshot {

/// Bumped whenever the container or any payload layout changes.
inline constexpr uint32_t FormatVersion = 4;

/// The header's payload-kind word. Checkpoints are the only kind; kind 2
/// (the retired action-cache payload) is rejected as a bad format.
inline constexpr uint32_t CheckpointKind = 1;

/// Section tags (payload framing inside a container).
inline constexpr uint32_t SecSimState = 0x4d495353u;  // "SSIM"
inline constexpr uint32_t SecMemory = 0x4d454d53u;    // "SMEM"
inline constexpr uint32_t SecBranchUnit = 0x55504253u; // "SBPU"
inline constexpr uint32_t SecMemHier = 0x52484d53u;   // "SMHR"

/// One framed payload inside a container: a tagged view of bytes owned by
/// someone else (the producer's buffers when building, the file image when
/// parsing).
struct Section {
  uint32_t Tag = 0;
  const uint8_t *Data = nullptr;
  size_t Len = 0;
};

/// A section viewing all of \p Bytes.
inline Section sectionOf(uint32_t Tag, const std::vector<uint8_t> &Bytes) {
  return {Tag, Bytes.data(), Bytes.size()};
}

/// Why a load failed (Ok means it did not). Shared by the FACSNAP2 and
/// FACSTOR1 parsers.
enum class LoadStatus {
  Ok,
  IoError,        ///< file missing/unreadable
  BadFormat,      ///< wrong magic, version or payload kind
  CompatMismatch, ///< valid container produced under a different config
  Corrupt,        ///< truncated, CRC mismatch, or inconsistent framing
};

/// Human-readable status name for diagnostics.
const char *loadStatusName(LoadStatus St);

/// Serializes \p Sections into one checkpoint container image.
std::vector<uint8_t> buildContainer(uint64_t CompatKey,
                                    const std::vector<Section> &Sections);

/// Parses a container image, verifying magic, version, kind, compat key,
/// header CRC and every section CRC before returning any data. The
/// sections in \p Out point into \p Data, which must outlive them. On
/// failure \p Out is untouched and \p Err describes the problem.
LoadStatus parseContainer(const uint8_t *Data, size_t Len, uint64_t CompatKey,
                          std::vector<Section> &Out, std::string &Err);

/// Writes \p Bytes to \p Path through a temporary file named after the
/// path and this process's pid, then an atomic rename: a reader sees the
/// old file or the complete new one, never a torn write, and two processes
/// saving the same path never share a temporary. Returns false with \p Err
/// set on I/O failure.
bool writeFileBytes(const std::string &Path, const std::vector<uint8_t> &Bytes,
                    std::string &Err);

/// Reads the whole file at \p Path into a buffer sized once from the file
/// length. Returns false with \p Err set when the file cannot be opened or
/// read.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out,
                   std::string &Err);

} // namespace snapshot
} // namespace facile

#endif // FACILE_SNAPSHOT_SNAPSHOT_H
