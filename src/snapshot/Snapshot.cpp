//===- Snapshot.cpp - Versioned, checksummed snapshot container ------------===//

#include "src/snapshot/Snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

namespace facile {
namespace snapshot {

namespace {

constexpr char Magic[8] = {'F', 'A', 'C', 'S', 'N', 'A', 'P', '2'};
/// magic + version + kind + compat + section count + header crc.
constexpr size_t HeaderSize = 8 + 4 + 4 + 8 + 4 + 4;
/// A container never carries more sections than this; bounds the parse
/// loop against corrupt counts.
constexpr uint32_t MaxSections = 64;

} // namespace

const char *loadStatusName(LoadStatus St) {
  switch (St) {
  case LoadStatus::Ok:
    return "ok";
  case LoadStatus::IoError:
    return "io-error";
  case LoadStatus::BadFormat:
    return "bad-format";
  case LoadStatus::CompatMismatch:
    return "compat-mismatch";
  case LoadStatus::Corrupt:
    return "corrupt";
  }
  return "?";
}

std::vector<uint8_t> buildContainer(uint64_t CompatKey,
                                    const std::vector<Section> &Sections) {
  Writer W;
  W.bytes(Magic, sizeof(Magic));
  W.u32(FormatVersion);
  W.u32(CheckpointKind);
  W.u64(CompatKey);
  W.u32(static_cast<uint32_t>(Sections.size()));
  W.u32(crc32(W.buffer().data(), W.size()));
  for (const Section &S : Sections) {
    W.u32(S.Tag);
    W.u64(S.Len);
    W.u32(crc32(S.Data, S.Len));
    W.bytes(S.Data, S.Len);
  }
  return W.take();
}

LoadStatus parseContainer(const uint8_t *Data, size_t Len, uint64_t CompatKey,
                          std::vector<Section> &Out, std::string &Err) {
  Reader R(Data, Len);
  char M[8] = {};
  R.bytes(M, sizeof(M));
  if (!R.ok() || std::memcmp(M, Magic, sizeof(Magic)) != 0) {
    Err = "not a Facile snapshot (bad magic)";
    return LoadStatus::BadFormat;
  }
  uint32_t Version = R.u32();
  uint32_t FileKind = R.u32();
  uint64_t FileCompat = R.u64();
  uint32_t NumSections = R.u32();
  uint32_t HeaderCrc = R.u32();
  if (!R.ok()) {
    Err = "truncated snapshot header";
    return LoadStatus::Corrupt;
  }
  if (crc32(Data, HeaderSize - 4) != HeaderCrc) {
    Err = "snapshot header checksum mismatch";
    return LoadStatus::Corrupt;
  }
  if (Version != FormatVersion) {
    Err = "unsupported snapshot format version " + std::to_string(Version);
    return LoadStatus::BadFormat;
  }
  if (FileKind != CheckpointKind) {
    Err = "snapshot holds payload kind " + std::to_string(FileKind) +
          ", expected " + std::to_string(CheckpointKind) + " (checkpoint)";
    return LoadStatus::BadFormat;
  }
  if (FileCompat != CompatKey) {
    Err = "snapshot compatibility key mismatch (stale program, options or "
          "target image)";
    return LoadStatus::CompatMismatch;
  }
  if (NumSections > MaxSections) {
    Err = "implausible section count " + std::to_string(NumSections);
    return LoadStatus::Corrupt;
  }

  std::vector<Section> Sections;
  Sections.reserve(NumSections);
  for (uint32_t I = 0; I != NumSections; ++I) {
    uint32_t Tag = R.u32();
    uint64_t PayloadLen = R.u64();
    uint32_t PayloadCrc = R.u32();
    if (!R.ok() || PayloadLen > R.remaining()) {
      Err = "truncated snapshot section " + std::to_string(I);
      return LoadStatus::Corrupt;
    }
    Section S{Tag, R.view(static_cast<size_t>(PayloadLen)),
              static_cast<size_t>(PayloadLen)};
    if (crc32(S.Data, S.Len) != PayloadCrc) {
      Err = "snapshot section " + std::to_string(I) + " checksum mismatch";
      return LoadStatus::Corrupt;
    }
    Sections.push_back(S);
  }
  if (!R.atEnd()) {
    Err = "trailing bytes after final snapshot section";
    return LoadStatus::Corrupt;
  }
  Out = std::move(Sections);
  return LoadStatus::Ok;
}

bool writeFileBytes(const std::string &Path, const std::vector<uint8_t> &Bytes,
                    std::string &Err) {
  std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE *File = std::fopen(Tmp.c_str(), "wb");
  if (!File) {
    Err = "cannot create '" + Tmp + "': " + std::strerror(errno);
    return false;
  }
  bool Ok = Bytes.empty() ||
            std::fwrite(Bytes.data(), 1, Bytes.size(), File) == Bytes.size();
  Ok = std::fclose(File) == 0 && Ok;
  if (!Ok) {
    std::remove(Tmp.c_str());
    Err = "short write to '" + Tmp + "'";
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = "cannot rename '" + Tmp + "' to '" + Path +
          "': " + std::strerror(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out,
                   std::string &Err) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Err = "cannot open '" + Path + "'";
    return false;
  }
  struct stat St;
  if (::fstat(::fileno(File), &St) != 0 || !S_ISREG(St.st_mode)) {
    std::fclose(File);
    Err = "'" + Path + "' is not a regular file";
    return false;
  }
  std::vector<uint8_t> Bytes(static_cast<size_t>(St.st_size));
  size_t N =
      Bytes.empty() ? 0 : std::fread(Bytes.data(), 1, Bytes.size(), File);
  bool ReadOk = std::ferror(File) == 0;
  std::fclose(File);
  if (!ReadOk) {
    Err = "read error on '" + Path + "'";
    return false;
  }
  // A file that shrank since it was sized reads short; the container's
  // framing then rejects it as truncated.
  Bytes.resize(N);
  Out = std::move(Bytes);
  return true;
}

} // namespace snapshot
} // namespace facile
