//===- CacheStore.cpp - Content-addressed, mmap-shared cache store ---------===//

#include "src/store/CacheStore.h"

#include "src/snapshot/Serializer.h"
#include "src/support/Hashing.h"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace facile;
using namespace facile::rt;
using namespace facile::store;

namespace {

constexpr char StoreMagic[8] = {'F', 'A', 'C', 'S', 'T', 'O', 'R', '1'};
constexpr size_t HeaderSize = 64;
constexpr size_t SectionEntrySize = 32;
constexpr uint32_t NumSections = 8;
/// The header and section table; the first section starts here.
constexpr size_t TableEnd = HeaderSize + NumSections * SectionEntrySize;

/// Header CRC covers everything before the CRC field itself.
constexpr size_t HeaderCrcOfs = 44;

/// Section tags in file order.
constexpr uint32_t SectionTags[NumSections] = {
    SecNodes,   SecSeals,      SecData,    SecKeyPool,
    SecKeyRecs, SecKeyToEntry, SecEntries, SecKeyTable};

/// ActionNode's padding between the kind byte and DataOfs: zeroed in every
/// image so images of equal content are bit-identical.
constexpr size_t NodePadOfs =
    offsetof(ActionNode, K) + sizeof(ActionNode::Kind);
constexpr size_t NodePadLen = offsetof(ActionNode, DataOfs) - NodePadOfs;

size_t align8(size_t N) { return (N + 7) & ~size_t(7); }

void putU32(std::vector<uint8_t> &Buf, size_t Ofs, uint32_t V) {
  std::memcpy(Buf.data() + Ofs, &V, 4);
}
void putU64(std::vector<uint8_t> &Buf, size_t Ofs, uint64_t V) {
  std::memcpy(Buf.data() + Ofs, &V, 8);
}
uint32_t getU32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}
uint64_t getU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}
bool allZero(const uint8_t *P, size_t Len) {
  for (size_t I = 0; I != Len; ++I)
    if (P[I] != 0)
      return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
facile::store::buildStoreImage(const ActionCache::FlatImage &Img,
                               uint64_t CompatKey, uint32_t NumActions,
                               uint64_t Generation) {
  std::vector<uint32_t> Table = ActionCache::buildProbeTable(Img.Keys);
  struct SectionDesc {
    const void *Bytes;
    uint64_t Len;
  };
  const SectionDesc Sections[NumSections] = {
      {Img.Nodes.data(), Img.Nodes.size() * sizeof(ActionNode)},
      {Img.Seals.data(), Img.Seals.size() * 8},
      {Img.Data.data(), Img.Data.size() * 8},
      {Img.KeyPool.data(), Img.KeyPool.size()},
      {Img.Keys.data(), Img.Keys.size() * sizeof(ActionCache::KeyRecord)},
      {Img.KeyToEntry.data(), Img.KeyToEntry.size() * 4},
      {Img.Entries.data(), Img.Entries.size() * sizeof(CacheEntry)},
      {Table.data(), Table.size() * 4},
  };

  size_t Total = TableEnd;
  for (const SectionDesc &S : Sections)
    Total = align8(Total) + S.Len;

  std::vector<uint8_t> Buf(Total, 0);
  std::memcpy(Buf.data(), StoreMagic, 8);
  putU32(Buf, 8, StoreVersion);
  putU32(Buf, 12, NumActions);
  putU64(Buf, 16, CompatKey);
  putU64(Buf, 24, Generation);
  putU32(Buf, 40, NumSections);
  putU32(Buf, HeaderCrcOfs, snapshot::crc32(Buf.data(), HeaderCrcOfs));

  size_t Ofs = TableEnd;
  for (uint32_t I = 0; I != NumSections; ++I) {
    const SectionDesc &S = Sections[I];
    Ofs = align8(Ofs);
    if (S.Len != 0)
      std::memcpy(Buf.data() + Ofs, S.Bytes, S.Len);
    if (I == 0)
      for (size_t N = 0; N != Img.Nodes.size(); ++N)
        std::memset(Buf.data() + Ofs + N * sizeof(ActionNode) + NodePadOfs, 0,
                    NodePadLen);
    size_t E = HeaderSize + I * SectionEntrySize;
    putU32(Buf, E, SectionTags[I]);
    putU64(Buf, E + 8, Ofs);
    putU64(Buf, E + 16, S.Len);
    putU32(Buf, E + 24, snapshot::crc32(Buf.data() + Ofs, S.Len));
    Ofs += S.Len;
  }
  return Buf;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Structural validation of the arenas before any replay walks them: every
/// link, span and action id in bounds, key hashes recomputed, key→entry
/// consistent, and the persisted probe table usable as is.
bool validateArenas(const ActionCache::BaseArenas &A, uint32_t NumActions,
                    std::string &Err) {
  for (uint32_t K = 0; K != A.NumKeys; ++K) {
    const ActionCache::KeyRecord &R = A.Keys[K];
    if (static_cast<uint64_t>(R.Ofs) + R.Len > A.KeyPoolBytes) {
      Err = "key span out of pool bounds";
      return false;
    }
    if (R.Hash != hashKey(A.KeyPool + R.Ofs, R.Len)) {
      Err = "key hash mismatch";
      return false;
    }
  }
  for (uint32_t I = 0; I != A.NumNodes; ++I) {
    const ActionNode &N = A.Nodes[I];
    if (N.ActionId < 0 || static_cast<uint32_t>(N.ActionId) >= NumActions) {
      Err = "node action id out of range";
      return false;
    }
    if (static_cast<uint8_t>(N.K) > static_cast<uint8_t>(ActionNode::Kind::End)) {
      Err = "bad node kind";
      return false;
    }
    if (static_cast<uint64_t>(N.DataOfs) + N.DataLen > A.DataWords) {
      Err = "node data span out of pool bounds";
      return false;
    }
    if (N.Next != ActionNode::NoNode && N.Next >= A.NumNodes) {
      Err = "node Next link out of bounds";
      return false;
    }
    for (int V = 0; V != 2; ++V)
      if (N.OnValue[V] != ActionNode::NoNode && N.OnValue[V] >= A.NumNodes) {
        Err = "node OnValue link out of bounds";
        return false;
      }
    if (N.NextKey != NoId && N.NextKey >= A.NumKeys) {
      Err = "node NextKey out of bounds";
      return false;
    }
    if (N.K == ActionNode::Kind::Plain && N.Next == ActionNode::NoNode) {
      Err = "dangling Plain node";
      return false;
    }
  }
  for (uint32_t E = 0; E != A.NumEntries; ++E) {
    const CacheEntry &C = A.Entries[E];
    if (C.Key == NoId || C.Key >= A.NumKeys) {
      Err = "entry key out of bounds";
      return false;
    }
    if (C.Head != ActionNode::NoNode && C.Head >= A.NumNodes) {
      Err = "entry head out of bounds";
      return false;
    }
  }
  for (uint32_t K = 0; K != A.NumKeys; ++K) {
    uint32_t E = A.KeyToEntry[K];
    if (E == NoId)
      continue;
    if (E >= A.NumEntries || A.Entries[E].Key != K) {
      Err = "key-to-entry map inconsistent";
      return false;
    }
  }
  // The persisted probe table: power-of-two sized, slots hold valid key
  // ids, and every key is findable from its hash's home slot (probing is
  // trusted raw on the intern path).
  if (A.TableSize == 0 || (A.TableSize & (A.TableSize - 1)) != 0) {
    Err = "probe table size not a power of two";
    return false;
  }
  for (uint64_t I = 0; I != A.TableSize; ++I)
    if (A.Table[I] != NoId && A.Table[I] >= A.NumKeys) {
      Err = "probe table slot out of bounds";
      return false;
    }
  uint64_t Mask = A.TableSize - 1;
  for (uint32_t K = 0; K != A.NumKeys; ++K) {
    uint64_t I = A.Keys[K].Hash & Mask;
    uint64_t Probes = 0;
    for (;; I = (I + 1) & Mask) {
      if (A.Table[I] == K)
        break;
      if (A.Table[I] == NoId || ++Probes > A.TableSize) {
        Err = "key not findable in probe table";
        return false;
      }
    }
  }
  return true;
}

} // namespace

snapshot::LoadStatus facile::store::parseStoreImage(const uint8_t *B,
                                                   size_t Len,
                                                   uint64_t CompatKey,
                                                   uint32_t NumActions,
                                                   StoreImage &Out,
                                                   std::string &Err) {
  using snapshot::LoadStatus;
  if (Len < 8 || std::memcmp(B, StoreMagic, 8) != 0) {
    Err = "not a FACSTOR1 cache image";
    return LoadStatus::BadFormat;
  }
  if (Len < TableEnd) {
    Err = "truncated store header";
    return LoadStatus::Corrupt;
  }
  // The arenas are viewed in place, so they must sit at their natural
  // alignment; sections are 8-aligned relative to the image base.
  if (reinterpret_cast<uintptr_t>(B) % 8 != 0) {
    Err = "store image is not 8-byte aligned in memory";
    return LoadStatus::Corrupt;
  }
  if (uint32_t Version = getU32(B + 8); Version != StoreVersion) {
    Err = "unsupported store format version " + std::to_string(Version);
    return LoadStatus::BadFormat;
  }
  if (snapshot::crc32(B, HeaderCrcOfs) != getU32(B + HeaderCrcOfs)) {
    Err = "store header CRC mismatch";
    return LoadStatus::Corrupt;
  }
  if (getU64(B + 16) != CompatKey) {
    Err = "store compatibility key mismatch";
    return LoadStatus::CompatMismatch;
  }
  if (getU32(B + 12) != NumActions) {
    Err = "store action count mismatch";
    return LoadStatus::CompatMismatch;
  }
  if (getU32(B + 40) != NumSections) {
    Err = "unexpected store section count";
    return LoadStatus::Corrupt;
  }
  if (!allZero(B + 32, 8) || !allZero(B + 48, HeaderSize - 48)) {
    Err = "nonzero reserved store header bytes";
    return LoadStatus::Corrupt;
  }

  // The section table must describe exactly the writer's layout: the
  // sections in tag order, each at the next 8-aligned offset, zero gaps,
  // zero reserved words and nothing after the last section.
  struct Sec {
    uint64_t Ofs, Len;
  } S[NumSections];
  size_t End = TableEnd;
  for (uint32_t I = 0; I != NumSections; ++I) {
    const uint8_t *E = B + HeaderSize + I * SectionEntrySize;
    if (getU32(E) != SectionTags[I]) {
      Err = "unexpected store section tag";
      return LoadStatus::Corrupt;
    }
    if (!allZero(E + 4, 4) || !allZero(E + 28, 4)) {
      Err = "nonzero reserved store section-table bytes";
      return LoadStatus::Corrupt;
    }
    S[I] = {getU64(E + 8), getU64(E + 16)};
    if (S[I].Ofs != align8(End) || S[I].Ofs > Len ||
        S[I].Len > Len - S[I].Ofs) {
      Err = "store section out of place";
      return LoadStatus::Corrupt;
    }
    if (!allZero(B + End, S[I].Ofs - End)) {
      Err = "nonzero store section padding";
      return LoadStatus::Corrupt;
    }
    if (snapshot::crc32(B + S[I].Ofs, static_cast<size_t>(S[I].Len)) !=
        getU32(E + 24)) {
      Err = "store section CRC mismatch";
      return LoadStatus::Corrupt;
    }
    End = S[I].Ofs + S[I].Len;
  }
  if (End != Len) {
    Err = "trailing bytes after the final store section";
    return LoadStatus::Corrupt;
  }

  // Element-size framing, then the arena views.
  const Sec &Nd = S[0], &Sl = S[1], &Dt = S[2], &Kp = S[3], &Kr = S[4],
            &K2 = S[5], &En = S[6], &Kt = S[7];
  if (Nd.Len % sizeof(ActionNode) != 0 ||
      Kr.Len % sizeof(ActionCache::KeyRecord) != 0 ||
      En.Len % sizeof(CacheEntry) != 0 || Dt.Len % 8 != 0 || K2.Len % 4 != 0 ||
      Kt.Len % 4 != 0) {
    Err = "store section length not a multiple of its element size";
    return LoadStatus::Corrupt;
  }
  uint64_t NumNodes = Nd.Len / sizeof(ActionNode);
  uint64_t NumKeys = Kr.Len / sizeof(ActionCache::KeyRecord);
  uint64_t NumEntries = En.Len / sizeof(CacheEntry);
  if (NumNodes >= ActionNode::NoNode || NumKeys >= NoId ||
      NumEntries >= NoId) {
    Err = "store arena count overflows its id space";
    return LoadStatus::Corrupt;
  }
  if (Sl.Len != NumNodes * 8) {
    Err = "seal array does not match the node arena";
    return LoadStatus::Corrupt;
  }
  if (K2.Len != NumKeys * 4) {
    Err = "key-to-entry map does not match the key table";
    return LoadStatus::Corrupt;
  }

  ActionCache::BaseArenas A;
  A.Nodes = reinterpret_cast<const ActionNode *>(B + Nd.Ofs);
  A.NumNodes = static_cast<uint32_t>(NumNodes);
  A.Seals = reinterpret_cast<const uint64_t *>(B + Sl.Ofs);
  A.Data = reinterpret_cast<const int64_t *>(B + Dt.Ofs);
  A.DataWords = Dt.Len / 8;
  A.KeyPool = reinterpret_cast<const char *>(B + Kp.Ofs);
  A.KeyPoolBytes = Kp.Len;
  A.Keys = reinterpret_cast<const ActionCache::KeyRecord *>(B + Kr.Ofs);
  A.NumKeys = static_cast<uint32_t>(NumKeys);
  A.Table = reinterpret_cast<const uint32_t *>(B + Kt.Ofs);
  A.TableSize = Kt.Len / 4;
  A.Entries = reinterpret_cast<const CacheEntry *>(B + En.Ofs);
  A.NumEntries = static_cast<uint32_t>(NumEntries);
  A.KeyToEntry = reinterpret_cast<const uint32_t *>(B + K2.Ofs);
  if (!validateArenas(A, NumActions, Err))
    return LoadStatus::Corrupt;
  Out.Arenas = A;
  Out.Generation = getU64(B + 24);
  return LoadStatus::Ok;
}

//===----------------------------------------------------------------------===//
// StoreMap
//===----------------------------------------------------------------------===//

StoreMap::~StoreMap() {
  if (Map)
    ::munmap(Map, MapLen);
}

std::shared_ptr<const StoreMap> StoreMap::open(const std::string &Path,
                                               uint64_t CompatKey,
                                               uint32_t NumActions,
                                               std::string &Err) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    Err = "cannot open '" + Path + "': " + std::strerror(errno);
    return nullptr;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size <= 0) {
    Err = "'" + Path + "' is empty or cannot be read";
    ::close(Fd);
    return nullptr;
  }
  size_t Len = static_cast<size_t>(St.st_size);
  void *M = ::mmap(nullptr, Len, PROT_READ, MAP_SHARED, Fd, 0);
  ::close(Fd); // the mapping keeps the file alive
  if (M == MAP_FAILED) {
    Err = "cannot map '" + Path + "': " + std::strerror(errno);
    return nullptr;
  }

  // From here every failure unmaps via the owning object.
  std::shared_ptr<StoreMap> SM(new StoreMap());
  SM->Map = M;
  SM->MapLen = Len;
  SM->FilePath = Path;
  if (parseStoreImage(static_cast<const uint8_t *>(M), Len, CompatKey,
                      NumActions, SM->Image, Err) != snapshot::LoadStatus::Ok)
    return nullptr;
  SM->CompatKeyV = CompatKey;
  SM->NumActionsV = NumActions;
  return SM;
}

//===----------------------------------------------------------------------===//
// CacheStoreDir
//===----------------------------------------------------------------------===//

std::string CacheStoreDir::fileName(uint64_t CompatKey, uint64_t Generation) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "ac-%016llx-g%06llu.facstore",
                static_cast<unsigned long long>(CompatKey),
                static_cast<unsigned long long>(Generation));
  return Buf;
}

namespace {

/// Parses "ac-<16 hex>-g<decimal>.facstore". Returns false otherwise.
bool parseFileName(const char *Name, uint64_t &Key, uint64_t &Gen) {
  if (std::strncmp(Name, "ac-", 3) != 0)
    return false;
  char *End = nullptr;
  Key = std::strtoull(Name + 3, &End, 16);
  if (End != Name + 19 || std::strncmp(End, "-g", 2) != 0)
    return false;
  Gen = std::strtoull(End + 2, &End, 10);
  return End != nullptr && std::strcmp(End, ".facstore") == 0;
}

} // namespace

uint64_t CacheStoreDir::latestGeneration(uint64_t CompatKey) const {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  uint64_t Latest = 0;
  while (struct dirent *E = ::readdir(D)) {
    uint64_t Key, Gen;
    if (parseFileName(E->d_name, Key, Gen) && Key == CompatKey)
      Latest = std::max(Latest, Gen);
  }
  ::closedir(D);
  return Latest;
}

std::shared_ptr<const StoreMap>
CacheStoreDir::lookup(uint64_t CompatKey, uint32_t NumActions,
                      std::string *Err) {
  if (Err)
    Err->clear();
  // The generation readdir surfaces can be unlinked by a concurrent gc
  // sweep before we open it (promote + sweep on another thread retires
  // old generations). When the file is simply gone, rescan: either a
  // newer generation exists or the key is a clean miss now. Bounded so a
  // pathological promote/sweep storm cannot spin us forever.
  for (int Attempt = 0; Attempt != 4; ++Attempt) {
    uint64_t Gen = latestGeneration(CompatKey);
    if (Gen == 0)
      return nullptr; // clean miss: no store for this configuration yet
    std::string Name = fileName(CompatKey, Gen);
    std::string Path = Dir + "/" + Name;

    std::string OpenErr;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Maps.find(Name);
      if (It != Maps.end())
        if (std::shared_ptr<const StoreMap> M = It->second.lock())
          return M;
      std::shared_ptr<const StoreMap> M =
          StoreMap::open(Path, CompatKey, NumActions, OpenErr);
      if (M) {
        Maps[Name] = M;
        return M;
      }
    }
    if (::access(Path.c_str(), F_OK) != 0 && errno == ENOENT)
      continue; // swept between readdir and open — rescan
    if (Err)
      *Err = OpenErr;
    return nullptr;
  }
  if (Err)
    *Err = "store generations for this key kept vanishing mid-lookup";
  return nullptr;
}

bool CacheStoreDir::promote(const ActionCache::FlatImage &Img,
                            uint64_t CompatKey, uint32_t NumActions,
                            uint64_t *OutGeneration, std::string *Err) {
  if (::mkdir(Dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (Err)
      *Err = "cannot create store directory '" + Dir +
             "': " + std::strerror(errno);
    return false;
  }
  uint64_t Gen = latestGeneration(CompatKey) + 1;
  std::string E;
  // Temporary file + rename: a reader sees the old generation set or the
  // complete new file, never a torn write.
  if (!snapshot::writeFileBytes(
          Dir + "/" + fileName(CompatKey, Gen),
          buildStoreImage(Img, CompatKey, NumActions, Gen), E)) {
    if (Err)
      *Err = E;
    return false;
  }
  if (OutGeneration)
    *OutGeneration = Gen;
  return true;
}

size_t CacheStoreDir::gc(size_t KeepPerKey, std::string *Err) {
  if (Err)
    Err->clear();
  if (KeepPerKey == 0)
    KeepPerKey = 1; // the newest generation is never collected
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    // A store directory that was never created has nothing to collect.
    if (errno != ENOENT && Err)
      *Err = "cannot open store directory '" + Dir +
             "': " + std::strerror(errno);
    return 0;
  }
  std::map<uint64_t, std::vector<uint64_t>> Generations;
  while (struct dirent *E = ::readdir(D)) {
    uint64_t Key, Gen;
    if (parseFileName(E->d_name, Key, Gen))
      Generations[Key].push_back(Gen);
  }
  ::closedir(D);

  size_t Unlinked = 0;
  for (auto &KV : Generations) {
    std::vector<uint64_t> &Gens = KV.second;
    if (Gens.size() <= KeepPerKey)
      continue;
    std::sort(Gens.begin(), Gens.end());
    for (size_t I = 0; I + KeepPerKey < Gens.size(); ++I) {
      std::string Path = Dir + "/" + fileName(KV.first, Gens[I]);
      if (::unlink(Path.c_str()) == 0)
        ++Unlinked;
      else if (errno != ENOENT && Err && Err->empty())
        // ENOENT means a concurrent sweep (the daemon's periodic gc and a
        // client-driven store-gc can overlap) collected this generation
        // between our readdir and the unlink — the file is gone, which is
        // exactly the outcome we wanted, so it is not an error. Neither
        // sweep counts it: Unlinked reports what *this* call removed.
        *Err = "cannot unlink '" + Path + "': " + std::strerror(errno);
    }
  }
  // Drop cache slots whose mappings already expired so a future lookup of
  // a collected name cannot hit a dead weak_ptr.
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto It = Maps.begin(); It != Maps.end();)
    It = It->second.expired() ? Maps.erase(It) : std::next(It);
  return Unlinked;
}

size_t CacheStoreDir::mappedCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (auto It = Maps.begin(); It != Maps.end();) {
    if (It->second.expired()) {
      It = Maps.erase(It);
    } else {
      ++N;
      ++It;
    }
  }
  return N;
}
