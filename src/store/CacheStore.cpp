//===- CacheStore.cpp - Content-addressed, mmap-shared cache store ---------===//

#include "src/store/CacheStore.h"

#include "src/snapshot/Serializer.h"
#include "src/support/Hashing.h"

#include <algorithm>
#include <cerrno>
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

/// Header CRC covers everything before the CRC field itself.
constexpr size_t HeaderCrcOfs = 44;

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

struct SectionDesc {
  uint32_t Tag;
  const void *Bytes;
  uint64_t Len;
};

} // namespace

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

bool facile::store::writeStoreFile(const std::string &Path,
                                   const ActionCache::FlatImage &Img,
                                   uint64_t CompatKey, uint32_t NumActions,
                                   uint64_t Generation, std::string &Err) {
  // Stage the nodes with padding bytes forced to zero: the arena is
  // written (and CRC'd) raw, and ActionNode has 3 padding bytes after the
  // kind whose values memcpy would otherwise leak — store files of equal
  // content must be bit-identical.
  std::vector<ActionNode> Nodes(Img.Nodes.size());
  if (!Nodes.empty())
    std::memset(static_cast<void *>(Nodes.data()), 0,
                Nodes.size() * sizeof(ActionNode));
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const ActionNode &S = Img.Nodes[I];
    ActionNode &D = Nodes[I];
    D.ActionId = S.ActionId;
    D.K = S.K;
    D.DataOfs = S.DataOfs;
    D.DataLen = S.DataLen;
    D.Next = S.Next;
    D.OnValue[0] = S.OnValue[0];
    D.OnValue[1] = S.OnValue[1];
    D.NextKey = S.NextKey;
  }
  std::vector<uint32_t> Table = ActionCache::buildProbeTable(Img.Keys);

  const SectionDesc Sections[NumSections] = {
      {SecNodes, Nodes.data(), Nodes.size() * sizeof(ActionNode)},
      {SecSeals, Img.Seals.data(), Img.Seals.size() * 8},
      {SecData, Img.Data.data(), Img.Data.size() * 8},
      {SecKeyPool, Img.KeyPool.data(), Img.KeyPool.size()},
      {SecKeyRecs, Img.Keys.data(),
       Img.Keys.size() * sizeof(ActionCache::KeyRecord)},
      {SecKeyToEntry, Img.KeyToEntry.data(), Img.KeyToEntry.size() * 4},
      {SecEntries, Img.Entries.data(), Img.Entries.size() * sizeof(CacheEntry)},
      {SecKeyTable, Table.data(), Table.size() * 4},
  };

  size_t TableOfs = HeaderSize;
  size_t Total = HeaderSize + NumSections * SectionEntrySize;
  for (const SectionDesc &S : Sections)
    Total = ((Total + 7) & ~size_t(7)) + S.Len;

  std::vector<uint8_t> Buf(Total, 0);
  std::memcpy(Buf.data(), StoreMagic, 8);
  putU32(Buf, 8, StoreVersion);
  putU32(Buf, 12, NumActions);
  putU64(Buf, 16, CompatKey);
  putU64(Buf, 24, Generation);
  putU32(Buf, 40, NumSections);
  putU32(Buf, HeaderCrcOfs, snapshot::crc32(Buf.data(), HeaderCrcOfs));

  size_t Ofs = HeaderSize + NumSections * SectionEntrySize;
  for (uint32_t I = 0; I != NumSections; ++I) {
    const SectionDesc &S = Sections[I];
    Ofs = (Ofs + 7) & ~size_t(7);
    if (S.Len != 0)
      std::memcpy(Buf.data() + Ofs, S.Bytes, S.Len);
    size_t E = TableOfs + I * SectionEntrySize;
    putU32(Buf, E, S.Tag);
    putU64(Buf, E + 8, Ofs);
    putU64(Buf, E + 16, S.Len);
    putU32(Buf, E + 24, snapshot::crc32(Buf.data() + Ofs, S.Len));
    Ofs += S.Len;
  }

  // Temporary file + rename: a reader either sees the old generation set
  // or the complete new file, never a torn write.
  std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    Err = "cannot create '" + Tmp + "': " + std::strerror(errno);
    return false;
  }
  bool Ok = Buf.empty() || std::fwrite(Buf.data(), 1, Buf.size(), F) ==
                               Buf.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    Err = "short write to '" + Tmp + "'";
    ::unlink(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = "cannot rename '" + Tmp + "' to '" + Path +
          "': " + std::strerror(errno);
    ::unlink(Tmp.c_str());
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// StoreMap
//===----------------------------------------------------------------------===//

StoreMap::~StoreMap() {
  if (Map)
    ::munmap(Map, MapLen);
}

namespace {

/// Structural validation of the mapped arenas — the exact rules
/// ActionCache::deserialize enforces on a loaded snapshot, applied to the
/// mapping before any replay walks it.
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
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    Err = "cannot stat '" + Path + "'";
    ::close(Fd);
    return nullptr;
  }
  size_t Len = static_cast<size_t>(St.st_size);
  if (Len < HeaderSize + NumSections * SectionEntrySize) {
    Err = "'" + Path + "' is too small to be a store file";
    ::close(Fd);
    return nullptr;
  }
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
  const uint8_t *B = static_cast<const uint8_t *>(M);

  if (std::memcmp(B, StoreMagic, 8) != 0) {
    Err = "'" + Path + "' is not a FACSTOR1 store file";
    return nullptr;
  }
  if (uint32_t Version = getU32(B + 8); Version != StoreVersion) {
    Err = "unsupported store format version " + std::to_string(Version);
    return nullptr;
  }
  if (snapshot::crc32(B, HeaderCrcOfs) != getU32(B + HeaderCrcOfs)) {
    Err = "store header CRC mismatch";
    return nullptr;
  }
  SM->NumActionsV = getU32(B + 12);
  SM->CompatKeyV = getU64(B + 16);
  SM->GenerationV = getU64(B + 24);
  if (SM->CompatKeyV != CompatKey) {
    Err = "store compatibility key mismatch";
    return nullptr;
  }
  if (SM->NumActionsV != NumActions) {
    Err = "store action count mismatch";
    return nullptr;
  }
  if (getU32(B + 40) != NumSections) {
    Err = "unexpected store section count";
    return nullptr;
  }

  // Locate, bound-check and checksum every section.
  struct Sec {
    uint64_t Ofs = 0, Len = 0;
    bool Seen = false;
  };
  Sec ByTag[NumSections];
  const uint32_t Want[NumSections] = {SecNodes,      SecSeals,   SecData,
                                      SecKeyPool,    SecKeyRecs, SecKeyToEntry,
                                      SecEntries,    SecKeyTable};
  for (uint32_t I = 0; I != NumSections; ++I) {
    const uint8_t *E = B + HeaderSize + I * SectionEntrySize;
    uint32_t Tag = getU32(E);
    uint64_t Ofs = getU64(E + 8);
    uint64_t SLen = getU64(E + 16);
    uint32_t Crc = getU32(E + 24);
    if (Ofs % 8 != 0 || Ofs > Len || SLen > Len - Ofs) {
      Err = "store section out of file bounds";
      return nullptr;
    }
    if (snapshot::crc32(B + Ofs, static_cast<size_t>(SLen)) != Crc) {
      Err = "store section CRC mismatch";
      return nullptr;
    }
    for (uint32_t W = 0; W != NumSections; ++W)
      if (Want[W] == Tag) {
        if (ByTag[W].Seen) {
          Err = "duplicate store section";
          return nullptr;
        }
        ByTag[W] = {Ofs, SLen, true};
      }
  }
  for (uint32_t W = 0; W != NumSections; ++W)
    if (!ByTag[W].Seen) {
      Err = "missing store section";
      return nullptr;
    }

  // Element-size framing, then the arena views.
  const Sec &Nd = ByTag[0], &Sl = ByTag[1], &Dt = ByTag[2], &Kp = ByTag[3],
            &Kr = ByTag[4], &K2 = ByTag[5], &En = ByTag[6], &Kt = ByTag[7];
  if (Nd.Len % sizeof(ActionNode) != 0 ||
      Kr.Len % sizeof(ActionCache::KeyRecord) != 0 ||
      En.Len % sizeof(CacheEntry) != 0 || Dt.Len % 8 != 0 || K2.Len % 4 != 0 ||
      Kt.Len % 4 != 0) {
    Err = "store section length not a multiple of its element size";
    return nullptr;
  }
  uint64_t NumNodes = Nd.Len / sizeof(ActionNode);
  uint64_t NumKeys = Kr.Len / sizeof(ActionCache::KeyRecord);
  uint64_t NumEntries = En.Len / sizeof(CacheEntry);
  if (NumNodes >= ActionNode::NoNode || NumKeys >= NoId ||
      NumEntries >= NoId) {
    Err = "store arena count overflows its id space";
    return nullptr;
  }
  if (Sl.Len != NumNodes * 8) {
    Err = "seal array does not match the node arena";
    return nullptr;
  }
  if (K2.Len != NumKeys * 4) {
    Err = "key-to-entry map does not match the key table";
    return nullptr;
  }

  ActionCache::BaseArenas &A = SM->Arenas;
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

  if (!validateArenas(A, NumActions, Err)) {
    Err = "'" + Path + "': " + Err;
    return nullptr;
  }
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
  if (!writeStoreFile(Dir + "/" + fileName(CompatKey, Gen), Img, CompatKey,
                      NumActions, Gen, E)) {
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
