//===- test_store.cpp - Content-addressed mmap-shared cache store ------------===//
//
// The store subsystem's contract, exercised end to end: a promoted action
// cache comes back bit-identical through a read-only mapping (same
// replayed results as a loaded saved cache), generations pick
// the newest compatible file, every corruption is a diagnosed cold start,
// N consumers share one mapping, and — the point of the design — two
// independent processes over one store file compute identical digests
// while the base mapping stays PROT_READ.
//
//===----------------------------------------------------------------------===//

#include "src/sims/SimHarness.h"
#include "src/snapshot/Serializer.h"
#include "src/store/CacheStore.h"
#include "src/support/Hashing.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace facile;
using namespace facile::sims;

namespace {

workload::WorkloadSpec testSpec() {
  workload::WorkloadSpec Spec = *workload::findSpec("compress");
  Spec.DataKWords = 2;
  return Spec;
}

constexpr uint64_t kBudget = 300'000;

void removeTree(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

/// A per-test store directory under gtest's temp root (promote() creates
/// it on first write).
std::string freshDir(const char *Name) {
  std::string D = ::testing::TempDir() + "facile_store_" + Name + "_" +
                  std::to_string(static_cast<long long>(::getpid()));
  removeTree(D);
  return D;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Bytes;
  std::fseek(F, 0, SEEK_END);
  long N = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  Bytes.resize(N > 0 ? static_cast<size_t>(N) : 0);
  if (!Bytes.empty() && std::fread(Bytes.data(), 1, Bytes.size(), F) !=
                            Bytes.size())
    Bytes.clear();
  std::fclose(F);
  return Bytes;
}

bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  return std::fclose(F) == 0 && Ok;
}

/// Finds the /proc/self/maps permission string of the first mapping whose
/// path contains \p PathSub. Empty when not mapped.
std::string mappingPerms(const std::string &PathSub) {
  std::FILE *F = std::fopen("/proc/self/maps", "r");
  if (!F)
    return "";
  char Line[1024];
  std::string Perms;
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strstr(Line, PathSub.c_str())) {
      char Addr[64], P[8];
      if (std::sscanf(Line, "%63s %7s", Addr, P) == 2)
        Perms = P;
      break;
    }
  }
  std::fclose(F);
  return Perms;
}

} // namespace

//===----------------------------------------------------------------------===//
// Promote / lookup / attach round trip
//===----------------------------------------------------------------------===//

TEST(CacheStore, PromoteLookupAttachRoundTrip) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);

  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("roundtrip");
  store::CacheStoreDir Store(Dir);
  uint64_t Gen = 0;
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, &Gen, &Err)) << Err;
  EXPECT_EQ(Gen, 1u);

  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::shared_ptr<const store::StoreMap> Map = Store.lookup(CK, NA, &Err);
  ASSERT_TRUE(Map) << Err;
  EXPECT_EQ(Map->compatKey(), CK);
  EXPECT_EQ(Map->generation(), 1u);
  EXPECT_EQ(Map->numActions(), NA);
  EXPECT_GT(Map->arenas().NumNodes, 0u);
  EXPECT_GT(Map->arenas().NumKeys, 0u);
  EXPECT_GT(Map->mappedBytes(), size_t(64));

  // A store-backed run replays the builder's work and finishes exactly
  // like the cold run.
  FacileSim Warm(SimKind::OutOfOrder, Image);
  ASSERT_TRUE(Warm.attachStore(Store, &Err)) << Err;
  EXPECT_TRUE(Warm.snapshotStats().CacheLoaded);
  EXPECT_GT(Warm.snapshotStats().CacheEntriesLoaded, 0u);
  EXPECT_TRUE(Warm.sim().cacheBaseAttached());
  Warm.run(kBudget);
  EXPECT_GT(Warm.sim().stats().FastSteps, 0u);
  EXPECT_EQ(Warm.sim().memory().digest(), Cold.sim().memory().digest());
  EXPECT_EQ(Warm.sim().stats().RetiredTotal, Cold.sim().stats().RetiredTotal);
  EXPECT_EQ(Warm.sim().stats().Cycles, Cold.sim().stats().Cycles);
  removeTree(Dir);
}

TEST(CacheStore, WriteStoreFileIsDeterministic) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  rt::ActionCache::FlatImage Img =
      Builder.sim().cache().compactImage();
  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());

  std::vector<uint8_t> A = store::buildStoreImage(Img, CK, NA, 3);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, store::buildStoreImage(Img, CK, NA, 3));
  // The saved-cache path builds the same image, generation 0.
  EXPECT_EQ(Builder.cacheBytes(), store::buildStoreImage(Img, CK, NA, 0));
}

TEST(CacheStore, GenerationsPickLatest) {
  EXPECT_EQ(store::CacheStoreDir::fileName(0xabcULL, 7),
            "ac-0000000000000abc-g000007.facstore");

  isa::TargetImage Image = workload::generate(testSpec(), 2);
  std::string Dir = freshDir("gens");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  uint64_t Gen = 0;

  FacileSim B1(SimKind::OutOfOrder, Image);
  B1.run(100'000);
  ASSERT_TRUE(B1.promoteStore(Store, &Gen, &Err)) << Err;
  EXPECT_EQ(Gen, 1u);
  FacileSim B2(SimKind::OutOfOrder, Image);
  B2.run(kBudget);
  ASSERT_TRUE(B2.promoteStore(Store, &Gen, &Err)) << Err;
  EXPECT_EQ(Gen, 2u);

  uint64_t CK = B1.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(B1.sim().actionCount());
  std::shared_ptr<const store::StoreMap> Map = Store.lookup(CK, NA, &Err);
  ASSERT_TRUE(Map) << Err;
  EXPECT_EQ(Map->generation(), 2u);
  // Both generations coexist on disk — live mappings of older ones stay
  // valid after a promote.
  EXPECT_FALSE(readFileBytes(Dir + "/" +
                             store::CacheStoreDir::fileName(CK, 1)).empty());
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Corruption: every flipped byte is a diagnosed cold start
//===----------------------------------------------------------------------===//

TEST(CacheStore, CorruptionIsRejected) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("corrupt");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::string Path = Dir + "/" + store::CacheStoreDir::fileName(CK, 1);
  std::vector<uint8_t> Good = readFileBytes(Path);
  ASSERT_GT(Good.size(), size_t(512));

  // Magic, version, first arena byte (CRC-covered), last table byte.
  for (size_t Ofs : {size_t(0), size_t(9), size_t(320), Good.size() - 1}) {
    SCOPED_TRACE("flip at offset " + std::to_string(Ofs));
    std::vector<uint8_t> Bad = Good;
    Bad[Ofs] ^= 0x40;
    ASSERT_TRUE(writeFileBytes(Path, Bad));
    store::CacheStoreDir Fresh(Dir); // fresh handle: no cached mapping
    std::shared_ptr<const store::StoreMap> Map = Fresh.lookup(CK, NA, &Err);
    EXPECT_FALSE(Map);
    EXPECT_FALSE(Err.empty());
  }

  // Harness path: a corrupt store is a counted, diagnosed cold fallback,
  // and the simulation still computes the cold result.
  store::CacheStoreDir Fresh(Dir);
  FacileSim Victim(SimKind::OutOfOrder, Image);
  EXPECT_FALSE(Victim.attachStore(Fresh, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Victim.snapshotStats().CorruptInputs, 1u);
  EXPECT_EQ(Victim.snapshotStats().ColdFallbacks, 1u);
  EXPECT_FALSE(Victim.snapshotStats().CacheLoaded);
  Victim.run(kBudget);
  EXPECT_EQ(Victim.sim().memory().digest(), Cold.sim().memory().digest());

  // Restoring the original bytes restores the warm path.
  ASSERT_TRUE(writeFileBytes(Path, Good));
  store::CacheStoreDir Healed(Dir);
  EXPECT_TRUE(Healed.lookup(CK, NA, &Err) != nullptr) << Err;
  removeTree(Dir);
}

namespace {

/// A hand-built one-entry image whose 3-byte key pool and single
/// key-to-entry word leave alignment gaps after their sections.
rt::ActionCache::FlatImage gappedImage() {
  rt::ActionCache::FlatImage Img;
  Img.KeyPool = {'a', 'b', 'c'};
  rt::ActionCache::KeyRecord K;
  K.Len = 3;
  K.Hash = hashKey(Img.KeyPool.data(), 3);
  Img.Keys = {K};
  Img.KeyToEntry = {0};
  rt::CacheEntry E;
  E.Head = 0;
  E.Key = 0;
  Img.Entries = {E};
  rt::ActionNode N;
  N.ActionId = 0;
  N.K = rt::ActionNode::Kind::End;
  N.DataLen = 1;
  N.NextKey = 0;
  Img.Nodes = {N};
  Img.Seals = {0x5eal};
  Img.Data = {42};
  return Img;
}

} // namespace

TEST(CacheStore, EveryHeaderTableAndGapByteIsChecked) {
  constexpr uint64_t CK = 0x1234;
  const std::vector<uint8_t> Good =
      store::buildStoreImage(gappedImage(), CK, /*NumActions=*/1, 7);
  store::StoreImage Out;
  std::string Err;
  ASSERT_EQ(store::parseStoreImage(Good.data(), Good.size(), CK, 1, Out, Err),
            snapshot::LoadStatus::Ok)
      << Err;
  EXPECT_EQ(Out.Generation, 7u);
  EXPECT_EQ(Out.Arenas.NumNodes, 1u);

  // Every header and section-table byte — CRC-covered, reserved or
  // describing the layout — plus every alignment gap between sections.
  std::vector<size_t> Positions;
  for (size_t I = 0; I != 64 + 8 * 32; ++I)
    Positions.push_back(I);
  size_t End = 64 + 8 * 32;
  for (size_t S = 0; S != 8; ++S) {
    uint64_t Ofs, Len;
    std::memcpy(&Ofs, Good.data() + 64 + S * 32 + 8, 8);
    std::memcpy(&Len, Good.data() + 64 + S * 32 + 16, 8);
    for (size_t G = End; G < Ofs; ++G)
      Positions.push_back(G);
    End = Ofs + Len;
  }
  ASSERT_EQ(End, Good.size());
  ASSERT_GT(Positions.size(), size_t(64 + 8 * 32)) << "no gap to flip";
  for (size_t Pos : Positions) {
    std::vector<uint8_t> Bad = Good;
    Bad[Pos] ^= 0x01;
    EXPECT_NE(store::parseStoreImage(Bad.data(), Bad.size(), CK, 1, Out, Err),
              snapshot::LoadStatus::Ok)
        << "flipped byte " << Pos << " parsed";
  }

  // A trailing byte, and the image viewed at a misaligned address.
  std::vector<uint8_t> Long = Good;
  Long.push_back(0);
  EXPECT_NE(store::parseStoreImage(Long.data(), Long.size(), CK, 1, Out, Err),
            snapshot::LoadStatus::Ok);
  std::vector<uint8_t> Shifted(Good.size() + 1);
  std::memcpy(Shifted.data() + 1, Good.data(), Good.size());
  EXPECT_NE(store::parseStoreImage(Shifted.data() + 1, Good.size(), CK, 1, Out,
                                   Err),
            snapshot::LoadStatus::Ok);
  EXPECT_EQ(Err, "store image is not 8-byte aligned in memory");
}

TEST(CacheStore, PromotedFileWithReservedBytesSetIsRejected) {
  // Header byte 50 and the two pad words of section-table entry 0 are
  // outside every CRC; a promoted file with any of them set is corrupt.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  std::string Dir = freshDir("reserved");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  std::string Path =
      Dir + "/" + store::CacheStoreDir::fileName(Builder.sim().compatKey(), 1);
  std::vector<uint8_t> Good = readFileBytes(Path);
  ASSERT_GT(Good.size(), size_t(320));
  for (size_t Ofs : {size_t(50), size_t(68), size_t(92)}) {
    SCOPED_TRACE("flip at offset " + std::to_string(Ofs));
    std::vector<uint8_t> Bad = Good;
    Bad[Ofs] ^= 0x40;
    ASSERT_TRUE(writeFileBytes(Path, Bad));
    store::CacheStoreDir Fresh(Dir);
    FacileSim Victim(SimKind::OutOfOrder, Image);
    EXPECT_FALSE(Victim.attachStore(Fresh, &Err));
    EXPECT_FALSE(Err.empty());
    EXPECT_EQ(Victim.snapshotStats().CorruptInputs, 1u);
  }
  removeTree(Dir);
}

TEST(CacheStore, OldVersionIsAFormatMismatch) {
  // A well-formed store file of the previous format version (header CRC
  // recomputed, so only the version differs) is rejected by the version
  // check, not by a CRC or structural check, and the consumer falls back
  // to a cold start.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("oldversion");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::string Path = Dir + "/" + store::CacheStoreDir::fileName(CK, 1);
  std::vector<uint8_t> Old = readFileBytes(Path);
  ASSERT_GT(Old.size(), size_t(64));
  uint32_t Prev = store::StoreVersion - 1;
  std::memcpy(Old.data() + 8, &Prev, 4);
  uint32_t Crc = snapshot::crc32(Old.data(), 44);
  std::memcpy(Old.data() + 44, &Crc, 4);
  ASSERT_TRUE(writeFileBytes(Path, Old));

  const std::string Want =
      "unsupported store format version " + std::to_string(Prev);
  {
    store::CacheStoreDir Fresh(Dir);
    EXPECT_FALSE(Fresh.lookup(CK, NA, &Err));
    EXPECT_EQ(Err, Want);
  }
  store::CacheStoreDir Fresh(Dir);
  FacileSim Victim(SimKind::OutOfOrder, Image);
  EXPECT_FALSE(Victim.attachStore(Fresh, &Err));
  EXPECT_NE(Err.find(Want), std::string::npos) << Err;
  EXPECT_EQ(Victim.snapshotStats().ColdFallbacks, 1u);
  EXPECT_FALSE(Victim.snapshotStats().CacheLoaded);
  EXPECT_FALSE(Victim.sim().cacheBaseAttached());
  Victim.run(kBudget);
  EXPECT_EQ(Victim.sim().memory().digest(), Cold.sim().memory().digest());
  removeTree(Dir);
}

TEST(CacheStore, AttachRules) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  std::string Dir = freshDir("rules");

  // A store miss is clean: no error text, no corrupt/fallback counters.
  {
    store::CacheStoreDir Empty(Dir);
    FacileSim Sim(SimKind::OutOfOrder, Image);
    std::string Err = "stale";
    EXPECT_FALSE(Sim.attachStore(Empty, &Err));
    EXPECT_TRUE(Err.empty());
    EXPECT_EQ(Sim.snapshotStats().CorruptInputs, 0u);
    EXPECT_EQ(Sim.snapshotStats().ColdFallbacks, 0u);
  }

  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

  // Memoization off changes the compat key, so the promoted file can never
  // match: a clean miss, not an error — the base would never be read.
  {
    rt::Simulation::Options Opts;
    Opts.Memoize = false;
    FacileSim Sim(SimKind::OutOfOrder, Image, Opts);
    Err = "stale";
    EXPECT_FALSE(Sim.attachStore(Store, &Err));
    EXPECT_TRUE(Err.empty());
    EXPECT_FALSE(Sim.sim().cacheBaseAttached());
  }
  // Attaching replaces whatever the cache holds: a warmed cache drops its
  // own recordings for the base and still finishes like a cold run.
  {
    FacileSim Cold(SimKind::OutOfOrder, Image);
    Cold.run(kBudget);
    FacileSim Sim(SimKind::OutOfOrder, Image);
    Sim.run(10'000);
    ASSERT_GT(Sim.sim().cache().overlayNodeCount(), 0u);
    EXPECT_TRUE(Sim.attachStore(Store, &Err)) << Err;
    EXPECT_TRUE(Sim.sim().cacheBaseAttached());
    EXPECT_EQ(Sim.sim().cache().overlayNodeCount(), 0u);
    EXPECT_EQ(Sim.sim().cache().entryCount(),
              Sim.snapshotStats().CacheEntriesLoaded);
    Sim.run(kBudget);
    EXPECT_EQ(Sim.sim().memory().digest(), Cold.sim().memory().digest());
    EXPECT_EQ(Sim.sim().stats().RetiredTotal, Cold.sim().stats().RetiredTotal);
    EXPECT_EQ(Sim.sim().stats().Cycles, Cold.sim().stats().Cycles);
  }
  removeTree(Dir);
}

TEST(CacheStore, LoadingACacheReleasesTheStoreMapping) {
  // A loaded image replaces an attached store base outright: the mapping
  // is unpinned and the store metrics stop reporting its generation.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  std::string Dir = freshDir("release");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

  FacileSim Sim(SimKind::OutOfOrder, Image);
  ASSERT_TRUE(Sim.attachStore(Store, &Err)) << Err;
  ASSERT_NE(Sim.storeMapping(), nullptr);
  EXPECT_EQ(Store.mappedCount(), size_t(1));
  EXPECT_NE(Sim.statsJson().find(R"("store":{"attached":true,"generation":1)"),
            std::string::npos);

  ASSERT_TRUE(Sim.loadCacheBytes(Builder.cacheBytes(), &Err)) << Err;
  EXPECT_TRUE(Sim.sim().cacheBaseAttached());
  EXPECT_EQ(Sim.storeMapping(), nullptr);
  EXPECT_EQ(Store.mappedCount(), size_t(0));
  EXPECT_NE(Sim.statsJson().find(R"("store":{"attached":false,"generation":0)"),
            std::string::npos);

  Sim.run(kBudget);
  EXPECT_GT(Sim.sim().stats().FastSteps, 0u);
  EXPECT_EQ(Sim.sim().memory().digest(), Cold.sim().memory().digest());
  EXPECT_EQ(Sim.sim().stats().RetiredTotal, Cold.sim().stats().RetiredTotal);
  EXPECT_EQ(Sim.sim().stats().Cycles, Cold.sim().stats().Cycles);
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Sharing: one mapping, many consumers, read-only base
//===----------------------------------------------------------------------===//

TEST(CacheStore, ManySimsShareOneMapping) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("share");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

  std::vector<std::unique_ptr<FacileSim>> Sims;
  for (int I = 0; I != 4; ++I) {
    auto Sim = std::make_unique<FacileSim>(SimKind::OutOfOrder, Image);
    ASSERT_TRUE(Sim->attachStore(Store, &Err)) << Err;
    Sims.push_back(std::move(Sim));
  }
  // One StoreMap object behind all four sims.
  EXPECT_EQ(Store.mappedCount(), size_t(1));
  for (int I = 1; I != 4; ++I)
    EXPECT_EQ(Sims[I]->storeMapping(), Sims[0]->storeMapping());

  // The mapping is read-only in this process's address space: new
  // recordings land in private overlays, never in the shared base.
  std::string Perms = mappingPerms(".facstore");
  ASSERT_FALSE(Perms.empty()) << "store file not found in /proc/self/maps";
  EXPECT_EQ(Perms[0], 'r');
  EXPECT_EQ(Perms[1], '-') << "store mapping is writable: " << Perms;

  for (auto &Sim : Sims) {
    Sim->run(kBudget);
    EXPECT_GT(Sim->sim().stats().FastSteps, 0u);
    EXPECT_EQ(Sim->sim().memory().digest(), Cold.sim().memory().digest());
  }
  removeTree(Dir);
}

TEST(CacheStore, CrossProcessRunsAreBitIdentical) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  uint64_t ColdDigest = Cold.sim().memory().digest();

  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  std::string Dir = freshDir("fork");
  {
    store::CacheStoreDir Store(Dir);
    std::string Err;
    ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  }

  // Two independent processes map the same store file and run the same
  // budget; each reports (attach ok, digest, base read-only in its own
  // /proc/self/maps) over a pipe.
  struct Report {
    uint8_t AttachOk = 0;
    uint8_t ReadOnly = 0;
    uint64_t Digest = 0;
    uint64_t FastSteps = 0;
  };
  Report Reports[2];
  pid_t Pids[2];
  for (int I = 0; I != 2; ++I) {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      ::close(Fds[0]);
      Report R;
      store::CacheStoreDir Store(Dir);
      FacileSim Sim(SimKind::OutOfOrder, Image);
      std::string Err;
      if (Sim.attachStore(Store, &Err)) {
        R.AttachOk = 1;
        Sim.run(kBudget);
        R.Digest = Sim.sim().memory().digest();
        R.FastSteps = Sim.sim().stats().FastSteps;
        std::string Perms = mappingPerms(".facstore");
        R.ReadOnly = Perms.size() > 1 && Perms[0] == 'r' && Perms[1] == '-';
      }
      ssize_t N = ::write(Fds[1], &R, sizeof(R));
      ::close(Fds[1]);
      ::_exit(N == sizeof(R) ? 0 : 1);
    }
    ::close(Fds[1]);
    ssize_t N = ::read(Fds[0], &Reports[I], sizeof(Reports[I]));
    ::close(Fds[0]);
    ASSERT_EQ(N, static_cast<ssize_t>(sizeof(Reports[I])));
    Pids[I] = Pid;
  }
  for (int I = 0; I != 2; ++I) {
    int Status = -1;
    ASSERT_EQ(::waitpid(Pids[I], &Status, 0), Pids[I]);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
    SCOPED_TRACE("child " + std::to_string(I));
    EXPECT_EQ(Reports[I].AttachOk, 1);
    EXPECT_EQ(Reports[I].ReadOnly, 1);
    EXPECT_GT(Reports[I].FastSteps, 0u);
    EXPECT_EQ(Reports[I].Digest, ColdDigest);
  }
  EXPECT_EQ(Reports[0].Digest, Reports[1].Digest);
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Generation garbage collection
//===----------------------------------------------------------------------===//

TEST(CacheStore, GcKeepsNewestGenerationsPerKey) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("gc");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  uint64_t CK = Builder.sim().compatKey();
  for (uint64_t G = 1; G <= 3; ++G)
    EXPECT_EQ(::access((Dir + "/" + store::CacheStoreDir::fileName(CK, G))
                           .c_str(),
                       F_OK),
              0);

  // keep=2 collects only the oldest; keep=1 (and the 0 alias) leaves
  // exactly the newest, which must still be mappable afterwards.
  EXPECT_EQ(Store.gc(2, &Err), 1u) << Err;
  EXPECT_TRUE(Err.empty());
  EXPECT_NE(::access((Dir + "/" + store::CacheStoreDir::fileName(CK, 1))
                         .c_str(),
                     F_OK),
            0);
  EXPECT_EQ(Store.gc(0, &Err), 1u) << Err; // 0 means keep the newest
  EXPECT_EQ(::access((Dir + "/" + store::CacheStoreDir::fileName(CK, 3))
                         .c_str(),
                     F_OK),
            0);
  EXPECT_EQ(Store.gc(1, &Err), 0u); // already collected: idempotent

  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::shared_ptr<const store::StoreMap> Map = Store.lookup(CK, NA, &Err);
  ASSERT_TRUE(Map) << Err;
  EXPECT_EQ(Map->generation(), 3u);
  Map.reset();
  removeTree(Dir);
}

TEST(CacheStore, GcIsSafeWhileGenerationIsMapped) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("gc_mapped");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

  // Attach generation 1, then promote a newer one and collect: POSIX keeps
  // the mapped pages alive after the unlink, so the attached run must
  // finish exactly like the cold one even though its file is gone.
  FacileSim Warm(SimKind::OutOfOrder, Image);
  ASSERT_TRUE(Warm.attachStore(Store, &Err)) << Err;
  EXPECT_EQ(Warm.storeMapping()->generation(), 1u);
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  EXPECT_EQ(Store.gc(1, &Err), 1u) << Err;
  uint64_t CK = Builder.sim().compatKey();
  EXPECT_NE(::access((Dir + "/" + store::CacheStoreDir::fileName(CK, 1))
                         .c_str(),
                     F_OK),
            0);

  Warm.run(kBudget);
  EXPECT_GT(Warm.sim().stats().FastSteps, 0u);
  EXPECT_EQ(Warm.sim().memory().digest(), Cold.sim().memory().digest());
  removeTree(Dir);
}

TEST(CacheStore, GcOnMissingDirectoryIsANoOp) {
  store::CacheStoreDir Store("/nonexistent/facile-gc-nowhere");
  std::string Err;
  EXPECT_EQ(Store.gc(1, &Err), 0u);
  EXPECT_TRUE(Err.empty());
}
