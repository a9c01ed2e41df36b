//===- test_store.cpp - Content-addressed mmap-shared cache store ------------===//
//
// The store subsystem's contract, exercised end to end: a promoted action
// cache comes back bit-identical through a read-only mapping (same
// replayed results as the private deserialization path), generations pick
// the newest compatible file, every corruption is a diagnosed cold start,
// N consumers share one mapping, and — the point of the design — two
// independent processes over one store file compute identical digests
// while the base mapping stays PROT_READ.
//
//===----------------------------------------------------------------------===//

#include "src/sims/SimHarness.h"
#include "src/snapshot/Serializer.h"
#include "src/store/CacheStore.h"
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

  std::string A = ::testing::TempDir() + "facile_store_det_a.facstore";
  std::string B = ::testing::TempDir() + "facile_store_det_b.facstore";
  std::string Err;
  ASSERT_TRUE(store::writeStoreFile(A, Img, CK, NA, 3, Err)) << Err;
  ASSERT_TRUE(store::writeStoreFile(B, Img, CK, NA, 3, Err)) << Err;
  std::vector<uint8_t> BytesA = readFileBytes(A);
  ASSERT_FALSE(BytesA.empty());
  EXPECT_EQ(BytesA, readFileBytes(B));
  std::remove(A.c_str());
  std::remove(B.c_str());
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
  // Attach is before-first-step only: a warmed cache refuses a base.
  {
    FacileSim Sim(SimKind::OutOfOrder, Image);
    Sim.run(10'000);
    EXPECT_FALSE(Sim.attachStore(Store, &Err));
    EXPECT_FALSE(Err.empty());
    EXPECT_FALSE(Sim.sim().cacheBaseAttached());
  }
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
    EXPECT_EQ(Sims[I]->storeMapping().get(), Sims[0]->storeMapping().get());

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
