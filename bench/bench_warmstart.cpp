//===- bench_warmstart.cpp - Cold vs. warm-start simulation throughput -------===//
//
// The paper's memoization is intra-run: every simulation starts with an
// empty action cache and pays the slow-path cost of discovering its
// working set before fast-forwarding kicks in. The snapshot subsystem
// extends that across runs: a persistent action cache saved by one process
// warm-starts the next, so the expensive record phase is paid once per
// (simulator, workload, options) and amortized over every later run.
//
// This harness quantifies that. Per suite entry, with the OOO simulator:
//
//   cold:    fresh simulator, empty cache, run N instructions (timed);
//   builder: fresh simulator, run N instructions, snapshot its cache
//            (untimed — this is the once-per-configuration cost);
//   warm:    fresh simulator, load the snapshot, run N instructions (timed).
//
// The warm run replays actions memoized by the builder instead of
// re-recording them, so warm/cold throughput measures exactly the benefit
// of cache persistence. Short runs favor warm starts (the record phase is
// a bigger fraction of the run); --scale stretches N to probe the decay.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/sims/SimHarness.h"
#include "src/store/CacheStore.h"
#include "src/workload/Workloads.h"

#include <dirent.h>
#include <memory>
#include <unistd.h>

using namespace facile;
using namespace facile::bench;
using namespace facile::sims;

namespace {

/// Resident set size in KB (0 if /proc is unavailable).
uint64_t rssKb() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE) / 1024);
}

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

/// --store mode: K warm simulations sharing one mmap'd store file versus K
/// private image buffers. Both sides attach the image in place with
/// copy-on-write overlays per sim; the store side maps the promoted cache
/// once, while each buffer-side sim loads (and keeps) its own copy of the
/// saved bytes. Reported per suite entry: wall-clock to bring all K sims
/// to their first replayed instructions, and the RSS the K warm sims
/// added. The JSON keys keep their historical "private" names.
int runStoreMode(double Scale, JsonSink &Sink, size_t K) {
  banner("Shared cache store — one mapping vs. K private image buffers",
         "(beyond the paper: §4.2's cache as a shared, mmap'd artifact)",
         "time and resident memory to warm-start K sims from one store "
         "file vs. K loaded copies of the saved image, OOO simulator");
  std::printf("sessions per entry: %zu\n\n", K);
  std::printf("%-14s %10s %10s %9s %9s %9s %6s\n", "benchmark", "store s",
              "bufs s", "store MB", "bufs MB", "snap MB", "maps");

  char Tmpl[] = "/tmp/facile-bench-store-XXXXXX";
  if (!::mkdtemp(Tmpl)) {
    std::fprintf(stderr, "error: cannot create a temporary store dir\n");
    return 1;
  }
  std::string StoreDirPath = Tmpl;

  for (const workload::WorkloadSpec &Spec : workload::spec95Suite()) {
    isa::TargetImage Image = workload::generate(Spec, 1u << 30);
    uint64_t Budget = scaled(300'000, Scale);

    // Builder: populate once, promote into the store (untimed).
    store::CacheStoreDir Store(StoreDirPath);
    FacileSim Builder(SimKind::OutOfOrder, Image);
    Builder.run(Budget);
    std::vector<uint8_t> CacheSnap = Builder.cacheBytes();
    std::string Err;
    if (!Builder.promoteStore(Store, nullptr, &Err)) {
      std::printf("%-14s promote failed: %s\n", Spec.Name.c_str(),
                  Err.c_str());
      continue;
    }

    // K sims over the one mapping; run a sliver so the clock covers
    // time-to-first-replay, not just the attach.
    std::vector<std::unique_ptr<FacileSim>> StoreSims;
    int64_t RssBase = static_cast<int64_t>(rssKb());
    double TStore = timeIt([&] {
      for (size_t S = 0; S != K; ++S) {
        auto Sim = std::make_unique<FacileSim>(SimKind::OutOfOrder, Image);
        if (!Sim->attachStore(Store, &Err)) {
          std::fprintf(stderr, "%s: attach failed: %s\n", Spec.Name.c_str(),
                       Err.c_str());
          return;
        }
        Sim->run(1000);
        StoreSims.push_back(std::move(Sim));
      }
    });
    int64_t RssStoreKb = static_cast<int64_t>(rssKb()) - RssBase;
    size_t Mappings = Store.mappedCount();
    StoreSims.clear();

    // K private image buffers: each sim loads its own copy of the bytes.
    std::vector<std::unique_ptr<FacileSim>> PrivSims;
    RssBase = static_cast<int64_t>(rssKb());
    double TPriv = timeIt([&] {
      for (size_t S = 0; S != K; ++S) {
        auto Sim = std::make_unique<FacileSim>(SimKind::OutOfOrder, Image);
        if (!Sim->loadCacheBytes(CacheSnap, &Err)) {
          std::fprintf(stderr, "%s: load failed: %s\n", Spec.Name.c_str(),
                       Err.c_str());
          return;
        }
        Sim->run(1000);
        PrivSims.push_back(std::move(Sim));
      }
    });
    int64_t RssPrivKb = static_cast<int64_t>(rssKb()) - RssBase;
    PrivSims.clear();

    std::printf("%-14s %10.3f %10.3f %9.2f %9.2f %9.2f %6zu\n",
                Spec.Name.c_str(), TStore, TPriv,
                static_cast<double>(RssStoreKb) / 1024.0,
                static_cast<double>(RssPrivKb) / 1024.0,
                static_cast<double>(CacheSnap.size()) / (1u << 20), Mappings);
    Sink.begin()
        .field("bench", Spec.Name)
        .field("mode", "store")
        .field("sessions", static_cast<uint64_t>(K))
        .field("t_first_replay_store_s", TStore)
        .field("t_first_replay_private_s", TPriv)
        .field("rss_store_kb", static_cast<int64_t>(RssStoreKb))
        .field("rss_private_kb", static_cast<int64_t>(RssPrivKb))
        .field("store_mappings", static_cast<uint64_t>(Mappings))
        .field("snapshot_bytes", static_cast<uint64_t>(CacheSnap.size()));
    Sink.commit();
  }

  removeTree(StoreDirPath);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args("bench_warmstart");
  bool StoreMode = false;
  uint64_t Sessions = 8;
  Args.parser().flag("store", StoreMode,
                     "measure the shared cache-store path instead");
  Args.parser().u64("sessions", Sessions, "<k>",
                    "sessions sharing the store (default 8)", /*Min=*/1);
  if (int Rc = Args.parse(Argc, Argv); Rc != support::ArgParse::KeepGoing)
    return Rc;
  double Scale = Args.Scale;
  JsonSink Sink(Args);
  if (StoreMode)
    return runStoreMode(Scale, Sink, static_cast<size_t>(Sessions));
  banner("Warm start — persistent action cache vs. cold start",
         "(beyond the paper: §4.2's cache persisted across processes)",
         "cold/warm Ksim-instr/s per benchmark, OOO simulator, and the "
         "snapshot size paid once per configuration");

  std::printf("%-14s %11s %11s %8s %10s %10s %9s\n", "benchmark",
              "cold Kips", "warm Kips", "warm/c", "ff cold", "ff warm",
              "snap MB");

  std::vector<double> Ratios;
  size_t Faster = 0;
  for (const workload::WorkloadSpec &Spec : workload::spec95Suite()) {
    isa::TargetImage Image = workload::generate(Spec, 1u << 30);
    uint64_t Budget = scaled(600'000, Scale);

    // Cold: empty cache, pays the full record phase.
    FacileSim Cold(SimKind::OutOfOrder, Image);
    double TCold = timeIt([&] { Cold.run(Budget); });
    double KipsCold =
        static_cast<double>(Cold.sim().stats().RetiredTotal) / TCold / 1e3;

    // Builder: same run, untimed; its cache becomes the snapshot.
    FacileSim Builder(SimKind::OutOfOrder, Image);
    Builder.run(Budget);
    std::vector<uint8_t> CacheSnap = Builder.cacheBytes();

    // Warm: fresh process-equivalent state plus the persisted cache.
    FacileSim Warm(SimKind::OutOfOrder, Image);
    std::string Err;
    if (!Warm.loadCacheBytes(CacheSnap, &Err)) {
      std::printf("%-14s load failed: %s\n", Spec.Name.c_str(), Err.c_str());
      continue;
    }
    double TWarm = timeIt([&] { Warm.run(Budget); });
    double KipsWarm =
        static_cast<double>(Warm.sim().stats().RetiredTotal) / TWarm / 1e3;

    double Ratio = KipsWarm / KipsCold;
    Ratios.push_back(Ratio);
    if (Ratio >= 1.5)
      ++Faster;

    std::printf("%-14s %11.0f %11.0f %7.2fx %9.3f%% %9.3f%% %9.2f\n",
                Spec.Name.c_str(), KipsCold, KipsWarm, Ratio,
                Cold.sim().stats().fastForwardedPct(),
                Warm.sim().stats().fastForwardedPct(),
                static_cast<double>(CacheSnap.size()) / (1u << 20));
    Sink.begin()
        .field("bench", Spec.Name)
        .field("kips_cold", KipsCold)
        .field("kips_warm", KipsWarm)
        .field("ratio", Ratio)
        .field("snapshot_bytes", static_cast<uint64_t>(CacheSnap.size()))
        .rawField("stats", Warm.statsJson());
    Sink.commit();
  }

  std::printf("\nharmonic mean warm/cold %.2fx; %zu/%zu entries at or above "
              "1.5x\n",
              harmonicMean(Ratios), Faster, Ratios.size());
  return 0;
}
