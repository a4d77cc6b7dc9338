// Component microbenchmarks (google-benchmark): the substrate operations on
// the request hot path. These measure real host performance of the library
// pieces, independent of the simulation.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/apps/memcached_app.h"
#include "src/base/histogram.h"
#include "src/base/rng.h"
#include "src/integrity/integrity.h"
#include "src/integrity/page_checksum.h"
#include "src/mem/memory_manager.h"
#include "src/mem/page_table.h"
#include "src/mem/remote_heap.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/unithread/context.h"
#include "src/unithread/universal_stack.h"

namespace adios {
namespace {

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Add(rng.NextBelow(1u << 20));
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramPercentile(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    h.Add(rng.NextBelow(1u << 20));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Percentile(99.9));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator z(1u << 20, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Next());
  }
}
BENCHMARK(BM_ZipfNext);

// Measures the bare asm switch (no wrapper branch); under ASan the raw
// symbol would break shadow-stack bookkeeping, so use the annotated wrapper.
#if defined(__SANITIZE_ADDRESS__)
inline void BenchCtxSwitch(UnithreadContext* from, UnithreadContext* to) {
  AdiosContextSwitch(from, to);
}
#else
inline void BenchCtxSwitch(UnithreadContext* from, UnithreadContext* to) {
  AdiosContextSwitchAsm(from, to);
}
#endif

void BM_ContextSwitchPair(benchmark::State& state) {
  struct Rig {
    UnithreadContext main_ctx;
    UnithreadContext thread_ctx;
    std::vector<std::byte> stack = std::vector<std::byte>(64 * 1024);
  } rig;
  rig.thread_ctx.Reset(
      rig.stack.data(), rig.stack.size(),
      [](void* arg) {
        auto* r = static_cast<Rig*>(arg);
        for (;;) {
          BenchCtxSwitch(&r->thread_ctx, &r->main_ctx);
        }
      },
      &rig, &rig.main_ctx);
  for (auto _ : state) {
    BenchCtxSwitch(&rig.main_ctx, &rig.thread_ctx);
  }
}
BENCHMARK(BM_ContextSwitchPair);

void BM_UnithreadPoolAcquireRelease(benchmark::State& state) {
  UnithreadPool::Options opts;
  opts.count = 1024;
  opts.buffer_size = 16384;
  opts.mtu = 1536;
  UnithreadPool pool(opts);
  for (auto _ : state) {
    UnithreadBuffer b = pool.Acquire();
    benchmark::DoNotOptimize(b.context());
    pool.Release(b);
  }
}
BENCHMARK(BM_UnithreadPoolAcquireRelease);

// The engine benches hold the queue at a steady ~16 pending events with
// random delays, the shape it has inside a run (a heap pre-filled in time
// order is a pattern a run never produces). Each iteration advances the
// clock by one window; `per_event` is wall time over events dispatched.
constexpr int kEnginePending = 16;
constexpr SimDuration kEngineWindow = 4096;

void ReportEngineEvents(benchmark::State& state, uint64_t events) {
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// Plain callbacks: each event reschedules itself 1-64 ns ahead.
void BM_EngineCallbackChain(benchmark::State& state) {
  Engine e;
  Rng rng(1);
  struct Chain {
    Engine* e;
    Rng* rng;
    void operator()() const { e->Schedule(1 + rng->NextBelow(64), *this); }
  };
  for (int i = 0; i < kEnginePending; ++i) {
    e.Schedule(1 + rng.NextBelow(64), Chain{&e, &rng});
  }
  const uint64_t start = e.events_processed();
  for (auto _ : state) {
    e.RunUntil(e.now() + kEngineWindow);
  }
  ReportEngineEvents(state, e.events_processed() - start);
}
BENCHMARK(BM_EngineCallbackChain);

// Fibers: each loops on Wait(1-64 ns), the CpuCore::Consume pattern. Some
// Waits are next in line and skip the switch, as they do in a run.
void BM_EngineFiberWait(benchmark::State& state) {
  Engine e;
  Rng rng(1);
  bool stop = false;
  for (int i = 0; i < kEnginePending; ++i) {
    e.SpawnFiber("f", [&] {
      while (!stop) {
        e.Wait(1 + rng.NextBelow(64));
      }
    });
  }
  const uint64_t start = e.events_processed();
  for (auto _ : state) {
    e.RunUntil(e.now() + kEngineWindow);
  }
  ReportEngineEvents(state, e.events_processed() - start);
  stop = true;
  e.Run();  // Let every fiber finish.
}
BENCHMARK(BM_EngineFiberWait);

// Fibers and callbacks together, the mix a run has: 16 fibers loop on
// Wait(1-64 ns) beside 11 self-rescheduling callback chains, so about 60%
// of events are resumes. A blocking Wait runs the callbacks ahead of it on
// its own stack and switches straight to the next fiber; `switches_per_event`
// is host context switches over events dispatched.
void BM_EngineFiberWaitWithCallbacks(benchmark::State& state) {
  constexpr int kChains = 11;
  Engine e;
  Rng rng(1);
  bool stop = false;
  for (int i = 0; i < kEnginePending; ++i) {
    e.SpawnFiber("f", [&] {
      while (!stop) {
        e.Wait(1 + rng.NextBelow(64));
      }
    });
  }
  struct Chain {
    Engine* e;
    Rng* rng;
    bool* stop;
    void operator()() const {
      if (!*stop) {
        e->Schedule(1 + rng->NextBelow(64), *this);
      }
    }
  };
  for (int i = 0; i < kChains; ++i) {
    e.Schedule(1 + rng.NextBelow(64), Chain{&e, &rng, &stop});
  }
  const uint64_t start = e.events_processed();
  const uint64_t switches = e.context_switches();
  for (auto _ : state) {
    e.RunUntil(e.now() + kEngineWindow);
  }
  const uint64_t events = e.events_processed() - start;
  ReportEngineEvents(state, events);
  state.counters["switches_per_event"] =
      static_cast<double>(e.context_switches() - switches) / static_cast<double>(events);
  stop = true;
  e.Run();  // Let every fiber finish and every chain end.
}
BENCHMARK(BM_EngineFiberWaitWithCallbacks);

// The delay mix a full run produces: about 11% of events at zero delay,
// most within the wheel's 4096 ns window, and about 5% arming a far
// deadline (10-100 us out, like a fetch retry timer), half of which are
// cancelled before they fire.
void BM_EngineMixedDelays(benchmark::State& state) {
  Engine e;
  Rng rng(1);
  struct Chain {
    Engine* e;
    Rng* rng;
    void operator()() const {
      if (rng->NextBelow(100) < 5) {
        Engine::EventHandle deadline =
            e->ScheduleCancellable(rng->NextInRange(10'000, 100'000), [] {});
        if (rng->NextBelow(2) == 0) {
          deadline.Cancel();
        }
      }
      e->Schedule(rng->NextBelow(100) < 11 ? 0 : 1 + rng->NextBelow(1024), *this);
    }
  };
  for (int i = 0; i < kEnginePending; ++i) {
    e.Schedule(1 + rng.NextBelow(64), Chain{&e, &rng});
  }
  const uint64_t start = e.events_processed();
  for (auto _ : state) {
    e.RunUntil(e.now() + kEngineWindow);
  }
  ReportEngineEvents(state, e.events_processed() - start);
}
BENCHMARK(BM_EngineMixedDelays);

void BM_PageTableFaultCycle(benchmark::State& state) {
  Engine e;
  constexpr uint64_t kTotalPages = 1u << 16;
  MemoryManager mm(&e, PagingConfig{}, kTotalPages, /*local_pages=*/1u << 14);
  uint64_t p = 0;
  for (auto _ : state) {
    mm.BeginFetch(p);
    mm.CompleteFetch(p);
    mm.EvictPage(p);
    p = (p + 1) % kTotalPages;
  }
}
BENCHMARK(BM_PageTableFaultCycle);

// One clock victim pick in the fault-evict steady state, with the dense hand
// (arg 0) and the 8-shard resident-set clock (arg 8): 5,530 of 27,650 pages
// resident (20% local memory). Each iteration evicts the pick and maps a
// random remote page in its place, referenced, as a demand fault would.
void BM_SelectVictim(benchmark::State& state) {
  constexpr uint64_t kTotalPages = 27'650;
  constexpr uint64_t kResident = kTotalPages / 5;
  PageTable pt(kTotalPages, static_cast<uint32_t>(state.range(0)));
  Rng rng(1);
  auto map_random_remote_page = [&] {
    uint64_t v = rng.Next() % kTotalPages;
    while (pt.StateOf(v) != PageState::kRemote) {
      v = rng.Next() % kTotalPages;
    }
    pt.MarkFetching(v);
    pt.MarkPresent(v);
  };
  for (uint64_t i = 0; i < kResident; ++i) {
    map_random_remote_page();
  }
  for (auto _ : state) {
    const uint64_t victim = pt.SelectVictim();
    benchmark::DoNotOptimize(victim);
    pt.MarkRemote(victim);
    map_random_remote_page();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SelectVictim)->Arg(0)->Arg(8);

void BM_FabricReadPipeline(benchmark::State& state) {
  // Full simulated fetch pipeline cost (host time per simulated READ).
  for (auto _ : state) {
    state.PauseTiming();
    Engine e;
    RdmaFabric fabric(&e, FabricParams{});
    QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) {
      qp->PostRead(4096, static_cast<uint64_t>(i));
    }
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FabricReadPipeline);

// Host cost of the page digest a verified fetch computes when the page
// changed, on one hot 4 KiB page (the simulated cost is the fixed
// `IntegrityLayer::kVerifyCycles`).
void BM_PageChecksum(benchmark::State& state) {
  std::vector<uint8_t> page(kPageSize);
  Rng rng(1);
  for (auto& b : page) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PageChecksum(page.data(), page.size(), IntegrityLayer::kChecksumSeed));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_PageChecksum);

// One verify-on-fetch over a 64-page region, cycling through its pages.
constexpr uint64_t kVerifyPages = 64;

IntegrityConfig VerifyConfig() {
  IntegrityConfig cfg;
  cfg.verify = true;
  return cfg;
}

void FillRegion(RemoteRegion* region) {
  Rng rng(1);
  for (uint64_t page = 0; page < region->num_pages(); ++page) {
    std::byte* bytes = region->MutablePage(page);
    for (uint64_t i = 0; i < kPageSize; ++i) {
      bytes[i] = static_cast<std::byte>(rng.Next());
    }
  }
}

// No write since stamping started: the page's ledger is unprimed, its bytes
// are the set-up bytes every slot intends, and the codec does not run.
void BM_VerifyFetchUnchangedPage(benchmark::State& state) {
  RemoteRegion region(kVerifyPages * kPageSize);
  FillRegion(&region);
  IntegrityLayer layer(VerifyConfig(), &region, kVerifyPages, kPageSize, 1, 1);
  uint64_t vpage = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.VerifyFetch(vpage, vpage, 0));
    vpage = (vpage + 1) % kVerifyPages;
  }
}
BENCHMARK(BM_VerifyFetchUnchangedPage);

// A one-byte write before every verify: the memo misses and the codec
// re-hashes the 4 KiB page.
void BM_VerifyFetchDirtiedPage(benchmark::State& state) {
  RemoteRegion region(kVerifyPages * kPageSize);
  FillRegion(&region);
  IntegrityLayer layer(VerifyConfig(), &region, kVerifyPages, kPageSize, 1, 1);
  uint64_t vpage = 0;
  uint8_t value = 0;
  for (auto _ : state) {
    region.WriteObject<uint8_t>(PageStart(vpage) + 64, ++value);
    benchmark::DoNotOptimize(layer.VerifyFetch(vpage, vpage, 0));
    vpage = (vpage + 1) % kVerifyPages;
  }
}
BENCHMARK(BM_VerifyFetchDirtiedPage);

// The perfbench stride-r2-lossy working set: 32,768 pages, 128 MiB.
constexpr uint64_t kSetupPages = 32768;

// Kernel-reported transparent-huge-page memory of this process, in KiB
// (AnonHugePages in /proc/self/smaps_rollup); -1 where it cannot be read.
double AnonHugePagesKib() {
  std::ifstream in("/proc/self/smaps_rollup");
  const std::string key = "AnonHugePages:";
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stod(line.substr(key.size()));
    }
  }
  return -1;
}

// Builds the remote region and touches every 4 KiB page, as an app's setup
// does. On huge pages (where THP is enabled) that is 64 faults, not 32,768.
// `anon_huge_mib` reports how much of the region the kernel backed with
// huge pages.
void BM_RemoteRegionSetup(benchmark::State& state) {
  double huge_kib = 0;
  for (auto _ : state) {
    RemoteRegion region(kSetupPages * kPageSize);
    for (uint64_t page = 0; page < kSetupPages; ++page) {
      region.WriteObject<uint64_t>(PageStart(page), page);
    }
    huge_kib = AnonHugePagesKib();
    benchmark::DoNotOptimize(region.data());
  }
  state.counters["anon_huge_mib"] = huge_kib / 1024;
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kSetupPages * kPageSize));
}
BENCHMARK(BM_RemoteRegionSetup)->Unit(benchmark::kMillisecond);

// Builds the perfbench kv-zipf-writes image, as MdSystem does: a remote
// region of the app's working set, then MemcachedApp::Setup over 2^19 keys
// with 128 B values. `region_mib` is the region's size; the kernel's
// huge-page zeroing of it (BM_RemoteRegionSetup's cost per MiB) is the
// floor under this time.
void BM_MemcachedSetup(benchmark::State& state) {
  MemcachedApp::Options o;
  o.num_keys = uint64_t{1} << 19;
  o.value_bytes = 128;
  MemcachedApp app(o);
  const uint64_t bytes = (app.WorkingSetBytes() + kPageSize - 1) / kPageSize * kPageSize;
  for (auto _ : state) {
    RemoteRegion region(bytes);
    RemoteHeap heap(&region);
    app.Setup(heap);
    benchmark::DoNotOptimize(region.data());
  }
  state.counters["region_mib"] = static_cast<double>(bytes) / (1 << 20);
}
BENCHMARK(BM_MemcachedSetup)->Unit(benchmark::kMillisecond);

// Builds an IntegrityLayer over a set-up 32,768-page region. Priming is
// lazy, so construction hashes no page (`digests` per construction).
void BM_IntegrityLayerConstruct(benchmark::State& state) {
  RemoteRegion region(kSetupPages * kPageSize);
  for (uint64_t page = 0; page < kSetupPages; ++page) {
    region.WriteObject<uint64_t>(PageStart(page), page);
  }
  uint64_t digests = 0;
  for (auto _ : state) {
    IntegrityLayer layer(VerifyConfig(), &region, kSetupPages, kPageSize, 2, 2);
    digests += layer.digests_computed();
    benchmark::DoNotOptimize(&layer);
  }
  state.counters["digests"] =
      static_cast<double>(digests) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_IntegrityLayerConstruct)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace adios

BENCHMARK_MAIN();
