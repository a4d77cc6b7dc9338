// Heap-allocation budget of the request path. This executable replaces the
// global operator new with a counting one, runs an Adios system over a
// measured window of T and of 2T, and bounds the *marginal* allocations per
// extra completed request: set-up, warm-up, pool growth and result assembly
// cancel out, leaving what each request costs in steady state. A request
// itself allocates nothing: the load generator recycles `Request`s through
// a free list, so what is left is sampling and oversized callables. Three
// shapes run: the ArrayApp demand-fault path; the stride-4 prefetch path over
// two replicas on a lossy fabric with verify-on-fetch, where tracked ops,
// the prefetch pool and retries join in; and a Zipf key-value store with
// SETs on the sharded clock, where dirty evictions post write-backs.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/apps/array_app.h"
#include "src/apps/memcached_app.h"
#include "src/apps/pattern_app.h"
#include "src/core/md_system.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The replacements allocate with malloc and release with free, so every
// scalar new/delete pair in the process is theirs (a sanitizer runtime's own
// operators would otherwise see a malloc'd block reach its delete). They stay
// out of line so the compiler never inlines a free() into a caller that got
// the block from operator new (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace adios {
namespace {

struct WindowRun {
  uint64_t allocations = 0;
  uint64_t completed = 0;
  uint64_t dirty_evictions = 0;
};

WindowRun RunWindow(Application* app, const SystemConfig& config, double offered_rps,
                    SimDuration measure_ns) {
  MdSystem sys(config, app);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult r = sys.Run(offered_rps, Milliseconds(4), measure_ns);
  WindowRun w;
  w.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  w.completed = r.completed;
  w.dirty_evictions = r.metrics.Count("mem.evictions_dirty");
  return w;
}

// Allocations per extra request between a T and a 2T window.
double Marginal(const WindowRun& one, const WindowRun& two) {
  const double marginal = static_cast<double>(two.allocations - one.allocations) /
                          static_cast<double>(two.completed - one.completed);
  std::printf("allocations: %llu over %llu requests (T), %llu over %llu (2T); "
              "marginal %.3f per request\n",
              static_cast<unsigned long long>(one.allocations),
              static_cast<unsigned long long>(one.completed),
              static_cast<unsigned long long>(two.allocations),
              static_cast<unsigned long long>(two.completed), marginal);
  return marginal;
}

WindowRun ArrayWindow(SimDuration measure_ns) {
  ArrayApp::Options ao;
  ao.entries = 1 << 15;  // 2 MiB working set at 20% local: most requests fault.
  ArrayApp app(ao);
  return RunWindow(&app, SystemConfig::Adios(), 1.0e6, measure_ns);
}

TEST(AllocBudget, MarginalAllocationsPerRequestStaySmall) {
  const WindowRun one = ArrayWindow(Milliseconds(10));
  const WindowRun two = ArrayWindow(Milliseconds(20));
  ASSERT_GT(two.completed, one.completed + 5000);
  EXPECT_LE(Marginal(one, two), 0.5);
}

// The perfbench stride-r2-lossy configuration over a smaller working set.
WindowRun StrideWindow(SimDuration measure_ns) {
  PatternApp::Options po;
  po.pages = 1 << 12;  // 16 MiB at 20% local.
  po.pages_per_op = 8;
  po.stride = 4;
  po.pattern = PatternApp::Pattern::kStride;
  PatternApp app(po);
  SystemConfig cfg = SystemConfig::Adios();
  cfg.sched.prefetch_window = 8;
  cfg.sched.prefetch_policy = PrefetchPolicy::kAdaptive;
  cfg.fabric.link_classes = kNumTrafficClasses;
  cfg.fabric.chunk_bytes = 1024;
  cfg.replication.num_nodes = 2;
  cfg.replication.replicas = 2;
  cfg.fault.read_loss_rate = 1e-3;
  cfg.integrity.verify = true;
  cfg.integrity.scrub = true;
  return RunWindow(&app, cfg, 0.35e6, measure_ns);
}

TEST(AllocBudget, StridePrefetchPathMarginalAllocationsStaySmall) {
  const WindowRun one = StrideWindow(Milliseconds(20));
  const WindowRun two = StrideWindow(Milliseconds(40));
  ASSERT_GT(two.completed, one.completed + 5000);
  EXPECT_LE(Marginal(one, two), 0.6);
}

// The perfbench kv-zipf-writes configuration over a smaller table.
WindowRun KvWindow(SimDuration measure_ns) {
  MemcachedApp::Options mo;
  mo.num_keys = 1 << 14;  // 3.4 MiB at 20% local: SETs dirty evicted pages.
  mo.value_bytes = 128;
  mo.key_skew = 0.99;
  mo.set_fraction = 0.3;
  MemcachedApp app(mo);
  SystemConfig cfg = SystemConfig::Adios();
  cfg.clock_shards = 8;
  cfg.sync_model = MmSyncModel::kShardedCas;
  cfg.sync_cas_ns = 30;
  return RunWindow(&app, cfg, 1.0e6, measure_ns);
}

// Measured 0.115 marginal allocations per request, the ArrayApp shape's
// figure: dirty evictions add none. The bound is about twice that; a
// write-back tracker that allocates per dirty eviction reads 0.334.
TEST(AllocBudget, KvWriteBackPathMarginalAllocationsStaySmall) {
  const WindowRun one = KvWindow(Milliseconds(10));
  const WindowRun two = KvWindow(Milliseconds(20));
  ASSERT_GT(two.completed, one.completed + 5000);
  ASSERT_GT(two.dirty_evictions, one.dirty_evictions + 1000);
  EXPECT_LE(Marginal(one, two), 0.25);
}

}  // namespace
}  // namespace adios
