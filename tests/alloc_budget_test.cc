// Heap-allocation budget of the request path. This executable replaces the
// global operator new with a counting one, runs an Adios ArrayApp system over
// a measured window of T and of 2T, and bounds the *marginal* allocations per
// extra completed request: set-up, warm-up, pool growth and result assembly
// cancel out, leaving what each request costs in steady state. The one
// allocation a request is expected to make is its `new Request`.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/apps/array_app.h"
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
};

WindowRun RunWindow(SimDuration measure_ns) {
  ArrayApp::Options ao;
  ao.entries = 1 << 15;  // 2 MiB working set at 20% local: most requests fault.
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::Adios(), &app);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult r = sys.Run(1.0e6, Milliseconds(4), measure_ns);
  WindowRun w;
  w.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  w.completed = r.completed;
  return w;
}

TEST(AllocBudget, MarginalAllocationsPerRequestStaySmall) {
  const WindowRun one = RunWindow(Milliseconds(10));
  const WindowRun two = RunWindow(Milliseconds(20));
  ASSERT_GT(two.completed, one.completed + 5000);
  const double marginal = static_cast<double>(two.allocations - one.allocations) /
                          static_cast<double>(two.completed - one.completed);
  std::printf("allocations: %llu over %llu requests (T), %llu over %llu (2T); "
              "marginal %.3f per request\n",
              static_cast<unsigned long long>(one.allocations),
              static_cast<unsigned long long>(one.completed),
              static_cast<unsigned long long>(two.allocations),
              static_cast<unsigned long long>(two.completed), marginal);
  EXPECT_LE(marginal, 1.5);
}

}  // namespace
}  // namespace adios
