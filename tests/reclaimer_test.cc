#include "src/mem/reclaimer.h"

#include <gtest/gtest.h>

namespace adios {
namespace {

struct Rig {
  Engine engine;
  RdmaFabric fabric;
  MemoryManager mm;
  CpuCore core;
  QueuePair* qp;
  PlacementMap placement;
  NodeHealthMonitor health;
  Reclaimer reclaimer;

  static constexpr uint64_t kTotalPages = 256;
  static constexpr uint64_t kLocalPages = 32;

  Rig(PagingConfig paging, Reclaimer::Options ro)
      : fabric(&engine, FabricParams{}),
        mm(&engine, paging, kTotalPages, kLocalPages),
        core(&engine, CycleClock(2000), "reclaim"),
        qp(fabric.CreateQp(fabric.CreateCq())),
        placement(kTotalPages, 1, 1),
        health(&engine, ReplicationConfig{}),
        reclaimer(&engine, &core, &mm, qp, &placement, &health, ro) {}

  // Suspends the calling fiber until a released frame wakes it.
  void WaitForFrame() {
    UnithreadContext* self = engine.current_context();
    mm.AddFrameWaiter([this, self] { engine.ResumeLater(self); });
    engine.SuspendCurrent();
  }
};

PagingConfig Opts() {
  PagingConfig o;
  o.reclaim_low_watermark = 0.25;
  o.reclaim_high_watermark = 0.5;
  return o;
}

TEST(Reclaimer, ProactiveKeepsFreeFramesAvailable) {
  Rig rig(Opts(), Reclaimer::Options{});
  rig.reclaimer.Start();
  // Simulate steady allocation pressure: fetch-and-map a new page every us.
  uint64_t next_page = 0;
  rig.engine.SpawnFiber("allocator", [&] {
    for (int i = 0; i < 200; ++i) {
      while (!rig.mm.HasFreeFrame()) {
        rig.WaitForFrame();
      }
      rig.mm.BeginFetch(next_page);
      rig.mm.CompleteFetch(next_page);
      ++next_page;
      rig.engine.Wait(1000);
    }
  });
  rig.engine.Run();
  EXPECT_EQ(next_page, 200u);  // Never deadlocked on frames.
  EXPECT_GT(rig.reclaimer.pages_reclaimed(), 150u);
  // Proactive reclamation ended above the low watermark.
  EXPECT_FALSE(rig.mm.BelowLowWatermark());
}

TEST(Reclaimer, DirtyPagesAreWrittenBack) {
  Rig rig(Opts(), Reclaimer::Options{});
  rig.reclaimer.Start();
  uint64_t next_page = 0;
  rig.engine.SpawnFiber("allocator", [&] {
    for (int i = 0; i < 100; ++i) {
      while (!rig.mm.HasFreeFrame()) {
        rig.WaitForFrame();
      }
      rig.mm.BeginFetch(next_page);
      rig.mm.CompleteFetch(next_page);
      rig.mm.Touch(next_page, /*write=*/true);  // All pages dirty.
      ++next_page;
      rig.engine.Wait(1000);
    }
  });
  rig.engine.Run();
  EXPECT_EQ(next_page, 100u);
  EXPECT_GT(rig.mm.stats().evictions_dirty, 50u);
  // Every dirty eviction became a one-sided WRITE on the reclaimer QP.
  EXPECT_EQ(rig.qp->posted_writes(), rig.mm.stats().evictions_dirty);
  EXPECT_EQ(rig.reclaimer.writebacks_inflight(), 0u);
}

TEST(Reclaimer, WakeupDelayedModeRespondsSlower) {
  auto run = [](SimDuration delay) {
    Reclaimer::Options ro;
    ro.wakeup_delay_ns = delay;
    Rig rig(Opts(), ro);
    rig.reclaimer.Start();
    // Burst allocation to the brink, then one page per us.
    SimTime first_stall = 0;
    uint64_t stalls = 0;
    uint64_t next_page = 0;
    rig.engine.SpawnFiber("allocator", [&, next = 0ull]() mutable {
      for (int i = 0; i < 120; ++i) {
        while (!rig.mm.HasFreeFrame()) {
          ++stalls;
          if (first_stall == 0) {
            first_stall = rig.engine.now();
          }
          rig.WaitForFrame();
        }
        rig.mm.BeginFetch(next_page);
        rig.mm.CompleteFetch(next_page);
        ++next_page;
        rig.engine.Wait(500);
      }
    });
    rig.engine.Run();
    return stalls;
  };
  const uint64_t proactive_stalls = run(0);
  const uint64_t delayed_stalls = run(20000);
  EXPECT_LE(proactive_stalls, delayed_stalls);
}

TEST(Reclaimer, SleepsWhenAboveWatermark) {
  Rig rig(Opts(), Reclaimer::Options{});
  rig.reclaimer.Start();
  // No allocations at all: the reclaimer must go idle and the engine drain.
  rig.engine.Run();
  EXPECT_EQ(rig.reclaimer.pages_reclaimed(), 0u);
}

}  // namespace
}  // namespace adios
