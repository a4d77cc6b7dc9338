// Invariant-checker subsystem (src/check/): catches an injected
// use-after-evict, a stack overflow, a frame-accounting leak, and a
// context-switch-discipline violation — and stays silent on a clean
// full-system run.

#include "src/check/invariant_checker.h"

#include <cstring>

#include <gtest/gtest.h>

#include "src/apps/array_app.h"
#include "src/apps/memcached_app.h"
#include "src/apps/pattern_app.h"
#include "src/base/time.h"
#include "src/core/md_system.h"
#include "src/mem/memory_manager.h"
#include "src/mem/remote_heap.h"
#include "src/sim/engine.h"
#include "src/unithread/universal_stack.h"

namespace adios {
namespace {

CheckOptions NonFatalOptions() {
  CheckOptions o;
  o.enabled = true;
  o.fatal = false;
  o.check_switch_discipline = false;
  return o;
}

// --- Use-after-evict (poison-on-evict) ---

TEST(InvariantChecker, PoisonCatchesUseAfterEvict) {
  Engine engine;
  MemoryManager mm(&engine, PagingConfig{}, 16, 8);
  RemoteRegion region(16 * kPageSize);

  CheckOptions opts = NonFatalOptions();
  opts.poison_evicted_pages = true;
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  deps.mm = &mm;
  deps.region = &region;
  InvariantChecker checker(opts, deps);
  checker.Install();

  const RemoteAddr addr = PageStart(3) + 128;
  const uint64_t magic = 0xFEEDFACECAFED00Dull;
  region.WriteObject(addr, magic);

  mm.BeginFetch(3);
  mm.CompleteFetch(3);
  EXPECT_FALSE(checker.PageIsPoisoned(3));
  EXPECT_EQ(region.ReadObject<uint64_t>(addr), magic);  // Resident: real bytes.

  mm.EvictPage(3);
  // The page lost residency; any read through it now is a use-after-evict
  // and sees deterministically scrambled bytes.
  EXPECT_TRUE(checker.PageIsPoisoned(3));
  EXPECT_NE(region.ReadObject<uint64_t>(addr), magic);
  EXPECT_EQ(checker.report().poison_events, 1u);
  EXPECT_EQ(checker.report().pages_poisoned, 1u);

  // Refetch restores the original bytes before any waiter can run.
  mm.BeginFetch(3);
  mm.AddFetchWaiter(3, [&](bool ok) {
    EXPECT_TRUE(ok);
    EXPECT_EQ(region.ReadObject<uint64_t>(addr), magic);
  });
  mm.CompleteFetch(3);
  EXPECT_FALSE(checker.PageIsPoisoned(3));
  EXPECT_EQ(region.ReadObject<uint64_t>(addr), magic);
  EXPECT_EQ(checker.report().pages_poisoned, 0u);
}

TEST(InvariantChecker, UnpoisonAllRestoresEveryEvictedPage) {
  Engine engine;
  MemoryManager mm(&engine, PagingConfig{}, 16, 8);
  RemoteRegion region(16 * kPageSize);

  CheckOptions opts = NonFatalOptions();
  opts.poison_evicted_pages = true;
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  deps.mm = &mm;
  deps.region = &region;
  InvariantChecker checker(opts, deps);
  checker.Install();

  for (uint64_t p = 0; p < 4; ++p) {
    region.WriteObject<uint64_t>(PageStart(p), p + 1000);
    mm.BeginFetch(p);
    mm.CompleteFetch(p);
    mm.EvictPage(p);
  }
  EXPECT_EQ(checker.report().pages_poisoned, 4u);

  checker.UnpoisonAll();
  EXPECT_EQ(checker.report().pages_poisoned, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(region.ReadObject<uint64_t>(PageStart(p)), p + 1000);
  }
}

// --- Digest memo ---

TEST(InvariantChecker, StaleDigestMemoIsCaught) {
  Engine engine;
  MemoryManager mm(&engine, PagingConfig{}, 16, 8);
  RemoteRegion region(16 * kPageSize);
  IntegrityLayer integrity(IntegrityConfig{}, &region, /*num_pages=*/16, kPageSize,
                           /*num_nodes=*/1, /*replicas=*/1);
  PlacementMap placement(/*num_pages=*/16, /*num_nodes=*/1, /*replicas=*/1);
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  deps.mm = &mm;
  deps.integrity = &integrity;
  deps.placement = &placement;
  InvariantChecker checker(NonFatalOptions(), deps);
  checker.Install();

  // Stamped writes invalidate the memo, so the audit stays silent.
  region.WriteObject<uint64_t>(PageStart(5), 42);
  integrity.ComputeChecksum(5);
  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 0u);

  // A write that slips past the stamps leaves the memo claiming validity
  // for bytes that no longer hash to it.
  const_cast<std::byte*>(region.data())[PageStart(5) + 1] ^= std::byte{0x10};
  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 1u);
}

TEST(InvariantCheckerDeathTest, WrittenPageWithUnprimedLedgerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        MemoryManager mm(&engine, PagingConfig{}, 16, 8);
        RemoteRegion region(16 * kPageSize);
        // Stamping started with no watcher, so this write primes nothing: a
        // layer attached afterwards sees a moved stamp on a vpage it never
        // primed, and would read a lost update to it as clean.
        region.StartWriteStamps();
        region.WriteObject<uint64_t>(PageStart(7), 42);
        IntegrityLayer integrity(IntegrityConfig{}, &region, /*num_pages=*/16, kPageSize,
                                 /*num_nodes=*/1, /*replicas=*/1);
        PlacementMap placement(/*num_pages=*/16, /*num_nodes=*/1, /*replicas=*/1);
        InvariantChecker::Deps deps;
        deps.engine = &engine;
        deps.mm = &mm;
        deps.integrity = &integrity;
        deps.placement = &placement;
        CheckOptions opts;
        opts.enabled = true;
        opts.check_switch_discipline = false;
        InvariantChecker checker(opts, deps);
        checker.Install();
        checker.AuditNow();
      },
      "written page with an unprimed ledger");
}

TEST(InvariantChecker, FirstWritePrimesSoTheUnprimedLedgerAuditStaysSilent) {
  Engine engine;
  MemoryManager mm(&engine, PagingConfig{}, 16, 8);
  RemoteRegion region(16 * kPageSize);
  IntegrityLayer integrity(IntegrityConfig{}, &region, /*num_pages=*/16, kPageSize,
                           /*num_nodes=*/1, /*replicas=*/1);
  PlacementMap placement(/*num_pages=*/16, /*num_nodes=*/1, /*replicas=*/1);
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  deps.mm = &mm;
  deps.integrity = &integrity;
  deps.placement = &placement;
  InvariantChecker checker(NonFatalOptions(), deps);
  checker.Install();

  for (uint64_t p = 0; p < 16; p += 3) {
    region.WriteObject<uint64_t>(PageStart(p) + 8, p);
  }
  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 0u);
}

// --- Frame-accounting leak ---

TEST(InvariantChecker, FrameAccountingLeakIsCounted) {
  Engine engine;
  MemoryManager mm(&engine, PagingConfig{}, 16, 8);
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  deps.mm = &mm;
  InvariantChecker checker(NonFatalOptions(), deps);
  checker.Install();

  mm.BeginFetch(0);
  mm.CompleteFetch(0);
  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 0u);  // Balanced so far.

  // Inject the leak: unmap the page behind the manager's back so the
  // reserved frame is never released.
  mm.page_table().MarkRemote(0);
  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 1u);
}

TEST(InvariantCheckerDeathTest, FrameAccountingLeakAbortsWhenFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        MemoryManager mm(&engine, PagingConfig{}, 16, 8);
        InvariantChecker::Deps deps;
        deps.engine = &engine;
        deps.mm = &mm;
        CheckOptions opts;
        opts.enabled = true;
        opts.check_switch_discipline = false;
        InvariantChecker checker(opts, deps);
        checker.Install();
        mm.BeginFetch(0);
        mm.CompleteFetch(0);
        mm.page_table().MarkRemote(0);
        checker.AuditNow();
      },
      "frame conservation violated");
}

TEST(InvariantChecker, PageTableCounterDriftIsCaught) {
  Engine engine;
  MemoryManager mm(&engine, PagingConfig{}, 16, 8);
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  deps.mm = &mm;
  InvariantChecker checker(NonFatalOptions(), deps);
  checker.Install();

  // Flip an entry without going through the counting transitions.
  mm.page_table().CorruptStateForTest(2, PageState::kPresent);
  checker.AuditNow();
  EXPECT_GE(checker.report().violations, 1u);
}

// --- Stack overflow ---

struct OverflowRig {
  UnithreadBuffer* buf;
  UnithreadContext parent;
};

void EntryOverflowsIntoCanary(void* arg) {
  auto* rig = static_cast<OverflowRig*>(arg);
  std::memset(rig->buf->canary(), 0xEE, 8);
}

TEST(InvariantChecker, StackOverflowIsCounted) {
  Engine engine;
  UnithreadPool::Options popts;
  popts.count = 4;
  popts.buffer_size = 16384;
  popts.mtu = 1536;
  UnithreadPool pool(popts);
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  deps.pool = &pool;
  InvariantChecker checker(NonFatalOptions(), deps);
  checker.Install();

  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 0u);

  UnithreadBuffer buf = pool.Acquire();
  OverflowRig rig{&buf, {}};
  buf.ResetContext(&EntryOverflowsIntoCanary, &rig, &rig.parent);
  AdiosContextSwitch(&rig.parent, buf.context());

  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 1u);
}

TEST(InvariantCheckerDeathTest, StackOverflowAbortsWhenFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        UnithreadPool::Options popts;
        popts.count = 1;
        popts.buffer_size = 16384;
        popts.mtu = 1536;
        UnithreadPool pool(popts);
        InvariantChecker::Deps deps;
        deps.engine = &engine;
        deps.pool = &pool;
        CheckOptions opts;
        opts.enabled = true;
        opts.check_switch_discipline = false;
        InvariantChecker checker(opts, deps);
        checker.Install();
        UnithreadBuffer buf = pool.Acquire();
        OverflowRig rig;
        rig.buf = &buf;
        buf.ResetContext(&EntryOverflowsIntoCanary, &rig, &rig.parent);
        AdiosContextSwitch(&rig.parent, buf.context());
        checker.AuditNow();
      },
      "universal stack canary trampled");
}

// --- Context-switch discipline ---

TEST(InvariantCheckerDeathTest, UntrackedSwitchOnEngineContextAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        InvariantChecker::Deps deps;
        deps.engine = &engine;
        CheckOptions opts;
        opts.enabled = true;
        InvariantChecker checker(opts, deps);
        checker.Install();
        engine.SpawnFiber("rogue", [&engine] {
          // Bypasses RawSwitch: the engine's current-context
          // tracking would desynchronize here.
          AdiosContextSwitch(engine.current_context(), engine.main_context());
        });
        engine.Run();
      },
      "bypassed the engine's tracked path");
}

TEST(InvariantChecker, TrackedSwitchesPassDiscipline) {
  Engine engine;
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  CheckOptions opts;
  opts.enabled = true;
  opts.fatal = false;
  InvariantChecker checker(opts, deps);
  checker.Install();

  int done = 0;
  for (int i = 0; i < 3; ++i) {
    engine.SpawnFiber("f" + std::to_string(i), [&engine, &done] {
      engine.Wait(100);
      engine.Wait(100);
      ++done;
    });
  }
  engine.Run();
  EXPECT_EQ(done, 3);

  ASSERT_NE(checker.switch_checker(), nullptr);
  EXPECT_GT(checker.switch_checker()->tracked_switches(), 0u);
  EXPECT_EQ(checker.switch_checker()->violations(), 0u);
  EXPECT_EQ(checker.switch_checker()->switches_observed(),
            checker.switch_checker()->tracked_switches());
}

// --- Trace grammar ---

TEST(InvariantChecker, SecondDispatchViolatesTraceGrammar) {
  Engine engine;
  Tracer tracer;
  tracer.Enable(16);
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  deps.tracer = &tracer;
  InvariantChecker checker(NonFatalOptions(), deps);
  checker.Install();

  tracer.Record(10, 1, TraceEvent::kArrive);
  tracer.Record(20, 1, TraceEvent::kDispatch, 0);
  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 0u);
  tracer.Record(30, 1, TraceEvent::kDispatch, 1);
  checker.AuditNow();
  EXPECT_EQ(checker.report().violations, 1u);
}

// --- Scheduling ---

TEST(InvariantChecker, PeriodicAuditsStopAtHorizonSoRunTerminates) {
  Engine engine;
  InvariantChecker::Deps deps;
  deps.engine = &engine;
  CheckOptions opts = NonFatalOptions();
  opts.audit_interval_ns = 100'000;
  InvariantChecker checker(opts, deps);
  checker.Install();

  checker.SchedulePeriodicAudits(Milliseconds(1));
  engine.Run();  // Terminates: the auditor stops rescheduling at the horizon.
  EXPECT_EQ(checker.report().audits, 10u);
  EXPECT_GE(engine.now(), Milliseconds(1));
}

// --- Clean full-system run ---

TEST(InvariantChecker, CleanAdiosRunHasNoViolations) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.check.enabled = true;
  ArrayApp::Options ao;
  ao.entries = 1 << 15;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(200000, Milliseconds(4), Milliseconds(10));
  EXPECT_GT(r.measured, 1000u);

  const InvariantChecker* checker = sys.invariant_checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_GT(checker->report().audits, 10u);  // Periodic audits actually ran.
  EXPECT_EQ(checker->report().violations, 0u);
  EXPECT_GT(checker->report().fiber_stack_high_water, 0u);
  ASSERT_NE(checker->switch_checker(), nullptr);
  EXPECT_GT(checker->switch_checker()->tracked_switches(), 1000u);
  EXPECT_EQ(checker->switch_checker()->violations(), 0u);
}

// The sharded clock under eviction pressure: the audit also checks the
// resident set's size and its occupancy bitmap against the page table.
TEST(InvariantChecker, CleanShardedClockRunHasNoViolations) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.clock_shards = 8;
  cfg.check.enabled = true;
  MemcachedApp::Options o;
  o.num_keys = 1 << 14;
  o.key_skew = 0.99;
  o.set_fraction = 0.3;
  MemcachedApp app(o);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(1.0e6, Milliseconds(2), Milliseconds(6));
  EXPECT_GT(r.measured, 1000u);
  EXPECT_GT(r.mem.evictions_clean + r.mem.evictions_dirty, 1000u);

  const PageTable& pt = sys.memory_manager().page_table();
  ASSERT_NE(pt.resident_set(), nullptr);
  EXPECT_EQ(pt.resident_set()->shards(), 8u);
  const InvariantChecker* checker = sys.invariant_checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_GT(checker->report().audits, 10u);
  EXPECT_EQ(checker->report().violations, 0u);
}

// --- Stack headroom ---

// Event callbacks run on whichever context yields to the engine, so the
// periodic audits, fabric completions and tracer records all land on the
// 31 KiB universal stacks as well as the fiber stacks. Painted stacks and
// frequent audits measure the deepest use of both on a write-heavy
// key-value run and on the replicated, lossy, verified, scrubbed stride run.
void ExpectStackHeadroom(SystemConfig cfg, Application* app, double rate) {
  cfg.seed = 7;
  cfg.check.enabled = true;
  cfg.check.audit_interval_ns = 20'000;
  cfg.pool.paint_stacks = true;
  MdSystem sys(cfg, app);
  sys.tracer().Enable(1 << 20);
  const RunResult r = sys.Run(rate, Milliseconds(1), Milliseconds(3));
  EXPECT_GT(r.measured, 500u);

  const InvariantChecker* checker = sys.invariant_checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_GT(checker->report().audits, 100u);
  EXPECT_EQ(checker->report().violations, 0u);
  const size_t universal_stack = cfg.pool.buffer_size - cfg.pool.mtu;
  EXPECT_GT(checker->report().pool_stack_high_water, 0u);
  EXPECT_LT(checker->report().pool_stack_high_water, universal_stack / 4);
  EXPECT_GT(checker->report().fiber_stack_high_water, 0u);
  EXPECT_LT(checker->report().fiber_stack_high_water, Engine::kDefaultFiberStack / 4);
}

TEST(InvariantChecker, KvWritesLeaveStackHeadroom) {
  MemcachedApp::Options o;
  o.num_keys = 1 << 14;
  o.key_skew = 0.99;
  o.set_fraction = 0.3;
  MemcachedApp app(o);
  ExpectStackHeadroom(SystemConfig::Adios(), &app, 1.0e6);
}

TEST(InvariantChecker, ReplicatedLossyStrideLeavesStackHeadroom) {
  PatternApp::Options o;
  o.pages = 1 << 12;
  o.pages_per_op = 8;
  o.stride = 4;
  o.pattern = PatternApp::Pattern::kStride;
  PatternApp app(o);
  SystemConfig cfg = SystemConfig::Adios();
  cfg.sched.prefetch_window = 8;
  cfg.fabric.link_classes = kNumTrafficClasses;
  cfg.fabric.chunk_bytes = 1024;
  cfg.replication.num_nodes = 2;
  cfg.replication.replicas = 2;
  cfg.fault.read_loss_rate = 1e-3;
  cfg.integrity.verify = true;
  cfg.integrity.scrub = true;
  ExpectStackHeadroom(cfg, &app, 0.35e6);
}

}  // namespace
}  // namespace adios
