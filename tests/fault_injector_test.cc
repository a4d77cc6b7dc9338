// Fault-injection layer: injector decision logic, fabric-level fault
// semantics, and end-to-end retry/degradation behavior (docs/FAULT_MODEL.md).

#include "src/rdma/fault_injector.h"

#include <gtest/gtest.h>

#include "src/apps/array_app.h"
#include "src/apps/memcached_app.h"
#include "src/core/md_system.h"
#include "src/rdma/fabric.h"

namespace adios {
namespace {

// --- Injector decision logic ---

TEST(FaultInjector, DisabledByDefault) {
  FaultInjector::Options o;
  EXPECT_FALSE(o.enabled());
  o.read_loss_rate = 0.01;
  EXPECT_TRUE(o.enabled());
}

TEST(FaultInjector, ClassifyIsDeterministicAcrossInstances) {
  FaultInjector::Options o;
  o.read_loss_rate = 0.2;
  o.nack_rate = 0.1;
  o.delay_rate = 0.1;
  o.duplicate_rate = 0.1;
  o.seed = 1234;
  FaultInjector a(o);
  FaultInjector b(o);
  for (int i = 0; i < 2000; ++i) {
    const auto va = a.Classify(WorkType::kRead, i);
    const auto vb = b.Classify(WorkType::kRead, i);
    EXPECT_EQ(va.action, vb.action);
    EXPECT_EQ(va.extra_ns, vb.extra_ns);
  }
  EXPECT_GT(a.injected_drops(), 0u);
  EXPECT_GT(a.injected_nacks(), 0u);
  EXPECT_GT(a.injected_delays(), 0u);
  EXPECT_GT(a.injected_duplicates(), 0u);
}

TEST(FaultInjector, LossRateApproximatelyHonored) {
  FaultInjector::Options o;
  o.read_loss_rate = 0.25;
  o.seed = 7;
  FaultInjector inj(o);
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    inj.Classify(WorkType::kRead, 0);
  }
  const double rate = static_cast<double>(inj.injected_drops()) / n;
  EXPECT_GT(rate, 0.22);
  EXPECT_LT(rate, 0.28);
  EXPECT_EQ(inj.classified(), static_cast<uint64_t>(n));
}

TEST(FaultInjector, WritesUseWriteLossRateAndNeverDuplicate) {
  FaultInjector::Options o;
  o.read_loss_rate = 0.0;
  o.write_loss_rate = 0.0;
  o.duplicate_rate = 1.0;
  FaultInjector inj(o);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(inj.Classify(WorkType::kWrite, 0).action, FaultInjector::Action::kDeliver);
    EXPECT_EQ(inj.Classify(WorkType::kRead, 0).action, FaultInjector::Action::kDuplicate);
  }
}

TEST(FaultInjector, DelaySpikeStaysInConfiguredBand) {
  FaultInjector::Options o;
  o.delay_rate = 1.0;
  FaultInjector inj(o);
  for (int i = 0; i < 500; ++i) {
    const auto v = inj.Classify(WorkType::kRead, 0);
    ASSERT_EQ(v.action, FaultInjector::Action::kDelay);
    EXPECT_GE(v.extra_ns, FaultInjector::kDelayMinNs);
    EXPECT_LE(v.extra_ns, FaultInjector::kDelayMaxNs);
  }
}

TEST(FaultInjector, BrownoutWindowsAndDmaPenalty) {
  FaultInjector::Options o;
  o.brownout_period_ns = 100000;  // Every 100 us...
  o.brownout_duration_ns = 10000;  // ...a 10 us degraded window.
  FaultInjector inj(o);
  EXPECT_TRUE(inj.InBrownout(0));
  EXPECT_TRUE(inj.InBrownout(9999));
  EXPECT_FALSE(inj.InBrownout(10000));
  EXPECT_FALSE(inj.InBrownout(99999));
  EXPECT_TRUE(inj.InBrownout(100001));
  // In-window DMA pays (kBrownoutDmaMultiplier - 1) = 7x extra; out-of-window none.
  EXPECT_EQ(inj.DmaPenaltyNs(5000, 600), 4200);
  EXPECT_EQ(inj.DmaPenaltyNs(50000, 600), 0);
  // Analytic degraded time: two full windows plus half of the third.
  EXPECT_EQ(inj.DegradedNs(205000), 10000u + 10000u + 5000u);
}

TEST(FaultInjector, BlackoutDropsEverythingInsideWindow) {
  FaultInjector::Options o;
  o.blackout_start_ns = 1000;
  o.blackout_duration_ns = 500;
  FaultInjector inj(o);
  EXPECT_EQ(inj.Classify(WorkType::kRead, 999).action, FaultInjector::Action::kDeliver);
  EXPECT_EQ(inj.Classify(WorkType::kRead, 1000).action, FaultInjector::Action::kDrop);
  EXPECT_EQ(inj.Classify(WorkType::kWrite, 1499).action, FaultInjector::Action::kDrop);
  EXPECT_EQ(inj.Classify(WorkType::kRead, 1500).action, FaultInjector::Action::kDeliver);
  EXPECT_EQ(inj.DegradedNs(2000), 500u);
}

TEST(FaultInjector, CorruptKnobsEnableTheInjector) {
  FaultInjector::Options o;
  o.corrupt_rate = 1e-4;
  EXPECT_TRUE(o.enabled());
  o.corrupt_rate = 0.0;
  o.write_poison_rate = 1e-4;
  EXPECT_TRUE(o.enabled());
}

TEST(FaultInjector, CorruptionIsDeterministicAcrossInstances) {
  FaultInjector::Options o;
  o.corrupt_rate = 0.1;
  o.write_poison_rate = 0.05;
  o.read_loss_rate = 0.05;
  o.corrupt_burst = 3;
  o.seed = 4321;
  FaultInjector a(o);
  FaultInjector b(o);
  for (int i = 0; i < 2000; ++i) {
    const WorkType type = i % 3 == 0 ? WorkType::kWrite : WorkType::kRead;
    const auto va = a.Classify(type, i);
    const auto vb = b.Classify(type, i);
    EXPECT_EQ(va.action, vb.action);
    EXPECT_EQ(va.extra_ns, vb.extra_ns);
  }
  EXPECT_GT(a.injected_corruptions(), 0u);
  EXPECT_EQ(a.injected_corruptions(), b.injected_corruptions());
}

TEST(FaultInjector, CorruptRateApproximatelyHonored) {
  FaultInjector::Options o;
  o.corrupt_rate = 0.25;
  o.seed = 11;
  FaultInjector inj(o);
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    inj.Classify(WorkType::kRead, 0);
  }
  const double rate = static_cast<double>(inj.injected_corruptions()) / n;
  EXPECT_GT(rate, 0.22);
  EXPECT_LT(rate, 0.28);
}

TEST(FaultInjector, ReadCorruptAndWritePoisonAreSeparateKnobs) {
  // READ payload corruption and WRITE landing poison are distinct hardware
  // events with distinct rates; neither bleeds into the other's WQE type.
  FaultInjector::Options ro;
  ro.corrupt_rate = 1.0;
  FaultInjector read_only(ro);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(read_only.Classify(WorkType::kRead, 0).action, FaultInjector::Action::kCorrupt);
    EXPECT_EQ(read_only.Classify(WorkType::kWrite, 0).action,
              FaultInjector::Action::kDeliver);
  }
  FaultInjector::Options wo;
  wo.write_poison_rate = 1.0;
  FaultInjector write_only(wo);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(write_only.Classify(WorkType::kWrite, 0).action,
              FaultInjector::Action::kCorrupt);
    EXPECT_EQ(write_only.Classify(WorkType::kRead, 0).action,
              FaultInjector::Action::kDeliver);
  }
}

TEST(FaultInjector, CorruptBurstClaimsFollowingReadsExactly) {
  // Reference run with burst=1 records which draws corrupt independently;
  // the burst=4 run must corrupt those plus exactly the three READs after
  // each trigger, and nothing else (the RNG draw is consumed either way, so
  // the two instances stay in lockstep).
  FaultInjector::Options base;
  base.corrupt_rate = 0.05;
  base.seed = 321;
  FaultInjector independent(base);
  std::vector<bool> indep;
  for (int i = 0; i < 2000; ++i) {
    indep.push_back(independent.Classify(WorkType::kRead, 0).action ==
                    FaultInjector::Action::kCorrupt);
  }
  ASSERT_GT(independent.injected_corruptions(), 0u);

  FaultInjector::Options bo = base;
  bo.corrupt_burst = 4;
  FaultInjector burst(bo);
  int pending = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool corrupt =
        burst.Classify(WorkType::kRead, 0).action == FaultInjector::Action::kCorrupt;
    if (pending > 0) {
      EXPECT_TRUE(corrupt) << "burst tail broken at draw " << i;
      --pending;
    } else if (indep[i]) {
      EXPECT_TRUE(corrupt) << "independent trigger missed at draw " << i;
      pending = 3;
    } else {
      EXPECT_FALSE(corrupt) << "spurious corruption at draw " << i;
    }
  }
}

TEST(FaultInjector, CorruptBurstNeverClaimsWrites) {
  // A burst opened by a READ models a flaky DIMM row on the READ path; an
  // interleaved WRITE still classifies by write_poison_rate (here zero).
  FaultInjector::Options o;
  o.corrupt_rate = 1.0;
  o.corrupt_burst = 8;
  FaultInjector inj(o);
  EXPECT_EQ(inj.Classify(WorkType::kRead, 0).action, FaultInjector::Action::kCorrupt);
  EXPECT_EQ(inj.Classify(WorkType::kWrite, 0).action, FaultInjector::Action::kDeliver);
  EXPECT_EQ(inj.Classify(WorkType::kRead, 0).action, FaultInjector::Action::kCorrupt);
}

// --- Fabric-level fault semantics ---

TEST(FabricFaults, DropSurfacesAsErrorCompletionAfterDetectTimeout) {
  Engine e;
  RdmaFabric fabric(&e, FabricParams{});
  FaultInjector::Options o;
  o.read_loss_rate = 1.0;
  FaultInjector inj(o);
  fabric.set_fault_injector(&inj);
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  ASSERT_TRUE(qp->PostRead(4096, 42));
  e.Run();
  ASSERT_EQ(qp->cq()->size(), 1u);
  Completion c;
  qp->cq()->Poll(1, &c);
  EXPECT_EQ(c.wr_id, 42u);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status, CompletionStatus::kRetryExceeded);
  // The verdict is drawn as the WQE leaves the engine; the transport
  // flushes it exactly kDropDetectNs after that wire entry.
  EXPECT_EQ(c.completed_at, FabricParams{}.wqe_process_ns + FaultInjector::kDropDetectNs);
  EXPECT_EQ(qp->outstanding(), 0u);  // The slot is returned.
}

TEST(FabricFaults, NackSurfacesFasterThanDropDetection) {
  Engine e;
  RdmaFabric fabric(&e, FabricParams{});
  FaultInjector::Options o;
  o.nack_rate = 1.0;
  FaultInjector inj(o);
  fabric.set_fault_injector(&inj);
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  ASSERT_TRUE(qp->PostRead(4096, 7));
  e.Run();
  Completion c;
  ASSERT_EQ(qp->cq()->Poll(1, &c), 1u);
  EXPECT_EQ(c.status, CompletionStatus::kRnrNak);
  EXPECT_LT(c.completed_at, FaultInjector::kDropDetectNs);
  EXPECT_EQ(qp->outstanding(), 0u);
}

TEST(FabricFaults, DroppedBatchOpsAllFlushDetectTimeoutAfterTheSharedWireEntry) {
  // A doorbell batch shares one WQE-engine pass, so all its ops enter the
  // wire together and every drop flushes at wire entry + kDropDetectNs.
  Engine e;
  const FabricParams p;
  RdmaFabric fabric(&e, p);
  FaultInjector::Options o;
  o.read_loss_rate = 1.0;
  FaultInjector inj(o);
  fabric.set_fault_injector(&inj);
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  const ReadOp ops[] = {{1, 0}, {2, 0}, {3, 0}};
  ASSERT_EQ(qp->PostReadBatch(4096, ops, 3), 3u);
  e.Run();
  std::vector<Completion> out(3);
  ASSERT_EQ(qp->cq()->Poll(3, out.begin()), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].wr_id, i + 1);
    EXPECT_EQ(out[i].status, CompletionStatus::kRetryExceeded);
    EXPECT_EQ(out[i].completed_at, p.wqe_process_ns + FaultInjector::kDropDetectNs);
  }
  EXPECT_EQ(inj.injected_drops(), 3u);
  EXPECT_EQ(qp->outstanding(), 0u);
}

TEST(FabricFaults, NackedBatchOpsSurfaceOneRttAfterEachHeaderSerializes) {
  // After the shared engine pass, op k's request header is the (k+1)-th to
  // serialize on c2m; its NAK surfaces kNackRttNs later.
  Engine e;
  const FabricParams p;
  RdmaFabric fabric(&e, p);
  FaultInjector::Options o;
  o.nack_rate = 1.0;
  FaultInjector inj(o);
  fabric.set_fault_injector(&inj);
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  const ReadOp ops[] = {{1, 0}, {2, 0}, {3, 0}};
  ASSERT_EQ(qp->PostReadBatch(4096, ops, 3), 3u);
  e.Run();
  std::vector<Completion> out(3);
  ASSERT_EQ(qp->cq()->Poll(3, out.begin()), 3u);
  const SimDuration hdr_ns = FabricParams::SerializationNs(kHeaderBytes, p.link_gbps);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].wr_id, i + 1);
    EXPECT_EQ(out[i].status, CompletionStatus::kRnrNak);
    EXPECT_EQ(out[i].completed_at, p.wqe_process_ns + (i + 1) * hdr_ns + FaultInjector::kNackRttNs);
  }
  EXPECT_EQ(qp->outstanding(), 0u);
}

TEST(FabricFaults, DuplicateDeliversTwoSuccessCompletionsForOneSlot) {
  Engine e;
  RdmaFabric fabric(&e, FabricParams{});
  FaultInjector::Options o;
  o.duplicate_rate = 1.0;
  FaultInjector inj(o);
  fabric.set_fault_injector(&inj);
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  ASSERT_TRUE(qp->PostRead(4096, 9));
  e.Run();
  ASSERT_EQ(qp->cq()->size(), 2u);
  std::vector<Completion> out(2);
  qp->cq()->Poll(2, out.begin());
  EXPECT_EQ(out[0].wr_id, 9u);
  EXPECT_EQ(out[1].wr_id, 9u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_TRUE(out[1].ok());
  EXPECT_EQ(out[1].completed_at - out[0].completed_at,
            static_cast<SimTime>(FaultInjector::kDuplicateLagNs));
  // Only one WQE slot was consumed and returned.
  EXPECT_EQ(qp->outstanding(), 0u);
  EXPECT_TRUE(qp->PostRead(4096, 10));
}

TEST(FabricFaults, IdealPathUntouchedWithInjectorInstalledButAllZero) {
  // An installed injector with all-zero rates must not change completion
  // timing (it still classifies, but every verdict is kDeliver).
  Engine e1;
  RdmaFabric ideal(&e1, FabricParams{});
  QueuePair* q1 = ideal.CreateQp(ideal.CreateCq());
  ASSERT_TRUE(q1->PostRead(4096, 1));
  e1.Run();
  Completion c1;
  q1->cq()->Poll(1, &c1);

  Engine e2;
  RdmaFabric faulty(&e2, FabricParams{});
  FaultInjector::Options o;  // All zero.
  FaultInjector inj(o);
  faulty.set_fault_injector(&inj);
  QueuePair* q2 = faulty.CreateQp(faulty.CreateCq());
  ASSERT_TRUE(q2->PostRead(4096, 1));
  e2.Run();
  Completion c2;
  q2->cq()->Poll(1, &c2);

  EXPECT_EQ(c1.completed_at, c2.completed_at);
  EXPECT_EQ(c1.status, c2.status);
}

TEST(FabricFaults, CorruptCompletesSuccessfullyAndFiresTheHook) {
  // The corrupt verdict is timing-identical to a clean delivery and the
  // completion reports success — only the fabric's corrupt hook (the
  // integrity ledger's feed) knows anything happened.
  Engine e;
  RdmaFabric fabric(&e, FabricParams{});
  FaultInjector::Options o;
  o.corrupt_rate = 1.0;
  FaultInjector inj(o);
  fabric.set_fault_injector(&inj);
  std::vector<std::pair<uint64_t, WorkType>> hook_calls;
  fabric.set_corrupt_hook([&](uint64_t wr_id, uint32_t, WorkType type) {
    hook_calls.emplace_back(wr_id, type);
  });
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  ASSERT_TRUE(qp->PostRead(4096, 77));
  e.Run();
  Completion c;
  ASSERT_EQ(qp->cq()->Poll(1, &c), 1u);
  EXPECT_TRUE(c.ok());  // Success signaled: the retry path cannot see this.
  EXPECT_EQ(c.wr_id, 77u);
  ASSERT_EQ(hook_calls.size(), 1u);
  EXPECT_EQ(hook_calls[0].first, 77u);
  EXPECT_EQ(hook_calls[0].second, WorkType::kRead);

  // Same post on an ideal fabric: identical completion time.
  Engine e2;
  RdmaFabric ideal(&e2, FabricParams{});
  QueuePair* q2 = ideal.CreateQp(ideal.CreateCq());
  ASSERT_TRUE(q2->PostRead(4096, 77));
  e2.Run();
  Completion c2;
  ASSERT_EQ(q2->cq()->Poll(1, &c2), 1u);
  EXPECT_EQ(c.completed_at, c2.completed_at);
}

// --- End-to-end retry and degradation ---

ArrayApp::Options SmallArray() {
  ArrayApp::Options o;
  o.entries = 1 << 15;  // 2 MiB working set.
  return o;
}

RunResult RunFaulty(SystemConfig cfg, double rps, SimDuration measure = Milliseconds(8)) {
  ArrayApp app(SmallArray());
  MdSystem sys(cfg, &app);
  return sys.Run(rps, Milliseconds(4), measure);
}

TEST(FaultE2e, LossyFabricRetriesAndStillSucceeds) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.read_loss_rate = 0.05;
  RunResult r = RunFaulty(cfg, 150000);
  EXPECT_GT(r.measured, 500u);
  EXPECT_EQ(r.sent, r.completed + r.dropped);  // Nothing wedged or leaked.
  EXPECT_GT(r.fetch_retries, 0u);              // Losses were retried...
  EXPECT_EQ(r.requests_failed, 0u);  // ...and the budget (6) absorbed them:
                                     // P(7 consecutive losses) ~ 8e-10.
  EXPECT_EQ(r.mem.fetch_aborts, 0u);
}

TEST(FaultE2e, RetryBudgetExhaustionFailsRequestsWithoutWedging) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.read_loss_rate = 1.0;  // Every fetch dies; every budget exhausts.
  RunResult r = RunFaulty(cfg, 40000, Milliseconds(5));
  EXPECT_GT(r.requests_failed, 0u);
  EXPECT_GT(r.mem.fetch_aborts, 0u);
  // Graceful degradation: every request still comes back (as an error
  // reply) — the system drains instead of hanging.
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_EQ(r.goodput_rps, 0.0);  // Nothing measured succeeded.
}

TEST(FaultE2e, BrownoutDelaysButDoesNotFail) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.brownout_period_ns = 500000;   // 100 us degraded every 500 us:
  cfg.fault.brownout_duration_ns = 100000;  // 20% of time at 8x DMA cost.
  RunResult slow = RunFaulty(cfg, 150000);
  RunResult base = RunFaulty(SystemConfig::Adios(), 150000);
  EXPECT_EQ(slow.requests_failed, 0u);
  EXPECT_EQ(slow.mem.fetch_aborts, 0u);
  EXPECT_EQ(slow.sent, slow.completed + slow.dropped);
  EXPECT_GT(slow.metrics.Count("fault.degraded_ns"), 0u);
  EXPECT_EQ(base.metrics.Sum("fault.degraded_ns"), 0.0);  // No injector built.
  // 8x DMA (~600 ns -> ~4.8 us) in-window lifts the upper percentiles but
  // stays far below the 25 us fetch deadline.
  EXPECT_GT(slow.e2e.P99(), base.e2e.P99());
  EXPECT_EQ(slow.fetch_timeouts, 0u);
}

TEST(FaultE2e, FaultyRunsAreDeterministic) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.read_loss_rate = 0.03;
  cfg.fault.nack_rate = 0.01;
  cfg.fault.duplicate_rate = 0.01;
  RunResult a = RunFaulty(cfg, 150000);
  RunResult b = RunFaulty(cfg, 150000);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.fetch_retries, b.fetch_retries);
  EXPECT_EQ(a.fetch_timeouts, b.fetch_timeouts);
  EXPECT_EQ(a.requests_failed, b.requests_failed);
  EXPECT_EQ(a.e2e.P50(), b.e2e.P50());
}

TEST(FaultE2e, WriteLossExercisesWritebackRetries) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.write_loss_rate = 0.2;
  MemcachedApp::Options mo;
  mo.num_keys = 1 << 13;
  mo.set_fraction = 0.5;  // SETs dirty pages and force write-backs.
  MemcachedApp app(mo);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(150000, Milliseconds(4), Milliseconds(8));
  EXPECT_GT(r.mem.evictions_dirty, 0u);
  EXPECT_GT(r.writeback_retries, 0u);
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  // Frame conservation at drain: frames in use == resident + in-flight
  // fetches + in-flight write-backs (no frame leaked by retries/aborts).
  MemoryManager& mm = sys.memory_manager();
  const uint64_t used = mm.local_pages() - mm.free_frames();
  EXPECT_EQ(used, mm.page_table().resident_pages() + mm.page_table().fetching_pages() +
                      sys.reclaimer().writebacks_inflight());
}

TEST(FaultE2e, TotalWriteLossAbortsWritebacksWithoutLeakingFrames) {
  // Every WRITE is lost: each write-back burns its whole retry budget and is
  // then dropped (the single-node writeback abort). The dropped replica's
  // frame must still come back, and every request must still drain.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.write_loss_rate = 1.0;
  MemcachedApp::Options mo;
  mo.num_keys = 1 << 13;
  mo.set_fraction = 0.5;
  MemcachedApp app(mo);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(150000, Milliseconds(4), Milliseconds(8));
  EXPECT_GT(r.mem.evictions_dirty, 0u);
  EXPECT_GT(r.writeback_retries, 0u);
  EXPECT_GT(r.metrics.Count("reclaimer.writeback_aborts"), 0u);
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  MemoryManager& mm = sys.memory_manager();
  const uint64_t used = mm.local_pages() - mm.free_frames();
  EXPECT_EQ(sys.reclaimer().writebacks_inflight(), 0u);
  EXPECT_EQ(used, mm.page_table().resident_pages() + mm.page_table().fetching_pages() +
                      sys.reclaimer().writebacks_inflight());
}

TEST(FaultE2e, TotalWriteLossKeepsWritebackAccountingAudited) {
  // Dropped write-backs linger a whole retry budget, so the reclaimer often
  // re-evicts a page whose previous fan-out is still settling and waits for
  // it. That counted-but-unposted write-back must stay visible to the
  // fan-out audit (pages tracked == write-backs in flight) while it waits.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.write_loss_rate = 1.0;
  cfg.check.enabled = true;
  cfg.check.fatal = false;
  MemcachedApp::Options mo;
  mo.num_keys = 1 << 13;
  mo.set_fraction = 0.5;
  MemcachedApp app(mo);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(150000, Milliseconds(4), Milliseconds(8));
  EXPECT_GT(r.metrics.Count("reclaimer.writeback_aborts"), 0u);
  ASSERT_NE(sys.invariant_checker(), nullptr);
  EXPECT_GT(sys.invariant_checker()->report().audits, 10u);
  EXPECT_EQ(sys.invariant_checker()->report().violations, 0u);
}

}  // namespace
}  // namespace adios
