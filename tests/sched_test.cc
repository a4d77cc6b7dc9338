// Scheduler-level behavior observed through the assembled system:
// dispatch policies (Algorithm 1), polling delegation, preemption quanta;
// and the dispatcher's RX-ring bound, on a dispatcher alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/apps/array_app.h"
#include "src/apps/rocksdb_app.h"
#include "src/core/md_system.h"
#include "src/ctrl/overload_control.h"
#include "src/sched/dispatcher.h"

namespace adios {
namespace {

ArrayApp::Options MediumArray() {
  ArrayApp::Options o;
  o.entries = 1 << 17;  // 8 MiB.
  return o;
}

TEST(Dispatch, PfAwareNeverWorseThanRoundRobinOnTail) {
  // Algorithm 1 balances in-flight fetches across QPs; at high load its
  // P99.9 must not exceed round-robin's by more than noise.
  auto run = [](DispatchPolicy policy) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.sched.dispatch_policy = policy;
    ArrayApp app(MediumArray());
    MdSystem sys(cfg, &app);
    return sys.Run(2.0e6, Milliseconds(8), Milliseconds(25));
  };
  RunResult pf = run(DispatchPolicy::kPfAware);
  RunResult rr = run(DispatchPolicy::kRoundRobin);
  EXPECT_LE(static_cast<double>(pf.e2e.Percentile(99.9)),
            1.10 * static_cast<double>(rr.e2e.Percentile(99.9)));
}

TEST(Dispatch, WorkersShareLoadEvenly) {
  SystemConfig cfg = SystemConfig::Adios();
  ArrayApp app(MediumArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(1.0e6, Milliseconds(5), Milliseconds(20));
  ASSERT_EQ(r.sent, r.completed + r.dropped);
  uint64_t min_c = ~0ull;
  uint64_t max_c = 0;
  for (auto& w : sys.workers()) {
    min_c = std::min(min_c, w->completed());
    max_c = std::max(max_c, w->completed());
  }
  EXPECT_GT(min_c, 0u);
  EXPECT_LT(static_cast<double>(max_c), 1.5 * static_cast<double>(min_c));
}

// The order Algorithm 1 puts the idle workers in at the start of a dispatch
// pass: SortByOutstandingPFCount under kPfAware, with ties (and the
// baselines entirely) ordered by distance from the round-robin cursor.
std::vector<uint32_t> SortedIdleWorkers(DispatchPolicy policy,
                                        const std::vector<uint32_t>& faults,
                                        const std::vector<bool>& idle, uint32_t cursor) {
  const uint32_t n = static_cast<uint32_t>(faults.size());
  std::vector<uint32_t> order;
  for (uint32_t w = 0; w < n; ++w) {
    if (idle[w]) {
      order.push_back(w);
    }
  }
  auto rank = [n, cursor](uint32_t w) { return (w + n - cursor) % n; };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (policy == DispatchPolicy::kPfAware && faults[a] != faults[b]) {
      return faults[a] < faults[b];
    }
    return rank(a) < rank(b);
  });
  return order;
}

TEST(Dispatch, AssignmentOrderMatchesSortedIdleWorkers) {
  // Outstanding fetches per worker, with ties at 0, 1 and 2.
  const std::vector<uint32_t> faults = {2, 0, 1, 0, 2, 1};
  const uint32_t n = static_cast<uint32_t>(faults.size());
  for (const DispatchPolicy policy : {DispatchPolicy::kPfAware, DispatchPolicy::kRoundRobin,
                                      DispatchPolicy::kWorkStealing}) {
    SCOPED_TRACE(static_cast<int>(policy));
    SystemConfig cfg = SystemConfig::Adios();
    cfg.num_workers = n;
    cfg.sched.dispatch_policy = policy;
    ArrayApp app(MediumArray());
    MdSystem sys(cfg, &app);
    sys.tracer().Enable(1024);
    // Only the dispatcher fiber runs: workers keep what they are assigned,
    // and READs posted at time 0 are still in flight after each
    // sub-microsecond dispatch pass.
    uint64_t wr_id = 0;
    for (uint32_t w = 0; w < n; ++w) {
      for (uint32_t i = 0; i < faults[w]; ++i) {
        ASSERT_TRUE(sys.workers()[w]->mem_qp()->PostRead(4096, ++wr_id));
      }
    }
    sys.dispatcher().Start();

    // A pass of one request moves the cursor; a pass of five then spans
    // every fault tie.
    std::vector<Request> reqs(6);
    std::vector<bool> idle(n, true);
    std::vector<uint32_t> expected;
    uint32_t cursor = 0;
    size_t next = 0;
    SimTime horizon = 0;
    for (const size_t batch : {size_t{1}, size_t{5}}) {
      for (uint32_t w = 0; w < n; ++w) {
        ASSERT_EQ(sys.workers()[w]->OutstandingFaults(), faults[w]);
      }
      const std::vector<uint32_t> order = SortedIdleWorkers(policy, faults, idle, cursor);
      ASSERT_GE(order.size(), batch);
      for (size_t i = 0; i < batch; ++i) {
        reqs[next].id = next + 1;
        sys.dispatcher().OnRx(&reqs[next++]);
        expected.push_back(order[i]);
        // A centralized worker's mailbox holds one request; work stealing
        // queues more.
        idle[order[i]] = policy == DispatchPolicy::kWorkStealing;
      }
      cursor = (order[batch - 1] + 1) % n;
      horizon += Microseconds(1);
      sys.engine().RunUntil(horizon);
    }
    std::vector<uint32_t> assigned;
    for (const TraceRecord& rec : sys.tracer().records()) {
      if (rec.event == TraceEvent::kDispatch) {
        assigned.push_back(rec.arg);
      }
    }
    EXPECT_EQ(assigned, expected);
  }
}

TEST(PollingDelegation, DisablingItAddsTxWait) {
  auto run = [](bool delegation) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.sched.polling_delegation = delegation;
    ArrayApp app(MediumArray());
    MdSystem sys(cfg, &app);
    return sys.Run(600000, Milliseconds(5), Milliseconds(15));
  };
  RunResult with = run(true);
  RunResult without = run(false);
  uint64_t tx_with = 0;
  uint64_t tx_without = 0;
  for (const auto& s : with.samples) {
    tx_with += s.tx_ns;
  }
  for (const auto& s : without.samples) {
    tx_without += s.tx_ns;
  }
  EXPECT_EQ(tx_with, 0u);
  EXPECT_GT(tx_without, 0u);
}

TEST(PollingDelegation, BetterLatencyNearSaturation) {
  // Fig. 9: near the no-delegation saturation point, delegation removes the
  // synchronous TX wait from every request (median) and its HOL effects
  // (tail). Peak-throughput gains depend on the binding resource; latency
  // gains are the robust property.
  auto run = [](bool delegation) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.sched.polling_delegation = delegation;
    ArrayApp app(MediumArray());
    MdSystem sys(cfg, &app);
    return sys.Run(2.2e6, Milliseconds(8), Milliseconds(25));
  };
  RunResult with = run(true);
  RunResult without = run(false);
  EXPECT_LT(with.e2e.P50(), without.e2e.P50());
  EXPECT_LE(with.e2e.P999(), without.e2e.P999());
  EXPECT_GE(with.throughput_rps, 0.98 * without.throughput_rps);
}

TEST(Preemption, RespectsQuantumOnLongScans) {
  // SCAN(100) runs for far more than 5 us; DiLOS-P must preempt it several
  // times, while plain DiLOS never requeues.
  RocksDbApp::Options ro;
  ro.num_keys = 1 << 14;
  ro.value_bytes = 256;
  ro.scan_fraction = 1.0;  // Scans only.
  auto run = [&ro](SystemConfig cfg) {
    RocksDbApp app(ro);
    MdSystem sys(cfg, &app);
    return sys.Run(5000, Milliseconds(5), Milliseconds(20));
  };
  RunResult p = run(SystemConfig::DiLOSP());
  RunResult d = run(SystemConfig::DiLOS());
  EXPECT_EQ(d.metrics.Count("worker.preempt_fires"), 0u);
  ASSERT_GT(p.measured, 20u);
  EXPECT_GT(p.metrics.Count("worker.preempt_fires"), p.measured);  // Multiple preemptions per scan.
}

TEST(Preemption, ShorterIntervalPreemptsMore) {
  RocksDbApp::Options ro;
  ro.num_keys = 1 << 14;
  ro.value_bytes = 256;
  ro.scan_fraction = 1.0;
  auto run = [&ro](SimDuration interval) {
    SystemConfig cfg = SystemConfig::DiLOSP();
    cfg.sched.preempt_interval_ns = interval;
    RocksDbApp app(ro);
    MdSystem sys(cfg, &app);
    return sys.Run(5000, Milliseconds(5), Milliseconds(15));
  };
  RunResult fast = run(2000);
  RunResult slow = run(20000);
  EXPECT_GT(fast.metrics.Count("worker.preempt_fires"),
            2 * slow.metrics.Count("worker.preempt_fires"));
}

TEST(QpBackpressure, TinyQpDepthStallsButCompletes) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fabric.qp_depth = 2;  // Absurdly small: force §5.2's QP-full path.
  ArrayApp app(MediumArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(1.2e6, Milliseconds(5), Milliseconds(15));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.qp_full_stalls, 0u);
}

TEST(UnithreadPoolBackpressure, TinyPoolStillCompletes) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.pool.count = 16;  // Pool exhaustion exercises dispatcher back-off.
  ArrayApp app(MediumArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(1.5e6, Milliseconds(5), Milliseconds(15));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.measured, 1000u);
}

TEST(Reclaim, TinyLocalCacheDoesNotDeadlock) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.local_memory_ratio = 0.02;  // Brutal memory pressure.
  ArrayApp::Options ao;
  ao.entries = 1 << 16;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(400000, Milliseconds(5), Milliseconds(15));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.measured, 1000u);
}

TEST(RxRing, ArrivalBeyondTheBoundIsDroppedAndCounted) {
  // The dispatcher fiber never starts, so nothing drains the RX ring (or
  // touches the worker list): the first kRxRingSize arrivals queue, and the
  // next one is dropped at the ring.
  Engine engine;
  CpuCore core(&engine, CycleClock(2000), "dispatcher");
  UnithreadPool::Options popts;
  popts.count = 1;
  popts.buffer_size = 16384;
  UnithreadPool pool(popts);
  CompletionQueue cq(0);
  MetricRegistry registry;
  OverloadController ctrl(&engine, CtrlConfig{}, 1, &registry);
  std::vector<Request*> dropped;
  Dispatcher dispatcher(&engine, &core, &pool, &cq, {nullptr}, &ctrl, SchedConfig{},
                        [&dropped](Request* req) { dropped.push_back(req); });
  dispatcher.RegisterMetrics(&registry);

  std::vector<Request> arrivals(kRxRingSize + 1);
  for (Request& req : arrivals) {
    dispatcher.OnRx(&req);
  }
  EXPECT_EQ(dispatcher.queue_depth(), kRxRingSize);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], &arrivals.back());
  EXPECT_EQ(registry.Snapshot().Count("dispatcher.dropped"), 1u);
  EXPECT_EQ(registry.Snapshot().Count("dispatcher.received"), kRxRingSize + 1u);
}

}  // namespace
}  // namespace adios
