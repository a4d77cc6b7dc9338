// Tests for the extension features: kernel-yield (Infiniswap-class)
// baseline, work-stealing dispatch, configurable page granularity, Zipf key
// skew, and the PF-imbalance telemetry.

#include <gtest/gtest.h>

#include "src/apps/array_app.h"
#include "src/apps/silo_app.h"
#include "src/core/md_system.h"

namespace adios {
namespace {

ArrayApp::Options MediumArray() {
  ArrayApp::Options o;
  o.entries = 1 << 17;
  return o;
}

TEST(KernelYield, InfiniswapCompletesAndConserves) {
  ArrayApp app(MediumArray());
  MdSystem sys(SystemConfig::Infiniswap(), &app);
  RunResult r = sys.Run(150000, Milliseconds(5), Milliseconds(12));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.measured, 500u);
  EXPECT_GT(r.worker_yields, 100u);  // It yields — through the kernel.
}

TEST(KernelYield, MuchSlowerThanAdiosDespiteYielding) {
  // The paper's point (§7): yielding through the kernel scheduler costs so
  // much that busy-waiting won — and Adios' unithread yield beats both.
  ArrayApp iapp(MediumArray());
  MdSystem infiniswap(SystemConfig::Infiniswap(), &iapp);
  RunResult ri = infiniswap.Run(150000, Milliseconds(5), Milliseconds(12));
  ArrayApp aapp(MediumArray());
  MdSystem adios(SystemConfig::Adios(), &aapp);
  RunResult ra = adios.Run(150000, Milliseconds(5), Milliseconds(12));
  EXPECT_GT(ri.e2e.P50(), 3 * ra.e2e.P50());
  EXPECT_GT(ri.e2e.P999(), 3 * ra.e2e.P999());
}

TEST(KernelYield, LowerPeakThroughput) {
  ArrayApp iapp(MediumArray());
  MdSystem infiniswap(SystemConfig::Infiniswap(), &iapp);
  RunResult ri = infiniswap.Run(2.5e6, Milliseconds(5), Milliseconds(12));
  EXPECT_GT(ri.dropped, 0u);
  EXPECT_LT(ri.throughput_rps, 1.2e6);  // Paper measured 261 K on hardware.
}

TEST(WorkStealing, CompletesAndActuallySteals) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.sched.dispatch_policy = DispatchPolicy::kWorkStealing;
  ArrayApp app(MediumArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(1.5e6, Milliseconds(5), Milliseconds(12));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  uint64_t steals = 0;
  for (auto& w : sys.workers()) {
    steals += w->steals();
  }
  EXPECT_GT(steals, 0u);
}

TEST(WorkStealing, CentralizedNoWorseOnLowDispersion) {
  // §3.4: for low-dispersion highly concurrent workloads the queue scans of
  // work stealing are overhead; centralized FCFS must not lose.
  auto run = [](DispatchPolicy policy) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.sched.dispatch_policy = policy;
    ArrayApp app(MediumArray());
    MdSystem sys(cfg, &app);
    return sys.Run(2.0e6, Milliseconds(6), Milliseconds(16));
  };
  RunResult central = run(DispatchPolicy::kPfAware);
  RunResult stealing = run(DispatchPolicy::kWorkStealing);
  EXPECT_LE(static_cast<double>(central.e2e.P999()),
            1.15 * static_cast<double>(stealing.e2e.P999()));
  EXPECT_GE(central.throughput_rps, 0.97 * stealing.throughput_rps);
}

TEST(PageGranularity, HugePagesAmplifyIo) {
  // §5.2: 2 MiB pages turn every fault into a 512x larger fetch. At equal
  // load, bytes fetched (and latency) must explode vs 4 KiB paging.
  auto run = [](uint32_t shift) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.page_shift = shift;
    SiloApp::Options so;
    so.warehouses = 2;
    SiloApp app(so);
    MdSystem sys(cfg, &app);
    return sys.Run(30000, Milliseconds(6), Milliseconds(14));
  };
  RunResult small = run(12);
  RunResult huge = run(18);  // 256 KiB pages already show the effect clearly.
  EXPECT_EQ(small.sent, small.completed + small.dropped);
  EXPECT_EQ(huge.sent, huge.completed + huge.dropped);
  EXPECT_GT(huge.e2e.P50(), 2 * small.e2e.P50());
  EXPECT_GT(huge.rdma_utilization, 2 * small.rdma_utilization);
}

TEST(PageGranularity, FewerPagesAtCoarserGranularity) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.page_shift = 16;  // 64 KiB.
  ArrayApp app(MediumArray());
  MdSystem sys(cfg, &app);
  EXPECT_EQ(sys.memory_manager().page_bytes(), 65536u);
  // 8 MiB working set -> 128 pages + rounding.
  EXPECT_LE(sys.memory_manager().page_table().num_pages(), 130u);
  RunResult r = sys.Run(200000, Milliseconds(4), Milliseconds(8));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
}

TEST(KeySkew, ZipfReducesFaultRate) {
  auto run = [](double skew) {
    SystemConfig cfg = SystemConfig::Adios();
    ArrayApp::Options o;
    o.entries = 1 << 17;
    o.key_skew = skew;
    ArrayApp app(o);
    MdSystem sys(cfg, &app);
    return sys.Run(500000, Milliseconds(6), Milliseconds(12));
  };
  RunResult uniform = run(0.0);
  RunResult skewed = run(0.99);
  const double uniform_rate =
      static_cast<double>(uniform.mem.faults) / static_cast<double>(uniform.completed);
  const double skewed_rate =
      static_cast<double>(skewed.mem.faults) / static_cast<double>(skewed.completed);
  EXPECT_LT(skewed_rate, 0.6 * uniform_rate);  // Hot head lives in local DRAM.
}

TEST(Telemetry, OutstandingAndImbalanceSampled) {
  ArrayApp app(MediumArray());
  MdSystem sys(SystemConfig::Adios(), &app);
  RunResult r = sys.Run(1.5e6, Milliseconds(5), Milliseconds(15));
  EXPECT_GT(r.mean_outstanding_pf, 0.0);   // Fetches were in flight.
  EXPECT_GE(r.pf_imbalance_stddev, 0.0);
}

TEST(Telemetry, OutstandingScalesWithLoad) {
  auto run = [](double rps) {
    ArrayApp::Options o;
    o.entries = 1 << 18;
    ArrayApp app(o);
    MdSystem sys(SystemConfig::Adios(), &app);
    return sys.Run(rps, Milliseconds(5), Milliseconds(12));
  };
  RunResult lo = run(400000);
  RunResult hi = run(2.0e6);
  EXPECT_GT(hi.mean_outstanding_pf, 2 * lo.mean_outstanding_pf);
}

}  // namespace
}  // namespace adios
