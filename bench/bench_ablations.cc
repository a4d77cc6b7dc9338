// Ablation benches for the design choices DESIGN.md calls out:
//
//   A1. Proactive (pinned) reclaimer vs wake-up-based reclaimer (§3.3).
//   A2. Per-QP round-robin link arbitration vs global FIFO — the fabric
//       property PF-aware dispatching exploits (§3.4).
//   A3. Preemption-interval sweep for DiLOS-P on the SCAN-heavy mix (§2.3).
//   A4. Unithread pool sizing: back-pressure when pre-allocation is small
//       (§3.2's provisioning discussion).
//   A5. Sequential prefetching window on a scan-heavy workload (§2.3's
//       overlap-with-I/O baseline technique).

#include "bench/bench_util.h"
#include "src/apps/array_app.h"
#include "src/apps/rocksdb_app.h"
#include "src/apps/silo_app.h"

namespace adios {
namespace {

void ReclaimerAblation(const BenchTiming& timing) {
  // The paper's reclaimer argument (§3.3): a wake-up-based reclaimer risks
  // allocation overtaking reclamation. With the default 15% watermark the
  // free-frame buffer absorbs large wake-up delays, so this ablation thins
  // the buffer (2% watermark) to expose the mechanism.
  PrintHeader("Ablation A1",
              "Proactive vs wake-up reclaimer (Silo TPC-C, thin free-frame buffer)");
  TablePrinter table({"reclaimer", "wake-delay(us)", "tput(K)", "P99.9(us)", "frame-stalls"});
  for (int mode = 0; mode < 3; ++mode) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.reclaim.wakeup_delay_ns = mode == 0 ? 0 : (mode == 1 ? 50000 : 500000);
    cfg.reclaim_low_watermark = 0.02;
    cfg.reclaim_high_watermark = 0.05;
    SiloApp::Options so;
    so.warehouses = 4;
    SiloApp app(so);
    MdSystem sys(cfg, &app);
    RunResult r = sys.Run(330e3, timing.warmup, timing.measure);
    table.AddRow({mode == 0 ? "proactive (pinned)" : "wake-up",
                  StrFormat("%.0f", cfg.reclaim.wakeup_delay_ns / 1000.0),
                  Krps(r.throughput_rps), Us(r.e2e.P999()),
                  StrFormat("%llu", static_cast<unsigned long long>(r.mem.frame_stalls))});
  }
  table.Print();
  std::printf("(frame stalls are allocation waiting on reclamation — the out-of-memory\n"
              " freeze risk the pinned proactive reclaimer removes)\n");
}

void LinkDisciplineAblation(const BenchTiming& timing) {
  PrintHeader("Ablation A2", "Per-QP round-robin vs global FIFO links (+ dispatch policy)");
  ArrayApp::Options wl;
  wl.entries = 1ull << 20;
  TablePrinter table({"links", "dispatch", "tput(K)", "P99(us)", "P99.9(us)"});
  for (bool fifo : {false, true}) {
    for (DispatchPolicy policy : {DispatchPolicy::kRoundRobin, DispatchPolicy::kPfAware}) {
      SystemConfig cfg = SystemConfig::Adios();
      cfg.fabric.fifo_links = fifo;
      cfg.sched.dispatch_policy = policy;
      ArrayApp app(wl);
      MdSystem sys(cfg, &app);
      RunResult r = sys.Run(2.6e6, timing.warmup, timing.measure);
      table.AddRow({fifo ? "FIFO" : "RR (fair)",
                    policy == DispatchPolicy::kPfAware ? "PF-aware" : "round-robin",
                    Krps(r.throughput_rps), Us(r.e2e.P99()), Us(r.e2e.P999())});
    }
  }
  table.Print();
  std::printf("(with symmetric per-worker load, global FCFS can edge out fair queueing on\n"
              " average wait; per-QP arbitration pays off under *imbalance* — see the\n"
              " imbalance columns of Figs. 10(e)/11(e))\n");
}

void PreemptIntervalAblation(const BenchTiming& timing) {
  PrintHeader("Ablation A3", "DiLOS-P preemption interval (RocksDB 99/1 GET/SCAN mix)");
  RocksDbApp::Options ro;
  ro.num_keys = 1ull << 18;
  TablePrinter table({"interval(us)", "GET P50(us)", "GET P99.9(us)", "SCAN P99.9(us)",
                      "preemptions"});
  for (SimDuration interval : {2000u, 5000u, 10000u, 20000u, 1000000u}) {
    SystemConfig cfg = SystemConfig::DiLOSP();
    cfg.sched.preempt_interval_ns = interval;
    RocksDbApp app(ro);
    MdSystem sys(cfg, &app);
    RunResult r = sys.Run(450e3, timing.warmup, timing.measure);
    table.AddRow({StrFormat("%.0f", interval / 1000.0), Us(r.ops[0].e2e.P50()),
                  Us(r.ops[0].e2e.P999()), Us(r.ops[1].e2e.P999()),
                  StrFormat("%llu", static_cast<unsigned long long>(r.requeues))});
  }
  table.Print();
  std::printf("(paper uses 5 us — the Shinjuku/Concord default; 1000 us ~= no preemption)\n");
}

void PoolSizingAblation(const BenchTiming& timing) {
  PrintHeader("Ablation A4", "Unithread pool sizing (pre-allocation back-pressure)");
  ArrayApp::Options wl;
  wl.entries = 1ull << 20;
  TablePrinter table({"pool", "tput(K)", "P99.9(us)", "drops"});
  for (size_t count : {8u, 32u, 256u, 8192u}) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.pool.count = count;
    ArrayApp app(wl);
    MdSystem sys(cfg, &app);
    RunResult r = sys.Run(2.2e6, timing.warmup, timing.measure);
    table.AddRow({StrFormat("%zu", count), Krps(r.throughput_rps), Us(r.e2e.P999()),
                  StrFormat("%llu", static_cast<unsigned long long>(r.dropped))});
  }
  table.Print();
}

void PrefetchAblation(const BenchTiming& timing) {
  PrintHeader("Ablation A5", "Sequential prefetch window (RocksDB, SCAN-heavy 10% mix)");
  RocksDbApp::Options ro;
  ro.num_keys = 1ull << 18;
  ro.scan_fraction = 0.10;
  TablePrinter table({"window", "tput(K)", "SCAN P50(us)", "SCAN P99.9(us)", "prefetches"});
  for (uint32_t window : {0u, 2u, 8u, 32u}) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.sched.prefetch_window = window;
    RocksDbApp app(ro);
    MdSystem sys(cfg, &app);
    RunResult r = sys.Run(200e3, timing.warmup, timing.measure);
    table.AddRow({StrFormat("%u", window), Krps(r.throughput_rps), Us(r.ops[1].e2e.P50()),
                  Us(r.ops[1].e2e.P999()),
                  StrFormat("%llu", static_cast<unsigned long long>(r.mem.prefetches))});
  }
  table.Print();
  std::printf("(index pages are sequential; record pages are random — modest gains expected)\n");
}

void DispatchPolicyAblation(const BenchTiming& timing) {
  PrintHeader("Ablation A6",
              "Centralized FCFS (RR / PF-aware) vs ZygOS-style work stealing (§3.4)");
  ArrayApp::Options wl;
  wl.entries = 1ull << 20;
  TablePrinter table({"policy", "tput(K)", "P99(us)", "P99.9(us)", "steals", "pf-imbalance"});
  for (DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kPfAware, DispatchPolicy::kWorkStealing}) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.sched.dispatch_policy = policy;
    ArrayApp app(wl);
    MdSystem sys(cfg, &app);
    RunResult r = sys.Run(2.4e6, timing.warmup, timing.measure);
    uint64_t steals = 0;
    for (auto& w : sys.workers()) {
      steals += w->steals();
    }
    const char* name = policy == DispatchPolicy::kRoundRobin  ? "centralized RR"
                       : policy == DispatchPolicy::kPfAware   ? "centralized PF-aware"
                                                              : "work stealing";
    table.AddRow({name, Krps(r.throughput_rps), Us(r.e2e.P99()), Us(r.e2e.P999()),
                  StrFormat("%llu", static_cast<unsigned long long>(steals)),
                  StrFormat("%.2f", r.pf_imbalance_stddev)});
  }
  table.Print();
  std::printf("(the paper rejects work stealing: queue scans are pure overhead for this\n"
              " low-dispersion, highly concurrent workload class)\n");
}

void PageGranularityAblation(const BenchTiming& timing) {
  PrintHeader("Ablation A7",
              "Paging granularity: 4 KiB vs huge pages (§5.2's 512x I/O amplification)");
  SiloApp::Options so;
  so.warehouses = 4;
  TablePrinter table({"page", "tput(K)", "P50(us)", "P99.9(us)", "rdma-util", "faults/req"});
  for (uint32_t shift : {12u, 14u, 16u, 18u, 21u}) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.page_shift = shift;
    SiloApp app(so);
    MdSystem sys(cfg, &app);
    RunResult r = sys.Run(50e3, timing.warmup, timing.measure);
    table.AddRow({StrFormat("%llu KiB", (1ull << shift) / 1024), Krps(r.throughput_rps),
                  Us(r.e2e.P50()), Us(r.e2e.P999()), Pct(r.rdma_utilization),
                  StrFormat("%.2f", r.measured == 0
                                        ? 0.0
                                        : static_cast<double>(r.mem.faults) /
                                              static_cast<double>(r.measured))});
  }
  table.Print();
  std::printf("(the paper extends Silo to 4 KiB pages because 2 MiB pages amplify every\n"
              " fault into a 2 MiB fetch — watch latency and link load explode)\n");
}

void KeySkewAblation(const BenchTiming& timing) {
  PrintHeader("Ablation A8", "Key-popularity skew (Zipf) vs the paper's uniform keys");
  TablePrinter table({"skew", "tput(K)", "P50(us)", "P99.9(us)", "faults/req"});
  for (double skew : {0.0, 0.9, 0.99}) {
    SystemConfig cfg = SystemConfig::Adios();
    ArrayApp::Options wl;
    wl.entries = 1ull << 20;
    wl.key_skew = skew;
    ArrayApp app(wl);
    MdSystem sys(cfg, &app);
    RunResult r = sys.Run(2.0e6, timing.warmup, timing.measure);
    table.AddRow({StrFormat("%.2f", skew), Krps(r.throughput_rps), Us(r.e2e.P50()),
                  Us(r.e2e.P999()),
                  StrFormat("%.2f", r.measured == 0
                                        ? 0.0
                                        : static_cast<double>(r.mem.faults) /
                                              static_cast<double>(r.measured))});
  }
  table.Print();
  std::printf("(skewed keys concentrate the hot set in local DRAM: fewer faults,\n"
              " flatter tails — uniform keys are the adversarial case the paper uses)\n");
}

}  // namespace
}  // namespace adios

int main() {
  const adios::BenchTiming timing = adios::DefaultTiming();
  adios::ReclaimerAblation(timing);
  adios::LinkDisciplineAblation(timing);
  adios::PreemptIntervalAblation(timing);
  adios::PoolSizingAblation(timing);
  adios::PrefetchAblation(timing);
  adios::DispatchPolicyAblation(timing);
  adios::PageGranularityAblation(timing);
  adios::KeySkewAblation(timing);
  return 0;
}
