// Worker-count scalability of the single-queue MD scheduler (paper §6:
// "single queueing with a dedicated dispatcher thread can scale up to about
// ten worker cores").
//
// Two parts:
//  1. The legacy sweep: achieved throughput plus dispatcher utilization vs
//     worker count — throughput grows until the dispatcher (or NIC) binds.
//  2. A paging-datapath comparison (docs/DATAPATH.md): the same sweep under
//     a serialized page-table model (one global lock, every access pays the
//     hold time) and under the lock-free datapath (sharded CAS words,
//     sharded clock, per-worker frame-credit caches). The serialized curve
//     plateaus at the lock's throughput ceiling; the lock-free curve keeps
//     scaling. The comparison is a gate: the bench exits nonzero when the
//     lock-free datapath fails to deliver >= 1.6x goodput at 8 workers over
//     1 worker, or when the serialized baseline out-scales it.
//
// Every run must also close its drop ledger: once the run drains, each
// request the load generator sent was either completed or dropped. A
// stranded request fails the bench too.
//
// ADIOS_BENCH_QUICK=1 shrinks run times for CI.

#include <string>

#include "bench/bench_util.h"
#include "src/apps/array_app.h"

namespace adios {
namespace {

// The drop ledger of one run: sent == completed + dropped.
bool LedgerClosed(const std::string& cell, const RunResult& r) {
  if (r.sent == r.completed + r.dropped) {
    return true;
  }
  std::printf("FAIL: %s strands requests: sent %llu != completed %llu + dropped %llu\n",
              cell.c_str(), static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.dropped));
  return false;
}

bool RunLegacySweep() {
  const BenchTiming timing = DefaultTiming();
  ArrayApp::Options wl;
  wl.entries = kArrayEntries;

  std::vector<uint32_t> worker_counts = {1, 2, 4, 6, 8, 10, 12, 14, 16};
  if (BenchQuickMode()) {
    worker_counts = {2, 8, 16};
  }

  PrintHeader("Scalability (paper §6)",
              "Adios throughput vs worker count, single dispatcher (400 Gb/s-class NIC)");
  std::printf("(on the testbed's 100 GbE NIC the fabric saturates before the dispatcher;\n"
              " §5.2 points to 200/400 Gbps RNICs, which expose §6's dispatcher limit)\n");
  TablePrinter table({"workers", "tput(K)", "tput/worker(K)", "disp-util", "rdma-util",
                      "P99.9(us)@80%"});
  bool ok = true;
  for (uint32_t n : worker_counts) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.num_workers = n;
    cfg.fabric.link_gbps = 400.0;   // ConnectX-7-class (§5.2 outlook).
    cfg.fabric.wqe_process_ns = 60;

    // Peak: overdrive well beyond any capacity.
    ArrayApp app1(wl);
    MdSystem peak_sys(cfg, &app1);
    RunResult peak = peak_sys.Run(4.2e6 + 0.6e6 * n, timing.warmup, timing.measure);

    // Tail at 80% of the measured peak.
    ArrayApp app2(wl);
    MdSystem probe_sys(cfg, &app2);
    RunResult probe = probe_sys.Run(0.8 * peak.throughput_rps, timing.warmup, timing.measure);
    ok &= LedgerClosed(StrFormat("sweep/%uw peak", n), peak);
    ok &= LedgerClosed(StrFormat("sweep/%uw probe", n), probe);

    table.AddRow({StrFormat("%u", n), Krps(peak.throughput_rps),
                  Krps(peak.throughput_rps / n), Pct(peak.dispatcher_utilization),
                  Pct(peak.rdma_utilization), Us(probe.e2e.P999())});
  }
  table.Print();
  std::printf("(throughput per worker collapses once the shared dispatcher or NIC binds)\n");
  return ok;
}

// One datapath mode of the serialized-vs-lockfree comparison.
SystemConfig DatapathConfig(bool lockfree, uint32_t workers) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.num_workers = workers;
  cfg.fabric.link_gbps = 400.0;
  cfg.fabric.wqe_process_ns = 60;
  if (lockfree) {
    // The lock-free datapath: page-state CAS words (a mutating transition
    // costs one contended CAS), sharded clock hands, per-worker free-frame
    // credit caches. Hot hits pay nothing.
    cfg.sync_model = MmSyncModel::kShardedCas;
    cfg.sync_cas_ns = 30;
    cfg.clock_shards = 8;
    cfg.frame_cache_size = 16;
    cfg.evict_scan_budget = 256;
  } else {
    // The serialized baseline: one page-table lock, every access — hit or
    // miss — holds it. Throughput through the paging layer is capped at
    // 1/hold regardless of the worker count, so the curve plateaus.
    cfg.sync_model = MmSyncModel::kGlobalLock;
    cfg.sync_hold_ns = 800;
  }
  return cfg;
}

bool RunDatapathComparison() {
  const BenchTiming timing = DefaultTiming();
  ArrayApp::Options wl;
  wl.entries = kArrayEntries;
  const std::vector<uint32_t> worker_counts = {1, 2, 4, 8};

  PrintHeader("Paging-datapath scalability (docs/DATAPATH.md)",
              "serialized page-table lock vs lock-free sharded datapath");
  TablePrinter table({"datapath", "workers", "goodput(K)", "speedup-vs-1w", "P99(us)"});
  std::vector<BenchJsonRow> json;
  double ratio[2] = {0.0, 0.0};  // 8-worker goodput over 1-worker, per mode.
  bool ledgers_ok = true;
  for (int mode = 0; mode < 2; ++mode) {
    const bool lockfree = mode == 1;
    const char* name = lockfree ? "lockfree" : "serialized";
    double base_goodput = 0.0;
    for (uint32_t n : worker_counts) {
      ArrayApp app(wl);
      MdSystem sys(DatapathConfig(lockfree, n), &app);
      const RunResult r = sys.Run(4.2e6 + 0.6e6 * n, timing.warmup, timing.measure);
      ledgers_ok &= LedgerClosed(StrFormat("%s/%uw", name, n), r);
      if (n == 1) {
        base_goodput = r.goodput_rps;
      }
      const double speedup = base_goodput > 0.0 ? r.goodput_rps / base_goodput : 0.0;
      if (n == 8) {
        ratio[mode] = speedup;
      }
      table.AddRow({name, StrFormat("%u", n), Krps(r.goodput_rps),
                    StrFormat("%.2fx", speedup), Us(r.e2e.P99())});
      BenchJsonRow row = JsonRowOf(StrFormat("%s/%uw", name, n), r);
      row.extra.emplace_back("workers", static_cast<double>(n));
      row.extra.emplace_back("speedup_vs_1w", speedup);
      json.push_back(row);
    }
  }
  table.Print();
  WriteBenchJson("scalability", json);
  std::printf("serialized 8w/1w: %.2fx   lockfree 8w/1w: %.2fx\n", ratio[0], ratio[1]);

  // The acceptance gates: the lock-free datapath must actually scale, and
  // must out-scale the serialized baseline.
  bool ok = ledgers_ok;
  if (ratio[1] < 1.6) {
    std::printf("FAIL: lockfree 8-worker speedup %.2fx < 1.6x\n", ratio[1]);
    ok = false;
  }
  if (ratio[0] >= ratio[1]) {
    std::printf("FAIL: serialized baseline (%.2fx) out-scales lockfree (%.2fx)\n",
                ratio[0], ratio[1]);
    ok = false;
  }
  if (ok) {
    std::printf("PASS: lock-free datapath scales %.2fx at 8 workers; "
                "serialized plateaus at %.2fx\n", ratio[1], ratio[0]);
  }
  return ok;
}

}  // namespace
}  // namespace adios

int main() {
  const bool sweep_ok = adios::RunLegacySweep();
  const bool datapath_ok = adios::RunDatapathComparison();
  return sweep_ok && datapath_ok ? 0 : 1;
}
