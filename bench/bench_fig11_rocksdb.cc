// Figure 11 — RocksDB with 99% GET / 1% SCAN(100) (paper §5.2).
//
//   (a,b) GET P50 / P99.9 vs load, four systems
//   (c,d) SCAN P50 / P99.9 vs load
//   (e)   PF-aware vs round-robin dispatching (GET P99.9)
//
// The high-dispersion mix where preemptive scheduling helps: DiLOS suffers
// HOL blocking behind SCANs; DiLOS-P preempts them; Adios interleaves at
// every fault and wins anyway (paper: 1.33x/2.71x better GET P50/P99.9 than
// DiLOS-P, 27% PF-aware improvement).

#include "bench/bench_util.h"
#include "src/apps/rocksdb_app.h"

namespace adios {
namespace {

RocksDbApp::Options Workload() {
  RocksDbApp::Options o;
  o.num_keys = 1ull << 18;
  o.value_bytes = 1024;
  o.scan_fraction = 0.01;
  o.scan_length = 100;
  return o;
}

void Run() {
  const BenchTiming timing = DefaultTiming();
  const std::vector<double> loads =
      MaybeThin({0.1e6, 0.2e6, 0.35e6, 0.5e6, 0.65e6, 0.8e6, 0.95e6});

  PrintHeader("Figure 11(a-d)", "RocksDB 99% GET / 1% SCAN(100)");
  TablePrinter table({"offered(K)", "system", "tput(K)", "GET P50", "GET P99.9", "SCAN P50",
                      "SCAN P99.9", "drops", "preempts"});
  for (double load : loads) {
    for (const char* name : {"Hermit", "DiLOS", "DiLOS-P", "Adios"}) {
      RocksDbApp app(Workload());
      MdSystem sys(PresetByName(name), &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      const Histogram& get = r.ops[RocksDbApp::kOpGet].e2e;
      const Histogram& scan = r.ops[RocksDbApp::kOpScan].e2e;
      table.AddRow({Krps(load), name, Krps(r.throughput_rps), Us(get.P50()), Us(get.P999()),
                    Us(scan.P50()), Us(scan.P999()),
                    StrFormat("%llu", static_cast<unsigned long long>(r.dropped)),
                    StrFormat("%llu", Count(r, "worker.preempt_fires"))});
    }
  }
  table.Print();
  std::printf("(latencies in us; columns GET/SCAN are e2e percentiles per op type)\n");

  PrintHeader("Figure 11(e)", "PF-aware vs round-robin dispatching (GET P99.9)");
  const std::vector<double> pf_loads = MaybeThin({0.3e6, 0.5e6, 0.7e6, 0.9e6});
  TablePrinter pf_table({"offered(K)", "RR P99.9(us)", "PF-Aware P99.9(us)", "improvement",
                         "RR imbal", "PF imbal"});
  for (double load : pf_loads) {
    uint64_t p999[2];
    double imbalance[2];
    for (int policy = 0; policy < 2; ++policy) {
      SystemConfig cfg = SystemConfig::Adios();
      cfg.sched.dispatch_policy =
          policy == 0 ? DispatchPolicy::kRoundRobin : DispatchPolicy::kPfAware;
      RocksDbApp app(Workload());
      MdSystem sys(cfg, &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      p999[policy] = r.ops[RocksDbApp::kOpGet].e2e.P999();
      imbalance[policy] = r.pf_imbalance_stddev;
    }
    pf_table.AddRow({Krps(load), Us(p999[0]), Us(p999[1]),
                     StrFormat("%.1f%%", 100.0 * (1.0 - static_cast<double>(p999[1]) /
                                                            static_cast<double>(p999[0]))),
                     StrFormat("%.2f", imbalance[0]), StrFormat("%.2f", imbalance[1])});
  }
  pf_table.Print();
  std::printf("(paper: PF-aware improves RocksDB GET P99.9 by up to 27%%)\n");
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
