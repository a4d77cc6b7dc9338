// Figure 10 — Memcached GET latency (paper §5.2).
//
//   (a,b) 1024 B values: P50 / P99.9 vs load, four systems
//   (c,d) 128 B values:  P50 / P99.9 vs load, four systems
//   (e)   PF-aware vs round-robin dispatching, P99.9 (128 B values)
//
// Paper: at 750 KRPS / 128 B Adios beats DiLOS 2.57x (P50) and 10.89x
// (P99.9); throughput gains are modest because the NIC WQE rate saturates.

#include "bench/bench_util.h"
#include "src/apps/memcached_app.h"

namespace adios {
namespace {

MemcachedApp::Options Workload(uint32_t value_bytes) {
  MemcachedApp::Options o;
  o.num_keys = 1ull << 19;
  o.value_bytes = value_bytes;
  return o;
}

void SweepValueSize(uint32_t value_bytes, const BenchTiming& timing) {
  const std::vector<double> loads =
      MaybeThin({0.2e6, 0.5e6, 0.75e6, 1.0e6, 1.25e6, 1.5e6, 1.8e6, 2.1e6});
  PrintHeader(value_bytes == 128 ? "Figure 10(c,d)" : "Figure 10(a,b)",
              value_bytes == 128 ? "Memcached GET, 128 B values" : "Memcached GET, 1024 B values");
  TablePrinter table(
      {"offered(K)", "system", "tput(K)", "P50(us)", "P99.9(us)", "drops", "qp-stalls"});
  for (double load : loads) {
    for (const char* name : {"Hermit", "DiLOS", "DiLOS-P", "Adios"}) {
      MemcachedApp app(Workload(value_bytes));
      MdSystem sys(PresetByName(name), &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      table.AddRow({Krps(load), name, Krps(r.throughput_rps), Us(r.e2e.P50()),
                    Us(r.e2e.P999()),
                    StrFormat("%llu", static_cast<unsigned long long>(r.dropped)),
                    StrFormat("%llu", static_cast<unsigned long long>(r.qp_full_stalls))});
    }
  }
  table.Print();
}

void PfAwareComparison(const BenchTiming& timing) {
  PrintHeader("Figure 10(e)", "PF-aware vs round-robin dispatching (128 B GET, P99.9)");
  const std::vector<double> loads = MaybeThin({1.0e6, 1.4e6, 1.7e6, 1.9e6, 1.95e6});
  TablePrinter table({"offered(K)", "RR P99.9(us)", "PF-Aware P99.9(us)", "improvement",
                      "RR imbal", "PF imbal"});
  for (double load : loads) {
    uint64_t p999[2];
    double imbalance[2];
    for (int policy = 0; policy < 2; ++policy) {
      SystemConfig cfg = SystemConfig::Adios();
      cfg.sched.dispatch_policy =
          policy == 0 ? DispatchPolicy::kRoundRobin : DispatchPolicy::kPfAware;
      MemcachedApp app(Workload(128));
      MdSystem sys(cfg, &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      p999[policy] = r.e2e.P999();
      imbalance[policy] = r.pf_imbalance_stddev;
    }
    table.AddRow({Krps(load), Us(p999[0]), Us(p999[1]),
                  StrFormat("%.1f%%", 100.0 * (1.0 - static_cast<double>(p999[1]) /
                                                         static_cast<double>(p999[0]))),
                  StrFormat("%.2f", imbalance[0]), StrFormat("%.2f", imbalance[1])});
  }
  table.Print();
  std::printf("(paper: PF-aware improves Memcached P99.9 by up to 7.5%%)\n");
}

}  // namespace
}  // namespace adios

int main() {
  const adios::BenchTiming timing = adios::DefaultTiming();
  adios::SweepValueSize(1024, timing);
  adios::SweepValueSize(128, timing);
  adios::PfAwareComparison(timing);
  return 0;
}
