// Figure 2 — Performance analysis of DiLOS (busy-waiting) and DiLOS-P
// (busy-waiting + preemptive scheduling), paper §2.
//
//   (a) P99 e2e latency vs offered load, DiLOS vs DiLOS-P
//   (b) e2e latency CDF near saturation
//   (c) request-handling latency breakdown at P10/P50/P99/P99.9
//       (the "busy-wait" column is the hatched part of the paper's bars)
//   (d) throughput vs offered load (gap = dropped requests)
//   (e) RDMA link utilization vs offered load
//
// Workload: random array indirection, 20% local memory, 8 workers.

#include "bench/bench_util.h"
#include "src/apps/array_app.h"

namespace adios {
namespace {

ArrayApp::Options Workload() {
  ArrayApp::Options o;
  // Paper: 40 GB working set / 8 GB local. Scaled: 64 MiB / 12.8 MiB, same
  // 20% ratio (the controlled variable).
  o.entries = kArrayEntries;
  return o;
}

void Run() {
  const BenchTiming timing = DefaultTiming();
  const std::vector<double> loads = MaybeThin(
      {0.4e6, 0.8e6, 1.2e6, 1.4e6, 1.5e6, 1.6e6, 1.8e6, 2.2e6, 2.6e6, 3.0e6});

  PrintHeader("Figure 2(a,d,e)", "DiLOS motivation: latency, throughput, RDMA utilization");
  TablePrinter table({"offered(K)", "system", "tput(K)", "P50(us)", "P99(us)", "P99.9(us)",
                      "drops", "rdma-util"});

  RunResult dilos_near_sat;
  bool have_near_sat = false;
  for (double load : loads) {
    for (const char* sys_name : {"DiLOS", "DiLOS-P"}) {
      SystemConfig cfg =
          std::string(sys_name) == "DiLOS" ? SystemConfig::DiLOS() : SystemConfig::DiLOSP();
      ArrayApp app(Workload());
      MdSystem sys(cfg, &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      table.AddRow({Krps(load), sys_name, Krps(r.throughput_rps), Us(r.e2e.P50()),
                    Us(r.e2e.P99()), Us(r.e2e.P999()), StrFormat("%llu",
                    static_cast<unsigned long long>(r.dropped)), Pct(r.rdma_utilization)});
      // Keep the DiLOS run closest below saturation for (b) and (c).
      if (std::string(sys_name) == "DiLOS" && r.dropped == 0) {
        dilos_near_sat = std::move(r);
        have_near_sat = true;
      }
    }
  }
  table.Print();

  if (have_near_sat) {
    PrintHeader("Figure 2(b)", "DiLOS e2e latency CDF near saturation");
    TablePrinter cdf({"latency(us)", "cumulative"});
    double last = -1.0;
    for (const auto& [v, frac] : dilos_near_sat.e2e.Cdf()) {
      if (frac - last < 0.02 && frac < 0.999) {
        continue;  // Thin the curve for printing.
      }
      last = frac;
      cdf.AddRow({Us(v), StrFormat("%.4f", frac)});
    }
    cdf.Print();
    std::printf("(paper: below-P20 knee = local-memory hits; P99+ ~10x the P20 latency)\n");

    PrintHeader("Figure 2(c)", "DiLOS request-handling breakdown near saturation");
    PrintBreakdown("DiLOS", dilos_near_sat, {10, 50, 99, 99.9});
    std::printf("(paper: busy-wait queueing dominates at P99/P99.9)\n");
  }
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
