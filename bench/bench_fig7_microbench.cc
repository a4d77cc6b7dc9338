// Figure 7 — Microbenchmark comparison of Hermit, DiLOS, DiLOS-P, and Adios
// (paper §5.1).
//
//   (a) P99.9 e2e latency vs offered load, all four systems
//   (b) P50 e2e latency vs offered load
//   (c) Adios request-handling breakdown at the load where DiLOS's latency
//       skyrockets (busy-wait slice gone; queueing collapsed)
//   (d) throughput vs offered load, Adios vs DiLOS
//   (e) RDMA link utilization, Adios vs DiLOS
//
// Workload: random array indirection, 20% local memory, 8 workers.

#include "bench/bench_util.h"
#include "src/apps/array_app.h"

namespace adios {
namespace {

ArrayApp::Options Workload() {
  ArrayApp::Options o;
  o.entries = kArrayEntries;
  return o;
}

// One dedicated traced run at a mid-sweep Adios load point, exported as
// Chrome trace-event JSON. Separate from the sweep so tracing capacity and
// export cost never perturb the headline numbers.
void TracedRun(const BenchTraceArgs& args) {
  const BenchTiming timing = DefaultTiming();
  ArrayApp app(Workload());
  MdSystem sys(PresetByName("Adios"), &app);
  sys.tracer().Enable(1u << 20);
  RunResult r = sys.Run(1.3e6, timing.warmup, timing.measure);
  WarnTraceDrops(r);
  ExportBenchTrace(sys, args);
}

void Run() {
  const BenchTiming timing = DefaultTiming();
  const std::vector<double> loads = MaybeThin(
      {0.2e6, 0.6e6, 1.0e6, 1.3e6, 1.5e6, 1.6e6, 1.9e6, 2.2e6, 2.5e6, 2.8e6, 3.1e6});
  const std::vector<std::string> systems = {"Hermit", "DiLOS", "DiLOS-P", "Adios"};

  PrintHeader("Figure 7(a,b)", "P99.9 and P50 e2e latency vs load, four systems");
  // cyc/req and wasted: worker CPU per completed request and its busy-wait
  // share — the §1 motivation (busy-waiting wastes ~90% of fetch cycles).
  TablePrinter table({"offered(K)", "system", "tput(K)", "P50(us)", "P99.9(us)", "drops",
                      "rdma-util", "cyc/req", "wasted"});

  RunResult adios_at_knee;
  bool have_knee = false;
  double peak[4] = {0, 0, 0, 0};
  for (double load : loads) {
    for (size_t s = 0; s < systems.size(); ++s) {
      ArrayApp app(Workload());
      MdSystem sys(PresetByName(systems[s]), &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      peak[s] = std::max(peak[s], r.throughput_rps);
      table.AddRow({Krps(load), systems[s], Krps(r.throughput_rps), Us(r.e2e.P50()),
                    Us(r.e2e.P999()),
                    StrFormat("%llu", static_cast<unsigned long long>(r.dropped)),
                    Pct(r.rdma_utilization), StrFormat("%.0f", r.worker_cycles_per_request),
                    Pct(r.busy_wait_fraction)});
      if (systems[s] == "Adios" && !have_knee && load >= 1.3e6) {
        adios_at_knee = std::move(r);
        have_knee = true;
      }
    }
  }
  table.Print();

  std::printf("\nPeak throughput: ");
  for (size_t s = 0; s < systems.size(); ++s) {
    std::printf("%s=%sK  ", systems[s].c_str(), Krps(peak[s]).c_str());
  }
  std::printf("\nAdios vs Hermit %.2fx, vs DiLOS %.2fx, vs DiLOS-P %.2fx "
              "(paper: 2.11x, 1.58x, 1.59x)\n",
              peak[3] / peak[0], peak[3] / peak[1], peak[3] / peak[2]);

  if (have_knee) {
    PrintHeader("Figure 7(c)", "Adios request-handling breakdown at the DiLOS knee");
    PrintBreakdown("Adios", adios_at_knee, {10, 50, 99, 99.9});
    std::printf("(paper: busy-wait slice disappears; queueing shrinks 16.3x at P99, "
                "36.8x at P99.9 vs Fig. 2(c))\n");
  }
}

}  // namespace
}  // namespace adios

int main(int argc, char** argv) {
  const adios::BenchTraceArgs trace_args = adios::ParseBenchTraceArgs(argc, argv);
  if (!trace_args.trace_only) {
    adios::Run();
  }
  if (trace_args.enabled()) {
    adios::TracedRun(trace_args);
  }
  return 0;
}
