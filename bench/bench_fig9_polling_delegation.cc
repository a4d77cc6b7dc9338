// Figure 9 — Effect of polling delegation (paper §5.1).
//
// Adios vs Adios with polling delegation disabled (workers transmit replies
// synchronously, busy-waiting for the send completion). Paper: delegation
// gives ~1.15x peak throughput and ~8x better P99.9 at the no-delegation
// saturation point.

#include "bench/bench_util.h"
#include "src/apps/array_app.h"

namespace adios {
namespace {

void Run() {
  const BenchTiming timing = DefaultTiming();
  ArrayApp::Options wl;
  wl.entries = kArrayEntries;
  const std::vector<double> loads =
      MaybeThin({0.5e6, 1.0e6, 1.4e6, 1.8e6, 2.1e6, 2.4e6, 2.7e6, 3.0e6});

  PrintHeader("Figure 9", "Adios with and without polling delegation");
  TablePrinter table({"offered(K)", "variant", "tput(K)", "P50(us)", "P99.9(us)", "drops"});
  double peak_with = 0;
  double peak_without = 0;
  for (double load : loads) {
    for (bool delegation : {true, false}) {
      SystemConfig cfg = SystemConfig::Adios();
      cfg.sched.polling_delegation = delegation;
      if (!delegation) {
        cfg.name = "Adios-noPD";
      }
      ArrayApp app(wl);
      MdSystem sys(cfg, &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      (delegation ? peak_with : peak_without) =
          std::max(delegation ? peak_with : peak_without, r.throughput_rps);
      table.AddRow({Krps(load), cfg.name, Krps(r.throughput_rps), Us(r.e2e.P50()),
                    Us(r.e2e.P999()),
                    StrFormat("%llu", static_cast<unsigned long long>(r.dropped))});
    }
  }
  table.Print();
  std::printf("\nPeak throughput: delegation=%sK no-delegation=%sK -> %.2fx (paper: 1.15x)\n",
              Krps(peak_with).c_str(), Krps(peak_without).c_str(), peak_with / peak_without);
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
