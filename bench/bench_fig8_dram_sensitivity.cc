// Figure 8 — Sensitivity to local DRAM size (paper §5.1).
//
// Local memory is swept from 10% of the working set to 100% ("unlimited").
// For each ratio we report each system's peak throughput (offered load well
// past saturation) and the P99 latency at a common moderate load.
//
// Paper shapes: 100% -> 10% costs Adios only ~25% throughput but DiLOS ~60%;
// Adios at 10% ~= DiLOS at 80%; at 100% DiLOS is slightly *faster* (no yield
// bookkeeping).

#include "bench/bench_util.h"
#include "src/apps/array_app.h"

namespace adios {
namespace {

void Run() {
  const BenchTiming timing = DefaultTiming();
  ArrayApp::Options wl;
  wl.entries = kArrayEntries;

  std::vector<double> ratios = {0.10, 0.20, 0.40, 0.60, 0.80, 1.00};
  if (BenchQuickMode()) {
    ratios = {0.10, 0.40, 1.00};
  }
  const double probe_load = 1.2e6;   // Common moderate load for P99.
  const double overdrive = 3.6e6;    // Past every system's capacity.

  PrintHeader("Figure 8", "P99 latency and peak throughput vs local DRAM ratio");
  TablePrinter table({"local-mem", "system", "peak-tput(K)", "P99@1.2M(us)", "P999@1.2M(us)",
                      "faults/req"});
  double peak_at[2][16] = {};
  for (size_t ri = 0; ri < ratios.size(); ++ri) {
    const double ratio = ratios[ri];
    for (int s = 0; s < 2; ++s) {
      SystemConfig cfg = s == 0 ? SystemConfig::Adios() : SystemConfig::DiLOS();
      cfg.local_memory_ratio = ratio;

      ArrayApp app1(wl);
      MdSystem peak_sys(cfg, &app1);
      RunResult peak = peak_sys.Run(overdrive, timing.warmup, timing.measure);
      peak_at[s][ri] = peak.throughput_rps;

      ArrayApp app2(wl);
      MdSystem probe_sys(cfg, &app2);
      RunResult probe = probe_sys.Run(probe_load, timing.warmup, timing.measure);

      table.AddRow({StrFormat("%.0f%%", ratio * 100), cfg.name, Krps(peak.throughput_rps),
                    Us(probe.e2e.P99()), Us(probe.e2e.P999()),
                    StrFormat("%.2f", static_cast<double>(probe.mem.faults) /
                                          static_cast<double>(probe.measured))});
    }
  }
  table.Print();

  const size_t last = ratios.size() - 1;
  std::printf("\nThroughput retained going 100%% -> 10%% local memory:\n");
  std::printf("  Adios: %.0f%% (paper: ~75%%)   DiLOS: %.0f%% (paper: ~40%%)\n",
              100.0 * peak_at[0][0] / peak_at[0][last],
              100.0 * peak_at[1][0] / peak_at[1][last]);
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
