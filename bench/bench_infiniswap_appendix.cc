// Appendix — the Infiniswap-class baseline the paper measured but excluded
// from its figures for scale reasons (§5: "very high P99.9 latency (582 us
// to 73 ms) and low throughput (261 KRPS), which are hard to include in
// figures of relevant scales").
//
// Infiniswap yields on faults like Adios, but through the *kernel*
// scheduler: ~4 us thread switches [40] plus scheduler wake-up delays. This
// bench puts it next to DiLOS and Adios on the §5.1 microbenchmark to show
// why busy-waiting displaced kernel-yielding in the first place — and what
// Adios recovers.

#include "bench/bench_util.h"
#include "src/apps/array_app.h"

namespace adios {
namespace {

void Run() {
  const BenchTiming timing = DefaultTiming();
  ArrayApp::Options wl;
  wl.entries = kArrayEntries;
  const std::vector<double> loads = MaybeThin({0.1e6, 0.2e6, 0.3e6, 0.4e6, 0.6e6, 1.0e6});

  PrintHeader("Appendix", "Infiniswap-class kernel-yield baseline vs DiLOS and Adios");
  TablePrinter table({"offered(K)", "system", "tput(K)", "P50(us)", "P99.9(us)", "drops"});
  for (double load : loads) {
    for (int s = 0; s < 3; ++s) {
      SystemConfig cfg = s == 0   ? SystemConfig::Infiniswap()
                         : s == 1 ? SystemConfig::DiLOS()
                                  : SystemConfig::Adios();
      ArrayApp app(wl);
      MdSystem sys(cfg, &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      table.AddRow({Krps(load), cfg.name, Krps(r.throughput_rps), Us(r.e2e.P50()),
                    Us(r.e2e.P999()),
                    StrFormat("%llu", static_cast<unsigned long long>(r.dropped))});
    }
  }
  table.Print();
  std::printf("(paper: Infiniswap reached 261 KRPS with 582 us - 73 ms P99.9; kernel\n"
              " switching costs swallow the benefit of overlapping fetches)\n");
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
