// Figure 13 — Faiss IVF-Flat vector similarity search on a BIGANN-style
// dataset (paper §5.2).
//
// Long compute+fetch-heavy requests (paper: tens of milliseconds on 100M
// vectors; scaled down here with the dataset — the shape claim is that
// Adios's yield-based handling helps even when requests are many orders
// longer than a page fetch). Paper: Adios beats DiLOS 43.9x/1.99x in
// P50/P99.9 and 1.64x in throughput at ~500 RPS.

#include "bench/bench_util.h"
#include "src/apps/faiss_app.h"

namespace adios {
namespace {

FaissApp::Options Workload() {
  FaissApp::Options o;
  o.num_vectors = 120000;
  o.nlist = 512;
  o.nprobe = 16;
  return o;
}

void Run() {
  BenchTiming timing = DefaultTiming();
  // Long requests need a longer window for stable tails.
  timing.warmup += Milliseconds(4);
  const std::vector<double> loads = MaybeThin({4e3, 8e3, 12e3, 16e3, 20e3, 25e3, 30e3});

  PrintHeader("Figure 13", "Faiss IVF-Flat (BIGANN-style): P50 and P99.9 vs load");
  TablePrinter table(
      {"offered(K)", "system", "tput(K)", "P50(us)", "P99.9(us)", "drops", "faults/req"});
  for (double load : loads) {
    for (const char* name : {"Hermit", "DiLOS", "DiLOS-P", "Adios"}) {
      FaissApp app(Workload());
      MdSystem sys(PresetByName(name), &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      table.AddRow({Krps(load), name, Krps(r.throughput_rps), Us(r.e2e.P50()),
                    Us(r.e2e.P999()),
                    StrFormat("%llu", static_cast<unsigned long long>(r.dropped)),
                    StrFormat("%.1f", r.measured == 0
                                          ? 0.0
                                          : static_cast<double>(r.mem.faults) /
                                                static_cast<double>(r.measured))});
    }
  }
  table.Print();
  std::printf("(dataset scaled from 100M to ~120K vectors: absolute latencies are\n"
              " 100-1000x smaller than the paper's tens of ms; ordering is the target)\n");
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
