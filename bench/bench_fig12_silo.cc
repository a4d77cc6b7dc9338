// Figure 12 — Silo running TPC-C (paper §5.2).
//
// Five transaction types with the standard mix (New-Order 44.5%, Payment
// 43.1%, Order-Status 4.1%, Delivery 4.2%, Stock-Level 4.1%). Transactions
// write remote pages, so this workload also exercises dirty eviction and
// write-back. Paper: Adios beats DiLOS 4.66x/2.24x in P50/P99.9 at 140 KRPS
// and 1.18x in throughput.

#include "bench/bench_util.h"
#include "src/apps/silo_app.h"

namespace adios {
namespace {

void Run() {
  const BenchTiming timing = DefaultTiming();
  const std::vector<double> loads =
      MaybeThin({50e3, 100e3, 150e3, 200e3, 260e3, 320e3, 380e3, 440e3});

  PrintHeader("Figure 12", "Silo TPC-C: P50 and P99.9 vs load, four systems");
  TablePrinter table({"offered(K)", "system", "tput(K)", "P50(us)", "P99.9(us)", "drops",
                      "dirty-evict"});
  for (double load : loads) {
    for (const char* name : {"Hermit", "DiLOS", "DiLOS-P", "Adios"}) {
      SiloApp app;
      MdSystem sys(PresetByName(name), &app);
      RunResult r = sys.Run(load, timing.warmup, timing.measure);
      table.AddRow({Krps(load), name, Krps(r.throughput_rps), Us(r.e2e.P50()),
                    Us(r.e2e.P999()),
                    StrFormat("%llu", static_cast<unsigned long long>(r.dropped)),
                    StrFormat("%llu", static_cast<unsigned long long>(r.mem.evictions_dirty))});
    }
  }
  table.Print();

  // Per-transaction-type latency at a moderate load (supplementary view).
  PrintHeader("Figure 12 (supplement)", "Per-transaction-type latency at mid load (Adios)");
  SiloApp app;
  MdSystem sys(SystemConfig::Adios(), &app);
  RunResult r = sys.Run(200e3, timing.warmup, timing.measure);
  TablePrinter per_op({"txn", "count", "P50(us)", "P99(us)", "P99.9(us)"});
  for (const auto& op : r.ops) {
    per_op.AddRow({op.name, StrFormat("%llu", static_cast<unsigned long long>(op.e2e.count())),
                   Us(op.e2e.P50()), Us(op.e2e.P99()), Us(op.e2e.P999())});
  }
  per_op.Print();
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
