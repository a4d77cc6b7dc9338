// Fault tolerance — goodput and tail latency on a lossy fabric, Adios vs
// DiLOS (docs/FAULT_MODEL.md).
//
// The paper evaluates an ideal fabric; this bench asks what happens when it
// isn't: packet loss (NIC transport retry exhaustion), RNR NAKs, and
// memory-node brownouts (rate-limited DMA windows). The deadline/retry
// pipeline keeps both systems correct, but the fault *policies* diverge:
// a busy-waiting worker (DiLOS) burns its core for the entire detect+backoff
// window of every lost fetch, while a yielding worker (Adios) keeps serving
// other requests — so faults amplify exactly the CPU-waste argument of §1.
//
//   (a) goodput and P99.9 vs READ loss rate, fixed sustainable load
//   (b) goodput and P99.9 vs brownout duration (period 1 ms, 8x DMA)
//   (c) the combined degraded point: 1% loss + 100 us brownouts every
//       500 us, offered at the degraded knee, where the goodput gap is
//       the capacity gap
//
// Workload: random array indirection, 10% local memory (remote-intensive),
// 8 workers. Tables (a)/(b) run at a load both systems sustain fault-free
// (kLoad) so faults show up as tail latency and retries; table (c) offers
// load past degraded DiLOS's saturation point (kKneeLoad) so the
// busy-waiting capacity loss shows up directly as lost goodput.

#include "bench/bench_util.h"
#include "src/apps/array_app.h"

namespace adios {
namespace {

constexpr double kLocalRatio = 0.1;
constexpr double kLoad = 1.2e6;
constexpr double kKneeLoad = 2.6e6;

ArrayApp::Options Workload() {
  ArrayApp::Options o;
  o.entries = kArrayEntries;
  return o;
}

RunResult RunPoint(const std::string& system, double load, const FaultInjector::Options& fault,
                   const BenchTiming& timing) {
  SystemConfig cfg = system == "DiLOS" ? SystemConfig::DiLOS() : SystemConfig::Adios();
  if (system == "Adios-R2" || system == "Adios-R2V") {
    // Same scheduler as Adios, but pages are replicated across two memory
    // nodes: fetch-retry exhaustion fails over instead of aborting
    // (docs/FAILOVER.md), so `failed` should stay at zero where the
    // retry-only column aborts.
    cfg.replication.num_nodes = 2;
    cfg.replication.replicas = 2;
  }
  if (system == "Adios-R2V") {
    // R2 plus verify-on-fetch (docs/INTEGRITY.md): every fetched page is
    // checksum-verified before mapping. On a lossy-but-uncorrupted fabric
    // the column shows the pure verification overhead.
    cfg.integrity.verify = true;
  }
  cfg.local_memory_ratio = kLocalRatio;
  cfg.fault = fault;
  ArrayApp app(Workload());
  MdSystem sys(cfg, &app);
  return sys.Run(load, timing.warmup, timing.measure);
}

std::vector<BenchJsonRow> g_json;  // Mirrors every table row into BENCH_fault_tolerance.json.

void AddRow(TablePrinter& table, const std::string& axis, const std::string& system,
            const RunResult& r) {
  table.AddRow({axis, system, Krps(r.goodput_rps), Us(r.e2e.P999()),
                StrFormat("%llu", static_cast<unsigned long long>(r.fetch_retries)),
                StrFormat("%llu", static_cast<unsigned long long>(r.requests_failed)),
                StrFormat("%llu", static_cast<unsigned long long>(r.failovers)),
                StrFormat("%llu", static_cast<unsigned long long>(r.dropped)),
                Pct(r.busy_wait_fraction)});
  BenchJsonRow row = JsonRowOf(StrFormat("%s/%s", axis.c_str(), system.c_str()), r);
  row.extra.emplace_back("p999_us", static_cast<double>(r.e2e.P999()) / 1000.0);
  row.extra.emplace_back("requests_failed", static_cast<double>(r.requests_failed));
  g_json.push_back(std::move(row));
}

void Run() {
  const BenchTiming timing = DefaultTiming();
  const std::vector<std::string> systems = {"DiLOS", "Adios", "Adios-R2", "Adios-R2V"};

  PrintHeader("Fault tolerance (a)", "goodput and tail vs READ loss rate");
  std::vector<double> losses = {0.0, 0.001, 0.01, 0.05};
  if (BenchQuickMode()) {
    losses = {0.0, 0.01};
  }
  TablePrinter loss_table({"loss", "system", "goodput(K)", "P99.9(us)", "retries", "failed",
                           "failovers", "drops", "wasted"});
  for (double loss : losses) {
    for (const auto& system : systems) {
      FaultInjector::Options fault;
      fault.read_loss_rate = loss;
      RunResult r = RunPoint(system, kLoad, fault, timing);
      AddRow(loss_table, StrFormat("%.1f%%", loss * 100.0), system, r);
    }
  }
  loss_table.Print();

  PrintHeader("Fault tolerance (b)", "goodput and tail vs brownout duration (1 ms period)");
  std::vector<uint64_t> durations_us = {0, 50, 100, 200};
  if (BenchQuickMode()) {
    durations_us = {0, 100};
  }
  TablePrinter brown_table({"brownout", "system", "goodput(K)", "P99.9(us)", "retries",
                            "failed", "failovers", "drops", "wasted"});
  for (uint64_t dur_us : durations_us) {
    for (const auto& system : systems) {
      FaultInjector::Options fault;
      fault.brownout_period_ns = Milliseconds(1);
      fault.brownout_duration_ns = Microseconds(dur_us);
      RunResult r = RunPoint(system, kLoad, fault, timing);
      AddRow(brown_table, StrFormat("%lluus", static_cast<unsigned long long>(dur_us)),
             system, r);
    }
  }
  brown_table.Print();

  PrintHeader("Fault tolerance (c)",
              "combined: 1% loss + 100 us brownouts every 500 us, at the degraded knee");
  FaultInjector::Options combined;
  combined.read_loss_rate = 0.01;
  // 100 us brownouts every 500 us: a memory node under sustained pressure
  // (20% degraded duty). The busy-waiting worker burns its core through
  // every one of those windows; the yielding worker only sees latency.
  combined.brownout_period_ns = Microseconds(500);
  combined.brownout_duration_ns = Microseconds(100);
  TablePrinter combo_table({"point", "system", "goodput(K)", "P99.9(us)", "retries", "failed",
                            "failovers", "drops", "wasted"});
  double goodput[4] = {0, 0, 0, 0};
  for (size_t s = 0; s < systems.size(); ++s) {
    RunResult r = RunPoint(systems[s], kKneeLoad, combined, timing);
    goodput[s] = r.goodput_rps;
    AddRow(combo_table, "degraded", systems[s], r);
  }
  combo_table.Print();
  std::printf("\nAdios/DiLOS goodput under combined faults: %.2fx\n",
              goodput[1] / (goodput[0] > 0.0 ? goodput[0] : 1.0));
  std::printf("(busy-waiting burns the core through every 20 us loss-detection window; "
              "yielding overlaps it with other requests)\n");
  WriteBenchJson("fault_tolerance", g_json);
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
