// Integrity — silent corruption caught, healed, and survived
// (docs/INTEGRITY.md).
//
// The fault injector's corrupt verdict flips bits in a DMA'd payload and
// signals *success* — the one fault class the deadline/retry pipeline cannot
// see. This bench sweeps the corruption rate and asks what each defense
// buys:
//
//   R2+verify+scrub — replicas=2, checksum-verified fetches, background
//     scrubber. A corrupt fetch is caught before mapping and failed over;
//     the bad replica is quarantined and repaired from the surviving copy;
//     the scrubber finds store-poisoned pages demand traffic never touches.
//     Headline: at 1e-4 it sustains the load with zero unrepairable pages
//     and >= 95% of the ideal (integrity-off, fault-free) goodput.
//   R2-oracle — same fabric, verification off, poison oracle on: the ledger
//     counts every corrupted payload the app silently consumed. Nothing
//     fails, nothing is repaired — that is the point.
//   R1+verify — verification without a second copy: detection works, repair
//     has nowhere to pull from, so pages go unrepairable and the requests
//     that need them abort.
//
// Output: the rate sweep table, BENCH_integrity.json, and the acceptance
// checks from the issue: at corrupt_rate=1e-4 R2+verify+scrub reports
// unrepairable == 0 with >= 95% ideal goodput, the verify-off oracle serves
// corrupted bytes, and detection is nonzero.
//
// Workload: memcached-style GET/SET (20% SETs so dirty write-backs exercise
// the stored-poison path), 10% local memory, 8 workers, 800 K req/s.
// ADIOS_BENCH_QUICK=1 shrinks the sweep for CI.


#include "bench/bench_util.h"
#include "src/apps/memcached_app.h"

namespace adios {
namespace {

constexpr uint64_t kNumKeys = 1ull << 17;
constexpr double kLocalRatio = 0.1;
constexpr double kLoad = 8e5;

MemcachedApp::Options Workload() {
  MemcachedApp::Options o;
  o.num_keys = kNumKeys;
  o.set_fraction = 0.2;
  return o;
}

struct PointConfig {
  bool replicate = false;  // 2 nodes x 2 replicas (else single node).
  bool verify = false;
  bool scrub = false;
  bool oracle = false;
};

RunResult RunPoint(double corrupt_rate, const PointConfig& pc, const BenchTiming& timing) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.local_memory_ratio = kLocalRatio;
  if (pc.replicate) {
    cfg.replication.num_nodes = 2;
    cfg.replication.replicas = 2;
  }
  // READ payloads corrupt in flight and WRITE-backs poison the stored copy
  // at the same rate: demand verification catches the former, the scrubber
  // earns its keep on the latter (pages demand traffic never re-reads).
  cfg.fault.corrupt_rate = corrupt_rate;
  cfg.fault.write_poison_rate = corrupt_rate;
  cfg.integrity.verify = pc.verify;
  cfg.integrity.scrub = pc.scrub;
  cfg.integrity.oracle = pc.oracle;
  MemcachedApp app(Workload());
  MdSystem sys(cfg, &app);
  return sys.Run(kLoad, timing.warmup, timing.measure);
}

// An integrity counter by its registry name; 0 on a run without the layer.
unsigned long long Integrity(const RunResult& r, const char* counter) {
  if (r.metrics.Find("integrity.detected") == nullptr) {
    return 0;
  }
  return Count(r, std::string("integrity.") + counter);
}

std::vector<BenchJsonRow> g_json;  // Mirrors every row into BENCH_integrity.json.

void AddRow(TablePrinter& table, const std::string& axis, const std::string& system,
            const RunResult& r) {
  table.AddRow({axis, system, Krps(r.goodput_rps), Us(r.e2e.P999()),
                StrFormat("%llu", Integrity(r, "detected")),
                StrFormat("%llu", Integrity(r, "repaired")),
                StrFormat("%llu", Integrity(r, "unrepairable")),
                StrFormat("%llu", Integrity(r, "scrub_pages")),
                StrFormat("%llu", Integrity(r, "scrub_finds")),
                StrFormat("%llu", Integrity(r, "served_corrupt")),
                StrFormat("%llu", static_cast<unsigned long long>(r.requests_failed))});
  g_json.push_back(JsonRowOf(StrFormat("%s/%s", axis.c_str(), system.c_str()), r));
}

void Run() {
  const BenchTiming timing = DefaultTiming();

  PrintHeader("Integrity", "goodput and repair outcomes vs silent-corruption rate");
  std::vector<double> rates = {1e-5, 1e-4, 1e-3};
  if (BenchQuickMode()) {
    rates = {1e-4};
  }

  const PointConfig r2v{/*replicate=*/true, /*verify=*/true, /*scrub=*/true, /*oracle=*/false};
  const PointConfig r2o{/*replicate=*/true, /*verify=*/false, /*scrub=*/false, /*oracle=*/true};
  const PointConfig r1v{/*replicate=*/false, /*verify=*/true, /*scrub=*/false, /*oracle=*/false};

  TablePrinter table({"rate", "system", "goodput(K)", "P99.9(us)", "detected", "repaired",
                      "unrepair", "scrubbed", "scrub-finds", "served-bad", "failed"});

  // Ideal reference: same fabric shape as the headline system, no faults, no
  // integrity machinery — what goodput costs nothing.
  const RunResult ideal =
      RunPoint(0.0, PointConfig{/*replicate=*/true, false, false, false}, timing);
  AddRow(table, "0", "R2-ideal", ideal);

  RunResult headline;  // R2+verify+scrub at 1e-4, for the acceptance checks.
  RunResult oracle_at_1e4;
  RunResult r1_at_1e4;
  for (double rate : rates) {
    const std::string axis = StrFormat("%g", rate);
    RunResult a = RunPoint(rate, r2v, timing);
    RunResult b = RunPoint(rate, r2o, timing);
    RunResult c = RunPoint(rate, r1v, timing);
    AddRow(table, axis, "R2+verify+scrub", a);
    AddRow(table, axis, "R2-oracle", b);
    AddRow(table, axis, "R1+verify", c);
    if (rate == 1e-4) {
      headline = std::move(a);
      oracle_at_1e4 = std::move(b);
      r1_at_1e4 = std::move(c);
    }
  }
  table.Print();

  // --- Acceptance checks (the issue's headline numbers) ---
  const double ideal_goodput = ideal.goodput_rps > 0.0 ? ideal.goodput_rps : 1.0;
  const double hold = headline.goodput_rps / ideal_goodput;
  const bool no_unrepairable = Integrity(headline, "unrepairable") == 0;
  const bool goodput_holds = hold >= 0.95;
  const bool detection_works = Integrity(headline, "detected") > 0;
  const bool oracle_sees_corruption = Integrity(oracle_at_1e4, "served_corrupt") > 0;
  const bool r1_cannot_heal = Integrity(r1_at_1e4, "unrepairable") > 0;
  std::printf("\nR2+verify+scrub @1e-4: unrepairable=%llu (must be 0), goodput %.0f K "
              "= %.1f%% of ideal (floor 95%%), detected=%llu\n",
              Integrity(headline, "unrepairable"),
              headline.goodput_rps / 1000.0, 100.0 * hold,
              Integrity(headline, "detected"));
  std::printf("verify-off oracle @1e-4: served %llu corrupted payloads to the app "
              "(must be > 0 — that is what verification prevents)\n",
              Integrity(oracle_at_1e4, "served_corrupt"));
  std::printf("R1+verify @1e-4: unrepairable=%llu (must be > 0 — no copy to heal from)\n",
              Integrity(r1_at_1e4, "unrepairable"));
  const bool pass = no_unrepairable && goodput_holds && detection_works &&
                    oracle_sees_corruption && r1_cannot_heal;
  std::printf("integrity acceptance (zero unrepairable, >= 95%% ideal goodput, "
              "oracle serves corruption, R1 cannot heal): %s\n",
              pass ? "PASS" : "FAIL");

  WriteBenchJson("integrity", g_json);
}

}  // namespace
}  // namespace adios

int main() {
  adios::Run();
  return 0;
}
