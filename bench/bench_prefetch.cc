// Prefetching — adaptive stride prefetch vs sequential vs off
// (docs/PREFETCH.md).
//
// Four access patterns (unit-stride scan, stride-4, reverse scan, random)
// each run under three prefetch configs:
//
//   off  — prefetch_window = 0, the seed datapath.
//   seq  — the unit-stride-streak SequentialPrefetcher (window 8).
//   ada  — the Leap-style majority-vote AdaptivePrefetcher (window 8) with
//          doorbell-batched posts.
//
// What the table should show:
//   scan:    both policies help (seq only sees unit strides, so this is the
//            one pattern where it competes).
//   stride4: only ada locks on — the headline case. Acceptance: ada cuts
//            P99 by >= 30% vs off AND strictly beats seq.
//   reverse: only ada (negative stride).
//   random:  no stride exists; ada must stay quiet. Acceptance: wasted
//            prefetches < 5% of all fetches and goodput within 2% of off.
//
// ADIOS_BENCH_QUICK=1 shrinks sizes for CI.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/pattern_app.h"

namespace adios {
namespace {

constexpr double kLocalRatio = 0.2;
constexpr uint32_t kPagesPerOp = 8;
constexpr double kLoad = 1.2e5;

struct PatternDef {
  const char* name;
  PatternApp::Pattern pattern;
};

struct ConfigDef {
  const char* name;
  uint32_t window;
  PrefetchPolicy policy;
};

struct Cell {
  RunResult result;
  uint64_t fetches = 0;  // faults + prefetches.
  double waste_frac = 0.0;
};

Cell RunPoint(const PatternDef& pat, const ConfigDef& cfgdef, const BenchTiming& timing,
              uint64_t pages) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.name = StrFormat("%s/%s", pat.name, cfgdef.name);
  cfg.local_memory_ratio = kLocalRatio;
  cfg.sched.prefetch_window = cfgdef.window;
  cfg.sched.prefetch_policy = cfgdef.policy;

  PatternApp::Options opt;
  opt.pages = pages;
  opt.pattern = pat.pattern;
  opt.pages_per_op = kPagesPerOp;
  opt.stride = 4;
  PatternApp app(opt);
  MdSystem sys(cfg, &app);

  Cell cell;
  cell.result = sys.Run(kLoad, timing.warmup, timing.measure);
  const auto& m = cell.result.mem;
  cell.fetches = m.faults + m.prefetches;
  cell.waste_frac =
      cell.fetches > 0 ? static_cast<double>(m.prefetch_wasted) / static_cast<double>(cell.fetches)
                       : 0.0;
  return cell;
}

bool Run() {
  const BenchTiming timing = DefaultTiming();
  const bool quick = BenchQuickMode();
  const uint64_t pages = quick ? 1ull << 13 : 1ull << 15;

  const std::vector<PatternDef> patterns = {
      {"scan", PatternApp::Pattern::kScan},
      {"stride4", PatternApp::Pattern::kStride},
      {"reverse", PatternApp::Pattern::kReverse},
      {"random", PatternApp::Pattern::kRandom},
  };
  const std::vector<ConfigDef> configs = {
      {"off", 0, PrefetchPolicy::kAdaptive},
      {"seq", 8, PrefetchPolicy::kSequential},
      {"ada", 8, PrefetchPolicy::kAdaptive},
  };

  PrintHeader("Prefetch", "adaptive stride prefetching vs sequential vs off");
  std::printf("load %.0f K req/s, %llu pages, %llu-page ops\n", kLoad / 1000.0,
              static_cast<unsigned long long>(pages),
              static_cast<unsigned long long>(kPagesPerOp));

  TablePrinter t({"pattern", "config", "goodput(K)", "P50(us)", "P99(us)", "faults", "prefetch",
                  "hits", "late", "wasted", "waste%", "doorbells-"});
  std::vector<BenchJsonRow> json;
  // cells[pattern][config]
  std::vector<std::vector<Cell>> cells(patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    for (const ConfigDef& c : configs) {
      cells[p].push_back(RunPoint(patterns[p], c, timing, pages));
      const Cell& cell = cells[p].back();
      const RunResult& r = cell.result;
      t.AddRow({patterns[p].name, c.name, Krps(r.goodput_rps), Us(r.e2e.P50()), Us(r.e2e.P99()),
                StrFormat("%llu", static_cast<unsigned long long>(r.mem.faults)),
                StrFormat("%llu", static_cast<unsigned long long>(r.mem.prefetches)),
                StrFormat("%llu", static_cast<unsigned long long>(r.mem.prefetch_hits)),
                StrFormat("%llu", static_cast<unsigned long long>(r.mem.prefetch_late)),
                StrFormat("%llu", static_cast<unsigned long long>(r.mem.prefetch_wasted)),
                Pct(cell.waste_frac),
                StrFormat("%llu", static_cast<unsigned long long>(r.doorbells_saved))});
      BenchJsonRow row = JsonRowOf(StrFormat("%s/%s", patterns[p].name, c.name), r);
      row.extra.emplace_back("waste_frac", cell.waste_frac);
      row.extra.emplace_back("doorbells_saved", static_cast<double>(r.doorbells_saved));
      row.extra.emplace_back("prefetch_hits", static_cast<double>(r.mem.prefetch_hits));
      json.push_back(std::move(row));
      WarnTraceDrops(r);
    }
  }
  t.Print();
  WriteBenchJson("prefetch", json);

  // --- Acceptance checks (docs/PREFETCH.md) ---
  const Cell& s_off = cells[1][0];
  const Cell& s_seq = cells[1][1];
  const Cell& s_ada = cells[1][2];
  const double off_p99 = static_cast<double>(s_off.result.e2e.P99());
  const double seq_p99 = static_cast<double>(s_seq.result.e2e.P99());
  const double ada_p99 = static_cast<double>(s_ada.result.e2e.P99());
  const bool stride_cut = ada_p99 <= 0.7 * off_p99;
  const bool stride_beats_seq = ada_p99 < seq_p99;
  std::printf("\nstride4: ada P99 %.2f us vs off %.2f us (%.0f%% cut; need >= 30%%) "
              "vs seq %.2f us\n",
              ada_p99 / 1000.0, off_p99 / 1000.0,
              off_p99 > 0.0 ? 100.0 * (1.0 - ada_p99 / off_p99) : 0.0, seq_p99 / 1000.0);
  std::printf("stride4 check (>=30%% P99 cut vs off, beats seq): %s\n",
              stride_cut && stride_beats_seq ? "PASS" : "FAIL");

  const Cell& r_off = cells[3][0];
  const Cell& r_ada = cells[3][2];
  const double goodput_delta =
      r_off.result.goodput_rps > 0.0
          ? (r_ada.result.goodput_rps - r_off.result.goodput_rps) / r_off.result.goodput_rps
          : 0.0;
  const bool random_quiet = r_ada.waste_frac < 0.05;
  const bool random_goodput = goodput_delta >= -0.02;
  std::printf("\nrandom: ada waste %.2f%% of fetches (need < 5%%), goodput %+.2f%% vs off "
              "(need >= -2%%)\n",
              100.0 * r_ada.waste_frac, 100.0 * goodput_delta);
  std::printf("random check (quiet on patternless access): %s\n",
              random_quiet && random_goodput ? "PASS" : "FAIL");
  return stride_cut && stride_beats_seq && random_quiet && random_goodput;
}

}  // namespace
}  // namespace adios

int main() {
  return adios::Run() ? 0 : 1;
}
