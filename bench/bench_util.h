// Shared helpers for the figure/table reproduction benches.
//
// Every figure bench sweeps offered load (or a config axis) and prints the
// paper's series as aligned text tables. ADIOS_BENCH_QUICK=1 shrinks sweeps
// for smoke runs.

#ifndef ADIOS_BENCH_BENCH_UTIL_H_
#define ADIOS_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/base/table_printer.h"
#include "src/core/md_system.h"
#include "src/obs/trace_export.h"

namespace adios {

// True under ADIOS_BENCH_QUICK=1: benchmarks run abbreviated sweeps.
inline bool BenchQuickMode() {
  const char* v = std::getenv("ADIOS_BENCH_QUICK");
  return v != nullptr && (std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
                          std::strcmp(v, "yes") == 0 || std::strcmp(v, "on") == 0);
}

// The array every ArrayApp bench reads: the paper's 40 GB working set,
// scaled to 2^20 entries so that a sweep simulates in seconds.
inline constexpr uint64_t kArrayEntries = 1ull << 20;

struct BenchTiming {
  SimDuration warmup = Milliseconds(8);
  SimDuration measure = Milliseconds(25);
};

inline BenchTiming DefaultTiming() {
  BenchTiming t;
  if (BenchQuickMode()) {
    t.warmup = Milliseconds(4);
    t.measure = Milliseconds(10);
  }
  return t;
}

// Thins a load sweep in quick mode (keeps first/last and every other point).
inline std::vector<double> MaybeThin(std::vector<double> loads) {
  if (!BenchQuickMode() || loads.size() <= 4) {
    return loads;
  }
  std::vector<double> out;
  for (size_t i = 0; i < loads.size(); ++i) {
    if (i % 2 == 0 || i + 1 == loads.size()) {
      out.push_back(loads[i]);
    }
  }
  return out;
}

// The preset a figure bench names in its tables; any other name is Adios.
inline SystemConfig PresetByName(const std::string& name) {
  if (name == "Hermit") {
    return SystemConfig::Hermit();
  }
  if (name == "DiLOS") {
    return SystemConfig::DiLOS();
  }
  if (name == "DiLOS-P") {
    return SystemConfig::DiLOSP();
  }
  return SystemConfig::Adios();
}

// A run counter by its registry name, summed over label sets, as the type
// "%llu" takes; aborts on a name nothing registered.
inline unsigned long long Count(const RunResult& r, const std::string& name) {
  return r.metrics.Count(name);
}

inline std::string Us(uint64_t ns) { return StrFormat("%.2f", static_cast<double>(ns) / 1000.0); }
inline std::string Krps(double rps) { return StrFormat("%.0f", rps / 1000.0); }
inline std::string Pct(double frac) { return StrFormat("%.1f%%", frac * 100.0); }

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("================================================================\n");
}

inline void PrintBreakdown(const char* label, const RunResult& r,
                           const std::vector<double>& percentiles) {
  std::printf("\n%s latency breakdown (server-side, us):\n", label);
  TablePrinter t({"pctile", "total", "queue", "handling", "rdma", "busy-wait", "tx-wait"});
  for (const auto& row : r.Breakdown(percentiles)) {
    t.AddRow({StrFormat("P%g", row.percentile), Us(row.total_ns), Us(row.queue_ns),
              Us(row.handle_ns - row.rdma_ns - row.tx_wait_ns), Us(row.rdma_ns),
              Us(row.busy_wait_ns), Us(row.tx_wait_ns)});
  }
  t.Print();
}

// --- Machine-readable summaries ---
//
// Each bench can mirror its headline numbers into BENCH_<name>.json in the
// working directory, one row per (system, load) point, so CI and plotting
// scripts consume results without scraping the text tables.

struct BenchJsonRow {
  std::string label;
  double goodput_rps = 0.0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  // Bench-specific scalars appended verbatim as extra JSON number fields.
  std::vector<std::pair<std::string, double>> extra;
};

// Integrity outcomes ride along as extras (JSON key, registry name) so a
// corruption sweep can correlate goodput with what was caught, healed, or
// silently served. Present only when the integrity layer registered them.
inline constexpr std::pair<const char*, const char*> kIntegrityJsonExtras[] = {
    {"corrupt_detected", "integrity.detected"},
    {"corrupt_repaired", "integrity.repaired"},
    {"corrupt_unrepairable", "integrity.unrepairable"},
    {"scrub_pages", "integrity.scrub_pages"},
    {"scrub_finds", "integrity.scrub_finds"},
    {"served_corrupt", "integrity.served_corrupt"},
};

inline BenchJsonRow JsonRowOf(const std::string& label, const RunResult& r) {
  BenchJsonRow row;
  row.label = label;
  row.goodput_rps = r.goodput_rps;
  row.p50_ns = r.e2e.P50();
  row.p99_ns = r.e2e.P99();
  for (const auto& [key, name] : kIntegrityJsonExtras) {
    if (const MetricSample* m = r.metrics.Find(name)) {
      row.extra.emplace_back(key, m->value);
    }
  }
  return row;
}

inline void WriteBenchJson(const char* bench, const std::vector<BenchJsonRow>& rows) {
  const std::string path = StrFormat("BENCH_%s.json", bench);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("WARNING: could not write %s\n", path.c_str());
    return;
  }
  // NaN/inf have no JSON encoding and %g would emit literal "nan"/"inf",
  // producing a file no parser accepts — reject them to null and warn.
  auto number_or_null = [bench](const char* key, double v) -> std::string {
    if (!std::isfinite(v)) {
      std::printf("WARNING: BENCH_%s.json: non-finite value for \"%s\" written as null\n",
                  bench, key);
      return "null";
    }
    return StrFormat("%g", v);
  };
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", bench);
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchJsonRow& row = rows[i];
    std::fprintf(f, "    {\"label\": \"%s\", \"goodput_rps\": %s, \"p50_us\": %.3f, "
                 "\"p99_us\": %.3f",
                 row.label.c_str(), number_or_null("goodput_rps", row.goodput_rps).c_str(),
                 static_cast<double>(row.p50_ns) / 1000.0,
                 static_cast<double>(row.p99_ns) / 1000.0);
    for (const auto& [key, value] : row.extra) {
      std::fprintf(f, ", \"%s\": %s", key.c_str(), number_or_null(key.c_str(), value).c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

// --- Perfetto / Chrome trace export (docs/OBSERVABILITY.md) ---
//
// Benches accepting these flags add one dedicated traced run and export it as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing):
//
//   --trace-out=FILE   write the traced run's JSON to FILE ("-" = stdout)
//   --trace-only       skip the full sweep; only do the traced run (CI smoke)

struct BenchTraceArgs {
  std::string trace_out;  // Empty when --trace-out was not given.
  bool trace_only = false;

  bool enabled() const { return !trace_out.empty(); }
};

inline BenchTraceArgs ParseBenchTraceArgs(int argc, char** argv) {
  BenchTraceArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      args.trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--trace-only") {
      args.trace_only = true;
    } else {
      std::printf("WARNING: ignoring unknown argument '%s'\n", arg.c_str());
    }
  }
  if (args.trace_only && !args.enabled()) {
    std::printf("WARNING: --trace-only without --trace-out=FILE; nothing to do\n");
  }
  return args;
}

// Exports `sys`'s trace stream (tracer().Enable must precede its Run) to
// args.trace_out. Warns instead of aborting the bench on write failure.
inline bool ExportBenchTrace(MdSystem& sys, const BenchTraceArgs& args) {
  TraceExportOptions opts;
  opts.system_name = sys.config().name;
  opts.num_workers = sys.config().num_workers;
  opts.num_nodes = sys.config().replication.num_nodes;
  if (!ExportChromeTrace(sys.tracer(), opts, args.trace_out)) {
    std::printf("WARNING: could not write trace to %s\n", args.trace_out.c_str());
    return false;
  }
  std::printf("wrote Chrome trace JSON to %s (%zu records)\n", args.trace_out.c_str(),
              sys.tracer().records().size());
  return true;
}

// Call after printing a run's tables: a truncated trace must never read as a
// quiet run, so dropped trace records are surfaced next to the results.
inline void WarnTraceDrops(const RunResult& r) {
  if (const unsigned long long drops = Count(r, "trace.dropped"); drops > 0) {
    std::printf("  [%s] WARNING: tracer dropped %llu events at capacity; "
                "timelines are incomplete\n",
                r.system.c_str(), drops);
  }
}

}  // namespace adios

#endif  // ADIOS_BENCH_BENCH_UTIL_H_
