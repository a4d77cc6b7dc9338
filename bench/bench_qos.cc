// QoS link scheduling — demand tail latency vs background goodput
// (docs/QOS.md).
//
// The fabric serves four kinds of traffic from one pipeline: demand faults,
// prefetches, re-silver copies, and scrub reads. This bench measures what
// the WDRR link classes + critical-chunk-first delivery buy when all of
// them contend:
//
//   idle      — demand-only baseline (prefetch on, no maintenance traffic):
//               the idle-link demand P99 the gate is anchored to.
//   bg-only   — the same maintenance mix (scrub + re-silver after a warmup
//               blackout) with demand throttled to a trickle and QoS on:
//               the background classes' uncontended goodput.
//   mix/off   — full demand load + prefetch + scrub + re-silver on the
//               classic FIFO link: background bursts queue head-on ahead
//               of demand faults and the tail shows it.
//   mix/on    — the same mix with `link_classes = 3` and `chunk_bytes =
//               1024`: demand dequeues ahead of background (8:2:1 WDRR)
//               and faulting unithreads resume on the head chunk.
//
// Acceptance gates (exit 1 on failure):
//   1. mix/on demand P99 <= 1.5x the idle-link P99.
//   2. mix/on background goodput (scrub + re-silver pages/s) >= 50% of
//      bg-only's uncontended goodput — the starvation floor holds.
//   3. mix/off P99 > mix/on P99 — with QoS off the interference is visible.
//
// The full run adds a compression point (mix/on + `compress`): the cost
// model trades engine latency for wire bytes, reported but not gated.
//
// ADIOS_BENCH_QUICK=1 shrinks run times for CI.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/pattern_app.h"

namespace adios {
namespace {

// The one testbed every run shares. The 25 Gb/s links are a quarter of the
// paper's 100 GbE so that the maintenance mix contends with demand.
constexpr double kLocalRatio = 0.2;
constexpr double kLinkGbps = 25.0;
constexpr double kScrubGbps = 25.0;
constexpr double kCompressGbps = 200.0;
constexpr double kLoad = 4.5e4;

// PatternApp's stride walk plus one write-back-inducing store per op: the
// dirty pages feed eviction write-backs, which a warmup blackout turns into
// replica divergence — the seed the re-silver pass copies back from. The
// stored value equals the page's canonical value, so every later reader
// still verifies.
class QosMixApp final : public Application {
 public:
  struct Options {
    uint64_t pages = 1 << 15;
    uint32_t pages_per_op = 8;
    uint32_t stride = 4;
  };

  explicit QosMixApp(const Options& options) : options_(options) {}

  const char* name() const override { return "qos-mix"; }
  uint64_t WorkingSetBytes() const override { return options_.pages * kPageSize; }

  void Setup(RemoteHeap& heap) override {
    base_ = heap.AllocPages(options_.pages);
    RemoteRegion* region = heap.region();
    for (uint64_t p = 0; p < options_.pages; ++p) {
      region->WriteObject<uint64_t>(base_ + p * kPageSize, PageValue(p));
    }
  }

  void FillRequest(Rng& rng, Request* req) override {
    req->op = 0;
    // Origins constrained so every strided touch stays inside the region.
    const uint64_t reach = static_cast<uint64_t>(options_.pages_per_op - 1) * options_.stride;
    req->key = rng.NextBelow(options_.pages - reach);
    req->reply_bytes = 64;
  }

  void Handle(Request* req, WorkerApi& api) override {
    api.Compute(300);
    uint64_t acc = 0;
    for (uint32_t i = 0; i < options_.pages_per_op; ++i) {
      const uint64_t page = req->key + static_cast<uint64_t>(i) * options_.stride;
      acc ^= api.Read<uint64_t>(base_ + page * kPageSize);
      api.MaybePreempt();
      api.Compute(150);
    }
    api.Write<uint64_t>(base_ + req->key * kPageSize, PageValue(req->key));
    req->result = acc;
    api.Compute(600);
  }

  bool Verify(const Request& req) const override {
    uint64_t acc = 0;
    for (uint32_t i = 0; i < options_.pages_per_op; ++i) {
      acc ^= PageValue(req.key + static_cast<uint64_t>(i) * options_.stride);
    }
    return req.result == acc;
  }

 private:
  static uint64_t PageValue(uint64_t page) { return page * 0x9e3779b97f4a7c15ull + 1; }

  Options options_;
  RemoteAddr base_ = 0;
};

struct QosPoint {
  RunResult result;
  uint64_t chunk_resumes = 0;
  double bg_pages_per_s = 0.0;  // Scrub + re-silver pages per second.
};

struct MixKnobs {
  bool background = false;  // Scrub + replication + warmup blackout.
  bool qos = false;         // Link classes + chunked demand READs.
  bool compress = false;    // Link compression cost model (implies qos).
};

QosPoint RunPoint(const char* name, double load, const MixKnobs& knobs,
                  const BenchTiming& timing) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.name = name;
  cfg.local_memory_ratio = kLocalRatio;
  cfg.fabric.link_gbps = kLinkGbps;
  cfg.sched.prefetch_window = 8;
  cfg.sched.prefetch_policy = PrefetchPolicy::kAdaptive;
  // Uniform topology and retry policy across every run: the comparison must
  // isolate the maintenance traffic and the QoS knobs, not fabric capacity.
  cfg.replication.num_nodes = 2;
  cfg.replication.replicas = 2;
  cfg.retry.enabled = true;
  if (knobs.background) {
    // The maintenance mix: a paced scrubber plus a re-silver pass seeded by
    // a node blackout late in warmup — recovery and the replica copy-back
    // bleed into the measurement window as kBackground traffic.
    cfg.integrity.scrub = true;
    cfg.integrity.scrub_bw_gbps = kScrubGbps;
    cfg.integrity.scrub_batch_pages = 64;
    cfg.integrity.scrub_pass_gap_ns = 500'000;
    cfg.fault.blackout_start_ns = timing.warmup / 2;
    cfg.fault.blackout_duration_ns = timing.warmup / 8;
    cfg.fault.blackout_node = 0;
  }
  if (knobs.qos || knobs.compress) {
    cfg.fabric.link_classes = kNumTrafficClasses;
    cfg.fabric.chunk_bytes = 1024;
    cfg.retry.background_max_retries = 2;
  }
  if (knobs.compress) {
    cfg.fabric.compress_gbps = kCompressGbps;
  }

  QosMixApp::Options opt;
  opt.pages = BenchQuickMode() ? 1ull << 13 : 1ull << 15;
  opt.pages_per_op = 8;
  opt.stride = 4;
  QosMixApp app(opt);
  MdSystem sys(cfg, &app);

  QosPoint p;
  p.result = sys.Run(load, timing.warmup, timing.measure);
  for (auto& w : sys.workers()) {
    p.chunk_resumes += w->chunk_resumes();
  }
  // Scrub/re-silver counters span warmup + measure; both runs of any
  // compared pair use the same timing, so the rate is comparable.
  const double total_s = static_cast<double>(timing.warmup + timing.measure) / 1e9;
  p.bg_pages_per_s =
      static_cast<double>(p.result.integrity.scrub_pages +
                          Count(p.result, "copier.pages_resilvered")) /
      total_s;
  return p;
}

bool Run() {
  const BenchTiming timing = DefaultTiming();
  const double trickle = kLoad / 10.0;

  PrintHeader("QoS link scheduling (docs/QOS.md)",
              "demand P99 under background contention, link classes off vs on");
  std::printf("load %.0f K req/s, %.0f Gb/s links, scrub %.1f Gb/s, "
              "blackout-seeded re-silver\n",
              kLoad / 1000.0, kLinkGbps, kScrubGbps);

  struct Row {
    const char* name;
    double load;
    MixKnobs knobs;
  };
  std::vector<Row> rows = {
      {"idle", kLoad, {false, false, false}},
      {"bg-only", trickle, {true, true, false}},
      {"mix/off", kLoad, {true, false, false}},
      {"mix/on", kLoad, {true, true, false}},
  };
  if (!BenchQuickMode()) {
    rows.push_back({"mix/on+comp", kLoad, {true, true, true}});
  }

  TablePrinter table({"run", "goodput(K)", "P50(us)", "P99(us)", "faults", "prefetch",
                      "scrub", "resilver", "bg-pages/s(K)", "chunk-resume"});
  std::vector<BenchJsonRow> json;
  std::vector<QosPoint> points;
  for (const Row& row : rows) {
    points.push_back(RunPoint(row.name, row.load, row.knobs, timing));
    const QosPoint& p = points.back();
    const RunResult& r = p.result;
    table.AddRow({row.name, Krps(r.goodput_rps), Us(r.e2e.P50()), Us(r.e2e.P99()),
                  StrFormat("%llu", static_cast<unsigned long long>(r.mem.faults)),
                  StrFormat("%llu", static_cast<unsigned long long>(r.mem.prefetches)),
                  StrFormat("%llu", static_cast<unsigned long long>(r.integrity.scrub_pages)),
                  StrFormat("%llu", Count(r, "copier.pages_resilvered")),
                  StrFormat("%.1f", p.bg_pages_per_s / 1000.0),
                  StrFormat("%llu", static_cast<unsigned long long>(p.chunk_resumes))});
    BenchJsonRow jrow = JsonRowOf(row.name, r);
    jrow.extra.emplace_back("bg_pages_per_s", p.bg_pages_per_s);
    jrow.extra.emplace_back("chunk_resumes", static_cast<double>(p.chunk_resumes));
    jrow.extra.emplace_back("chunk_partials", static_cast<double>(r.mem.chunk_partials));
    jrow.extra.emplace_back("chunk_early_wakes",
                            static_cast<double>(r.mem.chunk_early_wakes));
    // Per-class link bytes ride along (every link counts them, classes on
    // or off).
    for (const char* cls : {"demand", "prefetch", "background"}) {
      jrow.extra.emplace_back(
          StrFormat("link_bytes_%s", cls),
          r.metrics.Value("link.class_delivered_bytes", StrFormat("class=%s", cls)));
    }
    json.push_back(std::move(jrow));
    WarnTraceDrops(r);
  }
  table.Print();
  WriteBenchJson("qos", json);

  const QosPoint& idle = points[0];
  const QosPoint& bg_only = points[1];
  const QosPoint& mix_off = points[2];
  const QosPoint& mix_on = points[3];
  const double idle_p99 = static_cast<double>(idle.result.e2e.P99());
  const double off_p99 = static_cast<double>(mix_off.result.e2e.P99());
  const double on_p99 = static_cast<double>(mix_on.result.e2e.P99());

  std::printf("\ndemand P99: idle %.2f us, mix/off %.2f us (%.2fx idle), "
              "mix/on %.2f us (%.2fx idle)\n",
              idle_p99 / 1000.0, off_p99 / 1000.0,
              idle_p99 > 0.0 ? off_p99 / idle_p99 : 0.0, on_p99 / 1000.0,
              idle_p99 > 0.0 ? on_p99 / idle_p99 : 0.0);
  std::printf("background goodput: uncontended %.1f K pages/s, mix/on %.1f K pages/s "
              "(%.0f%%), mix/off %.1f K pages/s\n",
              bg_only.bg_pages_per_s / 1000.0, mix_on.bg_pages_per_s / 1000.0,
              bg_only.bg_pages_per_s > 0.0
                  ? 100.0 * mix_on.bg_pages_per_s / bg_only.bg_pages_per_s
                  : 0.0,
              mix_off.bg_pages_per_s / 1000.0);

  // --- Acceptance gates (ISSUE 10 / docs/QOS.md) ---
  bool ok = true;
  if (on_p99 > 1.5 * idle_p99) {
    std::printf("FAIL: QoS-on demand P99 %.2f us exceeds 1.5x idle-link P99 %.2f us\n",
                on_p99 / 1000.0, idle_p99 / 1000.0);
    ok = false;
  }
  if (mix_on.bg_pages_per_s < 0.5 * bg_only.bg_pages_per_s) {
    std::printf("FAIL: QoS-on background goodput %.1f K pages/s is below 50%% of "
                "uncontended %.1f K pages/s\n",
                mix_on.bg_pages_per_s / 1000.0, bg_only.bg_pages_per_s / 1000.0);
    ok = false;
  }
  if (off_p99 <= on_p99) {
    std::printf("FAIL: QoS-off P99 %.2f us does not show the interference QoS-on "
                "removes (%.2f us)\n",
                off_p99 / 1000.0, on_p99 / 1000.0);
    ok = false;
  }
  if (ok) {
    std::printf("PASS: demand P99 held to %.2fx idle under contention (off: %.2fx) "
                "with background at %.0f%% of uncontended goodput\n",
                idle_p99 > 0.0 ? on_p99 / idle_p99 : 0.0,
                idle_p99 > 0.0 ? off_p99 / idle_p99 : 0.0,
                bg_only.bg_pages_per_s > 0.0
                    ? 100.0 * mix_on.bg_pages_per_s / bg_only.bg_pages_per_s
                    : 0.0);
  }
  return ok;
}

}  // namespace
}  // namespace adios

int main() {
  return adios::Run() ? 0 : 1;
}
