// End-to-end benchmark binary (perfbench/README.md).
//
// One invocation runs one workload in one mode and prints one JSON line of
// raw measurements as its last line of output. perfbench/run.py builds this
// binary, runs it, takes medians, and turns the result into the benchmark's
// metrics.
//
//   adios_perfbench --workload <name> --seed <n> --mode <e2e|trace> [--budget <s>]
//
//   e2e    One run at the workload's nominal rate gives the simulated-clock
//          metrics and per-layer counters. The SLO ladder search follows, then
//          more nominal runs until the budget is spent; they give the
//          host-clock set-up and run times, and each must reproduce the first
//          run's simulated metrics bit for bit. The process's peak RSS is read
//          right after its first run: the peak of one system built and run.
//   trace  Untraced and traced nominal runs alternate until the budget is
//          spent: span breakdown, tracing cost, and the standalone set-up of
//          the unithread pool and of the application.
//
// Host times are reported at a fixed reference speed (see HostSpeed).
//
// The binary uses the simulator only through its public headers. Each run
// verifies every reply (LoadGenerator verify_every = 1, which aborts the
// process on a wrong reply) and checks the drop ledger; failed checks are
// listed under "problems".

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/apps/array_app.h"
#include "src/apps/memcached_app.h"
#include "src/apps/pattern_app.h"
#include "src/base/table_printer.h"
#include "src/core/md_system.h"
#include "src/obs/span_builder.h"
#include "src/unithread/universal_stack.h"

namespace adios {
namespace {

using Clock = std::chrono::steady_clock;
using Named = std::vector<std::pair<std::string, double>>;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Host speed ---
//
// On a shared machine the host's speed drifts by tens of percent within
// minutes as co-tenants load the cores, and the simulator slows with it. The
// benchmark therefore times a fixed reference loop between runs and reports
// every host time at the reference speed: wall seconds × kReferenceLoopS / the
// loop's mean time just before and just after the measurement. The loop is
// this file's own code, so a change to the simulator does not move it.

// About the median time of ReferenceLoopS() on a 4-vCPU Intel Xeon VM of a
// shared host (0.056–0.077 s over 100 calls). Host times are reported in
// seconds at that speed.
constexpr double kReferenceLoopS = 0.06;

// SplitMix64's finalizer, copied so that the loop shares no code with the
// simulator.
inline uint64_t RefMix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

volatile uint64_t g_reference_sink;

// Independent hashes, then dependent hashed reads and writes of a 1 MiB table
// with data-dependent branches. Of the loops tried, this mix tracked the
// simulator's run and set-up times best on average under co-tenant load
// (perfbench/README.md, "Host-clock spread").
double ReferenceLoopS() {
  static std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(size_t{1} << 17);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = RefMix(i);
    }
    return t;
  }();
  const uint64_t mask = table.size() - 1;
  const Clock::time_point t0 = Clock::now();
  uint64_t acc = 0;
  for (uint64_t k = 0; k < 15'000'000; ++k) {
    acc += RefMix(k * 0x9e3779b97f4a7c15ULL) >> 7;
  }
  uint64_t x = acc;
  for (uint64_t k = 0; k < 2'500'000; ++k) {
    x = RefMix(x + k);
    const uint64_t v = table[x & mask];
    acc = (v & 1) != 0 ? acc + (v >> 3) : acc ^ v;
    table[(x >> 20) & mask] = acc;
  }
  g_reference_sink = acc;
  return SecondsSince(t0);
}

// Times the reference loop between measurements. Each call to NextScale()
// returns the factor that converts wall seconds measured since the previous
// call into seconds at the reference speed.
class HostSpeed {
 public:
  HostSpeed() : last_loop_s_(ReferenceLoopS()) {}

  double NextScale() {
    const double loop_s = ReferenceLoopS();
    const double scale = kReferenceLoopS / (0.5 * (last_loop_s_ + loop_s));
    loop_s_.push_back(loop_s);
    last_loop_s_ = loop_s;
    return scale;
  }

  const std::vector<double>& loop_s() const { return loop_s_; }

 private:
  double last_loop_s_;
  std::vector<double> loop_s_;
};

// The P99.9 of a run rests on at least this many measured replies, so at
// least ten lie beyond it.
constexpr uint64_t kMinMeasured = 10000;
// Sample buffer cap; a run must stay below it so percentiles see every reply.
constexpr size_t kMaxSamples = size_t{1} << 24;

enum class WorkloadId : uint8_t { kArrayUniform, kKvZipfWrites, kStrideR2Lossy };

struct Workload {
  WorkloadId id;
  const char* name;
  double nominal_rps;
  // The SLO ladder's rungs above the nominal rate, in requests/s, ascending.
  std::vector<double> ladder_rps;
  double p999_limit_ns;
  SimDuration warmup_ns;
  SimDuration measure_ns;
  // Generous bound on trace records per offered request (system-level
  // records included), sizing the tracer so traced runs drop nothing.
  uint64_t trace_records_per_req;
};

// Each ladder's limit is crossed well between two rungs on every seed tried.
// The stride-r2-lossy ladder ends below its collapse point (about 0.45 MRPS),
// where the drained drop ledger no longer closes.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {WorkloadId::kArrayUniform, "array-uniform", 2.0e6,
       {2.3e6, 2.6e6, 2.9e6}, 20e3, Milliseconds(5), Milliseconds(120), 20},
      {WorkloadId::kKvZipfWrites, "kv-zipf-writes", 1.8e6,
       {2.1e6, 2.4e6}, 50e3, Milliseconds(5), Milliseconds(60), 20},
      {WorkloadId::kStrideR2Lossy, "stride-r2-lossy", 0.35e6,
       {0.39e6}, 100e3, Milliseconds(5), Milliseconds(120), 120},
  };
  return kWorkloads;
}

// All three workloads run the Adios preset: 8 workers, 20% local memory.
SystemConfig ConfigFor(const Workload& w, uint64_t seed) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.seed = seed;
  uint64_t mix = seed;
  cfg.fault.seed = SplitMix64(mix);
  switch (w.id) {
    case WorkloadId::kArrayUniform:
      break;  // The preset unmodified: dense clock, one node, ideal fabric.
    case WorkloadId::kKvZipfWrites:
      // The lock-free paging datapath as bench_scalability runs it.
      cfg.clock_shards = 8;
      cfg.frame_cache_size = 16;
      cfg.sync_model = MmSyncModel::kShardedCas;
      cfg.sync_cas_ns = 30;
      break;
    case WorkloadId::kStrideR2Lossy:
      cfg.sched.prefetch_window = 8;
      cfg.sched.prefetch_policy = PrefetchPolicy::kAdaptive;
      cfg.fabric.link_classes = kNumTrafficClasses;
      cfg.fabric.chunk_bytes = 1024;
      cfg.replication.num_nodes = 2;
      cfg.replication.replicas = 2;
      // Loss only: injected corruption fails requests whose fetch has
      // already failed over to every replica, and no operation may fail.
      cfg.fault.read_loss_rate = 1e-3;
      cfg.integrity.verify = true;
      cfg.integrity.scrub = true;
      break;
  }
  return cfg;
}

std::unique_ptr<Application> MakeApp(const Workload& w) {
  switch (w.id) {
    case WorkloadId::kArrayUniform: {
      ArrayApp::Options o;
      o.entries = uint64_t{1} << 20;
      o.entry_bytes = 64;
      return std::make_unique<ArrayApp>(o);
    }
    case WorkloadId::kKvZipfWrites: {
      MemcachedApp::Options o;
      o.num_keys = uint64_t{1} << 19;
      o.value_bytes = 128;
      o.key_skew = 0.99;
      o.set_fraction = 0.3;
      return std::make_unique<MemcachedApp>(o);
    }
    case WorkloadId::kStrideR2Lossy: {
      PatternApp::Options o;
      o.pages = uint64_t{1} << 15;
      o.pages_per_op = 8;
      o.stride = 4;
      o.pattern = PatternApp::Pattern::kStride;
      return std::make_unique<PatternApp>(o);
    }
  }
  return nullptr;
}

// Mean of the values ranked within +-1 percentile point of the median. The
// exact median of kv-zipf-writes sits on the fixed minimum latency of its
// faulting requests (hits and faults split it almost evenly), so it reads the
// same on every seed; the band mean tracks the same quantity and stays
// sensitive to changes on either side of the split.
double MedianBand(const std::vector<uint64_t>& sorted) {
  const size_t n = sorted.size();
  const size_t lo = n * 49 / 100;
  const size_t hi = std::max(lo + 1, n * 51 / 100);
  if (hi > n) {
    return 0.0;
  }
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    sum += static_cast<double>(sorted[i]);
  }
  return sum / static_cast<double>(hi - lo);
}

uint64_t NearestRank(const std::vector<uint64_t>& sorted, double pct) {
  if (sorted.empty()) {
    return 0;
  }
  const double n = static_cast<double>(sorted.size());
  const size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

std::vector<uint64_t> SortedField(const std::vector<RequestSample>& samples,
                                  uint64_t RequestSample::*field) {
  std::vector<uint64_t> v;
  v.reserve(samples.size());
  for (const RequestSample& s : samples) {
    v.push_back(s.*field);
  }
  std::sort(v.begin(), v.end());
  return v;
}

// One system built and run at one offered rate.
struct RunOutcome {
  RunResult r;
  uint64_t events = 0;
  // Wall times, and the HostSpeed factor that converts them to the reference
  // speed.
  double setup_s = 0.0;
  double run_s = 0.0;
  double scale = 1.0;
  std::vector<uint64_t> e2e_sorted;  // Measured, successful replies.
  // Traced runs only.
  Named spans;
  double span_build_s = 0.0;
  uint64_t trace_records = 0;
};

constexpr int kNumSegments = 6;

// Server-latency breakdown of a group of requests: mean server latency and
// each segment's share of it.
struct SpanGroup {
  double server_us = 0.0;
  double share[kNumSegments] = {};
};

// Breakdown of the requests ranked [lo, hi) by server latency. Checks that
// their segments sum to their server latency exactly.
bool GroupSpans(const std::vector<const RequestSample*>& by_server, size_t lo, size_t hi,
                const std::unordered_map<uint64_t, const RequestSpan*>& span_of, SpanGroup* out,
                std::vector<std::string>* problems) {
  uint64_t sums[kNumSegments] = {};
  uint64_t server_sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    const auto it = span_of.find(by_server[i]->id);
    if (it == span_of.end()) {
      problems->push_back(StrFormat("span: no completed span for sampled request %llu",
                                    static_cast<unsigned long long>(by_server[i]->id)));
      return false;
    }
    const RequestSpan& s = *it->second;
    const uint64_t segments[kNumSegments] = {s.queue_ns,       s.exec_ns,      s.fetch_stall_ns,
                                             s.frame_stall_ns, s.preempted_ns, s.tx_ns};
    for (int k = 0; k < kNumSegments; ++k) {
      sums[k] += segments[k];
    }
    server_sum += by_server[i]->server_ns;
  }
  uint64_t segment_sum = 0;
  for (uint64_t v : sums) {
    segment_sum += v;
  }
  if (segment_sum != server_sum || server_sum == 0) {
    problems->push_back("span: segments do not sum to server latency");
    return false;
  }
  out->server_us = static_cast<double>(server_sum) / static_cast<double>(hi - lo) / 1e3;
  for (int k = 0; k < kNumSegments; ++k) {
    out->share[k] = static_cast<double>(sums[k]) / static_cast<double>(server_sum);
  }
  return true;
}

// Requests ranked within +-0.25 percentile points of `pct` by server latency:
// the Fig. 7(c) method, averaged over a band so one request's idiosyncrasies
// do not decide the number.
bool GroupAt(double pct, const std::vector<const RequestSample*>& by_server,
             const std::unordered_map<uint64_t, const RequestSpan*>& span_of, SpanGroup* out,
             std::vector<std::string>* problems) {
  const double n = static_cast<double>(by_server.size());
  const size_t hi = std::clamp<size_t>(static_cast<size_t>(std::ceil((pct + 0.25) / 100.0 * n)),
                                       1, by_server.size());
  const size_t lo = std::min(static_cast<size_t>(std::floor((pct - 0.25) / 100.0 * n)), hi - 1);
  return GroupSpans(by_server, lo, hi, span_of, out, problems);
}

void FoldSpans(const Tracer& tracer, const RunResult& r, RunOutcome* out,
               std::vector<std::string>* problems) {
  const Clock::time_point t0 = Clock::now();
  const SpanTimeline tl = BuildSpans(tracer);
  const std::vector<std::string> unreconciled = ReconcileSpans(tl, r.samples);
  out->span_build_s = SecondsSince(t0);

  if (tracer.dropped() > 0) {
    problems->push_back(StrFormat("trace: %llu records dropped at capacity",
                                  static_cast<unsigned long long>(tracer.dropped())));
  }
  for (const std::string& p : tl.problems) {
    problems->push_back("span grammar: " + p);
  }
  for (const std::string& p : unreconciled) {
    problems->push_back("span reconcile: " + p);
  }
  std::unordered_map<uint64_t, const RequestSpan*> span_of;
  uint64_t incomplete = 0;
  for (const RequestSpan& s : tl.spans) {
    if (s.completed) {
      span_of.emplace(s.request_id, &s);
    } else {
      ++incomplete;
    }
  }
  if (incomplete != r.dropped) {
    problems->push_back(StrFormat("span: %llu incomplete spans but %llu drops",
                                  static_cast<unsigned long long>(incomplete),
                                  static_cast<unsigned long long>(r.dropped)));
  }
  std::vector<const RequestSample*> by_server;
  by_server.reserve(r.samples.size());
  for (const RequestSample& s : r.samples) {
    by_server.push_back(&s);
  }
  std::sort(by_server.begin(), by_server.end(),
            [](const RequestSample* a, const RequestSample* b) {
              return a->server_ns != b->server_ns ? a->server_ns < b->server_ns : a->id < b->id;
            });
  if (by_server.empty()) {
    problems->push_back("span: no samples");
    return;
  }
  // Shares at P50 and P99 as in Fig. 7(c). Server latency itself is given
  // as the mean over all requests and at P99: the P50 band of kv-zipf-writes
  // sits on one fixed hit latency.
  SpanGroup all;
  SpanGroup p50;
  SpanGroup p99;
  if (!GroupSpans(by_server, 0, by_server.size(), span_of, &all, problems) ||
      !GroupAt(50.0, by_server, span_of, &p50, problems) ||
      !GroupAt(99.0, by_server, span_of, &p99, problems)) {
    return;
  }
  out->spans.emplace_back("span.server_us.mean", all.server_us);
  out->spans.emplace_back("span.server_us.p99", p99.server_us);
  static const char* const kSegments[kNumSegments] = {"queue",       "exec",      "fetch_stall",
                                                      "frame_stall", "preempted", "tx"};
  for (const auto& [tag, group] : {std::pair<const char*, const SpanGroup&>{"p50", p50},
                                   std::pair<const char*, const SpanGroup&>{"p99", p99}}) {
    for (int k = 0; k < kNumSegments; ++k) {
      out->spans.emplace_back(StrFormat("span.%s_share.%s", kSegments[k], tag), group.share[k]);
    }
  }
}

RunOutcome BuildAndRun(const Workload& w, uint64_t seed, double rate_rps, bool traced,
                       HostSpeed* speed, std::vector<std::string>* problems) {
  std::unique_ptr<Application> app = MakeApp(w);
  const SystemConfig cfg = ConfigFor(w, seed);
  LoadGenerator::Options opts;
  opts.verify_every = 1;
  opts.max_samples = kMaxSamples;

  RunOutcome out;
  Clock::time_point t0 = Clock::now();
  auto sys = std::make_unique<MdSystem>(cfg, app.get());
  out.setup_s = SecondsSince(t0);
  if (traced) {
    const double offered =
        rate_rps * static_cast<double>(w.warmup_ns + w.measure_ns) * 1e-9 * 1.2 + 1000.0;
    sys->tracer().Enable(static_cast<size_t>(offered) * w.trace_records_per_req);
  }
  t0 = Clock::now();
  out.r = sys->Run(rate_rps, w.warmup_ns, w.measure_ns, &opts);
  out.run_s = SecondsSince(t0);
  out.events = sys->engine().events_processed();
  if (traced) {
    out.trace_records = sys->tracer().records().size();
    FoldSpans(sys->tracer(), out.r, &out, problems);
  }
  sys.reset();
  out.scale = speed->NextScale();

  const RunResult& r = out.r;
  if (r.sent != r.completed + r.dropped) {
    problems->push_back(StrFormat("drop ledger: sent %llu != completed %llu + dropped %llu",
                                  static_cast<unsigned long long>(r.sent),
                                  static_cast<unsigned long long>(r.completed),
                                  static_cast<unsigned long long>(r.dropped)));
  }
  if (r.samples.size() >= kMaxSamples) {
    problems->push_back("samples: buffer full, percentiles would be truncated");
  }
  out.e2e_sorted = SortedField(r.samples, &RequestSample::e2e_ns);
  return out;
}

double P999Ns(const RunOutcome& o) {
  return o.e2e_sorted.empty() ? 0.0 : static_cast<double>(NearestRank(o.e2e_sorted, 99.9));
}

// Simulated-clock end-to-end metrics of a nominal-rate run.
Named SimEndToEnd(const RunOutcome& o) {
  const RunResult& r = o.r;
  const double ok = static_cast<double>(r.sent - r.dropped - r.requests_failed);
  return {
      {"goodput_krps", r.goodput_rps / 1e3},
      {"p50_us", MedianBand(o.e2e_sorted) / 1e3},
      {"p999_us", P999Ns(o) / 1e3},
      {"success_frac", r.sent > 0 ? ok / static_cast<double>(r.sent) : 0.0},
  };
}

double PerReq(uint64_t n, uint64_t reqs) {
  return reqs > 0 ? static_cast<double>(n) / static_cast<double>(reqs) : 0.0;
}

// Simulated-clock per-layer counters, named after the source modules.
Named LayerCounters(const RunOutcome& o) {
  const RunResult& r = o.r;
  const std::vector<uint64_t> queue = SortedField(r.samples, &RequestSample::queue_ns);
  double queue_sum = 0.0;
  for (uint64_t q : queue) {
    queue_sum += static_cast<double>(q);
  }
  const MemoryManager::Stats& m = r.mem;
  const auto link_bytes = [&r](const char* cls) {
    return r.metrics.Value("link.class_delivered_bytes", std::string("class=") + cls);
  };
  return {
      {"sim.events", static_cast<double>(o.events)},
      {"sim.events_per_req", PerReq(o.events, r.sent)},
      {"loadgen.measured", static_cast<double>(r.measured)},
      {"loadgen.sent", static_cast<double>(r.sent)},
      {"dispatcher.util", r.dispatcher_utilization},
      {"dispatcher.queue_us.mean",
       queue.empty() ? 0.0 : queue_sum / static_cast<double>(queue.size()) / 1e3},
      {"dispatcher.queue_us.p99", static_cast<double>(NearestRank(queue, 99.0)) / 1e3},
      {"worker.util", r.worker_utilization},
      {"worker.cycles_per_req", r.worker_cycles_per_request},
      {"worker.yields_per_req", PerReq(r.worker_yields, r.completed)},
      {"worker.qp_full_stalls", static_cast<double>(r.qp_full_stalls)},
      {"worker.pf_imbalance", r.pf_imbalance_stddev},
      {"worker.fetch_retries", static_cast<double>(r.fetch_retries)},
      {"worker.fetch_timeouts", static_cast<double>(r.fetch_timeouts)},
      {"worker.failovers", static_cast<double>(r.failovers)},
      {"mem.faults_per_req", PerReq(m.faults, r.completed)},
      {"mem.shared_faults", static_cast<double>(m.shared_faults)},
      {"mem.frame_stalls", static_cast<double>(m.frame_stalls)},
      {"mem.evictions_dirty", static_cast<double>(m.evictions_dirty)},
      {"mem.writeback_retries", static_cast<double>(r.writeback_retries)},
      {"mem.frame_refills", static_cast<double>(m.frame_refills)},
      {"mem.prefetch_accuracy", PerReq(m.prefetch_hits, m.prefetches)},
      {"mem.prefetch_wasted", static_cast<double>(m.prefetch_wasted)},
      {"mem.chunk_early_wakes", static_cast<double>(m.chunk_early_wakes)},
      {"rdma.link_util", r.rdma_utilization},
      {"rdma.doorbells_saved", static_cast<double>(r.doorbells_saved)},
      {"link.demand_bytes", link_bytes("demand")},
      {"link.prefetch_bytes", link_bytes("prefetch")},
      {"link.background_bytes", link_bytes("background")},
      {"node.suspect_events", static_cast<double>(r.node_suspect_events)},
      {"integrity.detected", static_cast<double>(r.integrity.detected)},
      {"integrity.repaired", static_cast<double>(r.integrity.repaired)},
      {"integrity.scrub_pages", static_cast<double>(r.integrity.scrub_pages)},
  };
}

// Everything the simulated clock decides about a nominal run; two runs with
// the same seed must agree on every entry exactly.
Named Fingerprint(const RunOutcome& o) {
  Named f = SimEndToEnd(o);
  const Named layers = LayerCounters(o);
  f.insert(f.end(), layers.begin(), layers.end());
  return f;
}

void CheckSameFingerprint(const Named& want, const RunOutcome& o, const char* what,
                          std::vector<std::string>* problems) {
  const Named got = Fingerprint(o);
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&got[i].second, &want[i].second, sizeof(double)) != 0) {
      problems->push_back(StrFormat("determinism: %s %s = %.17g, first run %.17g", what,
                                    want[i].first.c_str(), got[i].second,
                                    want[i].second));
    }
  }
}

// Nominal-rate runs count toward attempted/failed; ladder runs above the
// nominal rate probe capacity and may drop by design.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const RunResult& r) {
    attempted += r.sent;
    failed += r.dropped + r.requests_failed;
  }
};

// --- JSON output (one line) ---

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  return std::isfinite(v) ? StrFormat("%.17g", v) : std::string("null");
}

std::string JsonNamed(const Named& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(values[i].first) + ": " +
           JsonNumber(values[i].second);
  }
  return out + "}";
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonStrings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(values[i]);
  }
  return out + "]";
}

// --- Modes ---

// Highest rate whose run meets the SLO: P99.9 within the limit, no drops, no
// failed replies. The search starts at the nominal rate and climbs the ladder
// to the first miss; 0 when the nominal rate already misses.
double SearchSloRps(const Workload& w, uint64_t seed, const RunOutcome& nominal,
                    HostSpeed* speed, std::vector<double>* setup_s, std::string* ladder_json,
                    std::vector<std::string>* problems) {
  double slo = 0.0;
  *ladder_json = "[";
  const auto rung = [&](double rate, const RunOutcome& o) {
    const bool pass = o.r.dropped == 0 && o.r.requests_failed == 0 && !o.e2e_sorted.empty() &&
                      P999Ns(o) <= w.p999_limit_ns;
    *ladder_json += StrFormat("%s{\"rate_krps\": %.17g, \"p999_us\": %.17g, \"dropped\": %llu, "
                              "\"failed\": %llu, \"pass\": %s}",
                              ladder_json->back() == '[' ? "" : ", ", rate / 1e3,
                              P999Ns(o) / 1e3,
                              static_cast<unsigned long long>(o.r.dropped),
                              static_cast<unsigned long long>(o.r.requests_failed),
                              pass ? "true" : "false");
    if (pass) {
      slo = rate;
    }
    return pass;
  };
  if (rung(w.nominal_rps, nominal)) {
    for (double rate : w.ladder_rps) {
      const RunOutcome o = BuildAndRun(w, seed, rate, /*traced=*/false, speed, problems);
      setup_s->push_back(o.setup_s * o.scale);
      if (!rung(rate, o)) {
        break;
      }
    }
  }
  *ladder_json += "]";
  return slo;
}

// True while another iteration costing `per_iter_s` fits in the budget, or
// fewer than `min_iters` have run.
bool KeepGoing(Clock::time_point t0, double budget_s, int iters, int min_iters,
               double per_iter_s) {
  return iters < min_iters || SecondsSince(t0) + per_iter_s <= budget_s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

int RunE2e(const Workload& w, uint64_t seed, double budget_s) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::string> problems;
  Tally tally;
  HostSpeed speed;
  // At the reference speed, and the run's wall times as measured.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> run_wall_s;

  const RunOutcome first =
      BuildAndRun(w, seed, w.nominal_rps, /*traced=*/false, &speed, &problems);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  tally.Add(first.r);
  setup_s.push_back(first.setup_s * first.scale);
  run_s.push_back(first.run_s * first.scale);
  run_wall_s.push_back(first.run_s);
  if (first.r.measured < kMinMeasured) {
    problems.push_back(StrFormat("samples: %llu measured replies < %llu",
                                 static_cast<unsigned long long>(first.r.measured),
                                 static_cast<unsigned long long>(kMinMeasured)));
  }
  const Named fingerprint = Fingerprint(first);

  std::string ladder_json;
  const double slo_rps =
      SearchSloRps(w, seed, first, &speed, &setup_s, &ladder_json, &problems);

  int runs = 1;
  double per_run = 0.0;
  while (KeepGoing(t0, budget_s, runs, /*min_iters=*/3, per_run)) {
    const Clock::time_point r0 = Clock::now();
    const RunOutcome o = BuildAndRun(w, seed, w.nominal_rps, /*traced=*/false, &speed, &problems);
    CheckSameFingerprint(fingerprint, o, "repeat run", &problems);
    tally.Add(o.r);
    setup_s.push_back(o.setup_s * o.scale);
    run_s.push_back(o.run_s * o.scale);
    run_wall_s.push_back(o.run_s);
    ++runs;
    per_run = SecondsSince(r0);
  }

  Named sim = SimEndToEnd(first);
  sim.emplace_back("slo_krps", slo_rps / 1e3);
  std::printf("{\"mode\": \"e2e\", \"workload\": %s, \"seed\": %llu, \"sim\": %s, "
              "\"counters\": %s, \"ladder\": %s, \"setup_s\": %s, \"run_s\": %s, "
              "\"run_wall_s\": %s, \"reference_loop_s\": %s, "
              "\"peak_rss_mb\": %s, \"attempted\": %llu, \"failed\": %llu, \"problems\": %s}\n",
              JsonString(w.name).c_str(), static_cast<unsigned long long>(seed),
              JsonNamed(sim).c_str(), JsonNamed(LayerCounters(first)).c_str(),
              ladder_json.c_str(), JsonList(setup_s).c_str(), JsonList(run_s).c_str(),
              JsonList(run_wall_s).c_str(), JsonList(speed.loop_s()).c_str(),
              JsonNumber(peak_rss_mb).c_str(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), JsonStrings(problems).c_str());
  return 0;
}

int RunTrace(const Workload& w, uint64_t seed, double budget_s) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::string> problems;
  Tally tally;
  std::vector<double> pool_setup_s;
  std::vector<double> apps_setup_s;
  std::vector<double> run_s;
  std::vector<double> traced_run_s;
  std::vector<double> span_build_s;
  Named fingerprint;
  Named counters;
  Named spans;
  uint64_t events = 0;
  double trace_records_per_req = 0.0;

  HostSpeed speed;
  std::vector<double> run_wall_s;

  int iters = 0;
  double per_iter = 0.0;
  while (KeepGoing(t0, budget_s, iters, /*min_iters=*/3, per_iter)) {
    const Clock::time_point it0 = Clock::now();
    double pool_s = 0.0;
    double apps_s = 0.0;
    {
      const Clock::time_point s0 = Clock::now();
      auto pool = std::make_unique<UnithreadPool>(SystemConfig::DefaultPool());
      pool_s = SecondsSince(s0);
    }
    {
      std::unique_ptr<Application> app = MakeApp(w);
      const Clock::time_point s0 = Clock::now();
      const uint64_t ws = (app->WorkingSetBytes() + kPageSize - 1) / kPageSize * kPageSize;
      RemoteRegion region(ws);
      RemoteHeap heap(&region);
      app->Setup(heap);
      apps_s = SecondsSince(s0);
    }
    // The plain run's speed factor covers the standalone set-ups before it.
    const RunOutcome plain =
        BuildAndRun(w, seed, w.nominal_rps, /*traced=*/false, &speed, &problems);
    const RunOutcome traced =
        BuildAndRun(w, seed, w.nominal_rps, /*traced=*/true, &speed, &problems);
    pool_setup_s.push_back(pool_s * plain.scale);
    apps_setup_s.push_back(apps_s * plain.scale);
    if (iters == 0) {
      fingerprint = Fingerprint(plain);
      counters = LayerCounters(plain);
      spans = traced.spans;
      events = plain.events;
      trace_records_per_req = PerReq(traced.trace_records, traced.r.sent);
    } else {
      CheckSameFingerprint(fingerprint, plain, "repeat run", &problems);
    }
    CheckSameFingerprint(fingerprint, traced, "traced run", &problems);
    tally.Add(plain.r);
    tally.Add(traced.r);
    run_s.push_back(plain.run_s * plain.scale);
    run_wall_s.push_back(plain.run_s);
    traced_run_s.push_back(traced.run_s * traced.scale);
    span_build_s.push_back(traced.span_build_s * traced.scale);
    ++iters;
    per_iter = SecondsSince(it0);
  }

  // Host times at the reference speed, except the two host.* diagnostics.
  Named host = {
      {"sim.ns_per_event",
       Median(run_s) * 1e9 / static_cast<double>(std::max<uint64_t>(events, 1))},
      {"unithread.pool_setup_s", Median(pool_setup_s)},
      {"apps.setup_s", Median(apps_setup_s)},
      {"obs.trace_overhead", Median(traced_run_s) / Median(run_s)},
      {"obs.span_build_s", Median(span_build_s)},
      {"host.run_wall_s", Median(run_wall_s)},
      {"host.reference_loop_s", Median(speed.loop_s())},
  };
  std::printf("{\"mode\": \"trace\", \"workload\": %s, \"seed\": %llu, \"counters\": %s, "
              "\"spans\": %s, \"host\": %s, \"iterations\": %d, "
              "\"trace_records_per_req\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"problems\": %s}\n",
              JsonString(w.name).c_str(), static_cast<unsigned long long>(seed),
              JsonNamed(counters).c_str(), JsonNamed(spans).c_str(), JsonNamed(host).c_str(),
              iters, JsonNumber(trace_records_per_req).c_str(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), JsonStrings(problems).c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: adios_perfbench --workload <name> --seed <n> --mode <e2e|trace> "
               "[--budget <seconds>]\n");
  return 2;
}

}  // namespace
}  // namespace adios

int main(int argc, char** argv) {
  using namespace adios;
  std::string workload;
  std::string mode;
  uint64_t seed = 0;
  double budget_s = 0.0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--budget") {
      budget_s = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(budget_s >= 0.0)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed) {
    return Usage();
  }
  const auto& all = Workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return workload == w.name; });
  if (it == all.end()) {
    return Usage();
  }
  if (mode == "e2e") {
    return RunE2e(*it, seed, budget_s);
  }
  if (mode == "trace") {
    return RunTrace(*it, seed, budget_s);
  }
  return Usage();
}
