// End-to-end QoS behavior on the full system (docs/QOS.md): chunk-resume
// trace grammar, waiter coalescing onto partially-landed pages, mid-partial
// aborts audited leak-free, the background retry sub-budget under a
// blackout, no request stranded by a fetch that lands while it is being
// posted, and the off-is-off contract for every QoS knob spelling.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/apps/array_app.h"
#include "src/apps/pattern_app.h"
#include "src/core/md_system.h"
#include "src/obs/span_builder.h"
#include "src/sim/trace.h"

namespace adios {
namespace {

SystemConfig QosConfig() {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.seed = 4242;
  cfg.fabric.link_classes = kNumTrafficClasses;
  cfg.fabric.chunk_bytes = 1024;
  return cfg;
}

TEST(QosE2e, ChunkResumeTraceFollowsTheFetchGrammar) {
  // A traced run with chunking + retry on must emit kChunkReady events, and
  // each one must sit inside its request's fetch window: after the stall
  // that posted the READ, with a resume (kStallDone) at or after it.
  SystemConfig cfg = QosConfig();
  cfg.retry.enabled = true;  // kChunkReady is traced off the retry ledger.
  ArrayApp::Options ao;
  ao.entries = 1 << 14;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  sys.tracer().Enable(1 << 21);
  RunResult r = sys.Run(250000, Milliseconds(1), Milliseconds(3));
  ASSERT_GT(r.completed, 0u);
  EXPECT_GT(r.mem.chunk_partials, 0u);

  struct PerReq {
    SimTime first_stall = 0;
    SimTime last_stall_done = 0;
    bool has_stall = false;
  };
  std::map<uint64_t, PerReq> reqs;
  std::vector<TraceRecord> chunk_readies;
  for (const TraceRecord& rec : sys.tracer().records()) {
    if (rec.event == TraceEvent::kStall) {
      PerReq& pr = reqs[rec.request_id];
      if (!pr.has_stall) {
        pr.first_stall = rec.time;
        pr.has_stall = true;
      }
    } else if (rec.event == TraceEvent::kStallDone) {
      reqs[rec.request_id].last_stall_done = rec.time;
    } else if (rec.event == TraceEvent::kChunkReady) {
      chunk_readies.push_back(rec);
    }
  }
  ASSERT_GT(chunk_readies.size(), 0u);
  for (const TraceRecord& cr : chunk_readies) {
    const auto it = reqs.find(cr.request_id);
    ASSERT_NE(it, reqs.end()) << "kChunkReady for an unknown request " << cr.request_id;
    EXPECT_TRUE(it->second.has_stall);
    EXPECT_GE(cr.time, it->second.first_stall);
    EXPECT_GE(it->second.last_stall_done, cr.time);
  }
  // Class grants are traced as system-level events while classes are on.
  uint64_t grants = 0;
  for (const TraceRecord& rec : sys.tracer().records()) {
    if (rec.event == TraceEvent::kClassDequeue) {
      EXPECT_EQ(rec.request_id, 0u);
      EXPECT_LT(rec.arg, kNumTrafficClasses);
      ++grants;
    }
  }
  EXPECT_GT(grants, 0u);
}

TEST(QosE2e, PartialPageReadsResumeWithoutReposting) {
  // A hot working set barely larger than local memory makes concurrent
  // requests touch pages whose critical chunk has landed but whose tail is
  // still streaming: those reads must proceed through the partial fast path
  // (chunk_resumes) without posting a second READ — with retries off, every
  // posted READ on the workers' memory QPs is exactly one demand fetch or
  // one prefetch.
  SystemConfig cfg = QosConfig();
  cfg.fabric.chunk_bytes = 512;
  cfg.local_memory_ratio = 0.05;
  ArrayApp::Options ao;
  ao.entries = 1 << 13;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(800000, Milliseconds(4), Milliseconds(12));
  ASSERT_GT(r.completed, 0u);
  ASSERT_GT(r.mem.shared_faults, 0u);

  uint64_t chunk_resumes = 0;
  uint64_t posted_reads = 0;
  for (auto& w : sys.workers()) {
    chunk_resumes += w->chunk_resumes();
    posted_reads += w->mem_qp()->posted_reads();
  }
  EXPECT_GT(r.mem.chunk_partials, 0u);
  EXPECT_GT(chunk_resumes, 0u);
  EXPECT_EQ(posted_reads, r.mem.faults + r.mem.prefetches);
}

TEST(QosE2e, AbortMidPartialLeavesNoLeakedState) {
  // A tight retry deadline under load aborts fetches whose critical chunk
  // already landed. The rollback must leave no partial bit on a settled
  // page and no pinned/leaked frame — the invariant checker audits both
  // every tick, plus the trace grammar with kChunkReady events in-stream.
  SystemConfig cfg = QosConfig();
  cfg.retry.enabled = true;
  cfg.retry.timeout_ns = 3500;
  cfg.retry.max_retries = 1;
  cfg.check.enabled = true;
  cfg.check.fatal = false;
  ArrayApp::Options ao;
  ao.entries = 1 << 14;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  sys.tracer().Enable(1 << 21);
  RunResult r = sys.Run(600000, Milliseconds(1), Milliseconds(4));
  ASSERT_GT(r.completed, 0u);
  EXPECT_GT(r.mem.chunk_partials, 0u);
  EXPECT_GT(r.fetch_timeouts, 0u);
  ASSERT_NE(sys.invariant_checker(), nullptr);
  EXPECT_EQ(sys.invariant_checker()->report().violations, 0u);
}

TEST(QosE2e, BackgroundRetrySubBudgetCapsBackgroundReposts) {
  // A mid-run blackout with demand + prefetch traffic in flight: with the
  // sub-budget set, background (prefetch) fetches give up after one repost
  // instead of burning the full demand budget, so the run shows more
  // fetch aborts and fewer total reposts than the shared-budget run.
  auto run = [](uint32_t background_max_retries) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.seed = 99;
    cfg.sched.prefetch_window = 8;
    cfg.retry.enabled = true;
    cfg.retry.background_max_retries = background_max_retries;
    cfg.fault.blackout_start_ns = 1500000;
    cfg.fault.blackout_duration_ns = 200000;
    // A strided workload keeps prefetch READs in flight through the
    // blackout window alongside the demand fetches.
    PatternApp::Options po;
    po.pages = 1 << 13;
    po.pages_per_op = 8;
    po.stride = 4;
    po.pattern = PatternApp::Pattern::kStride;
    PatternApp app(po);
    MdSystem sys(cfg, &app);
    return sys.Run(100000, Milliseconds(1), Milliseconds(4));
  };
  const RunResult shared = run(0);
  const RunResult capped = run(1);
  ASSERT_GT(shared.mem.prefetches, 0u);
  ASSERT_GT(shared.completed, 0u);
  ASSERT_GT(capped.completed, 0u);
  ASSERT_GT(shared.fetch_retries, 0u);
  // The capped run gives up on background fetches it would otherwise have
  // retried through the blackout.
  EXPECT_GT(capped.mem.fetch_aborts, shared.mem.fetch_aborts);
  EXPECT_LT(capped.fetch_retries, shared.fetch_retries);
}

TEST(QosE2e, FetchLandingDuringItsOwnPostStrandsNoRequest) {
  // Regression for a lost wakeup. A demand fault marks its page kFetching
  // and posts the READ (plus prefetches); a full send queue makes the post
  // drain the CQ. With chunked delivery the READ's critical chunk and tail
  // can both land during that drain, so the page is already mapped when the
  // handler comes to wait on it — and a waiter registered on a settled page
  // is never woken. A four-deep QP forces the drain on most faults.
  SystemConfig cfg = QosConfig();
  cfg.fabric.qp_depth = 4;
  cfg.sched.prefetch_window = 8;
  cfg.sched.prefetch_policy = PrefetchPolicy::kAdaptive;
  PatternApp::Options po;
  po.pages = 1 << 13;
  po.pages_per_op = 8;
  po.stride = 4;
  po.pattern = PatternApp::Pattern::kStride;
  PatternApp app(po);
  MdSystem sys(cfg, &app);
  sys.tracer().Enable(1 << 20);
  RunResult r = sys.Run(200000, Milliseconds(1), Milliseconds(2));
  ASSERT_GT(r.qp_full_stalls, 0u);
  ASSERT_GT(r.mem.chunk_partials, 0u);
  ASSERT_EQ(sys.tracer().dropped(), 0u);
  // The drop ledger closes after the drain: every request was answered.
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  // A fault that never stalled is not counted as one: spans still
  // reconcile with the samples (stalls == faults per request).
  SpanTimeline tl = BuildSpans(sys.tracer());
  for (const std::string& p : tl.problems) {
    ADD_FAILURE() << "span grammar: " << p;
  }
  for (const std::string& m : ReconcileSpans(tl, r.samples)) {
    ADD_FAILURE() << "reconcile: " << m;
  }
}

TEST(QosE2e, EveryOffSpellingIsBitIdenticalToTheDefault) {
  // The off-is-off contract: an explicit `compress_gbps = 0` (compression
  // off) and an explicit `chunk_bytes = 0` are spellings of "QoS off" and
  // must replay the default config's trace stream event for event.
  auto run = [](bool alternate_spelling) {
    SystemConfig cfg = SystemConfig::Adios();
    cfg.seed = 7;
    if (alternate_spelling) {
      cfg.fabric.chunk_bytes = 0;
      cfg.fabric.compress_gbps = 0.0;
    }
    ArrayApp::Options ao;
    ao.entries = 1 << 14;
    ArrayApp app(ao);
    MdSystem sys(cfg, &app);
    sys.tracer().Enable(1 << 21);
    RunResult r = sys.Run(250000, Milliseconds(1), Milliseconds(3));
    EXPECT_GT(r.completed, 0u);
    return sys.tracer().records();
  };
  const std::vector<TraceRecord> base = run(false);
  const std::vector<TraceRecord> alt = run(true);
  ASSERT_EQ(base.size(), alt.size());
  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(base[i], alt[i]) << "first divergence at record " << i;
  }
}

}  // namespace
}  // namespace adios
