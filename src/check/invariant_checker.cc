#include "src/check/invariant_checker.h"

#include <sstream>
#include <vector>

#include "src/base/check.h"
#include "src/mem/resident_set.h"

namespace adios {
namespace {

// XOR mask applied to every byte of a poisoned page. Self-inverse, so
// re-mapping (or UnpoisonAll) restores the original bytes exactly.
constexpr std::byte kPoisonMask{0xA5};

}  // namespace

InvariantChecker::InvariantChecker(const CheckOptions& options, const Deps& deps)
    : options_(options), deps_(deps) {
  ADIOS_CHECK(deps_.engine != nullptr);
  if (options_.poison_evicted_pages) {
    ADIOS_CHECK(deps_.region != nullptr);
    ADIOS_CHECK(deps_.mm != nullptr);
  }
}

InvariantChecker::~InvariantChecker() {
  UnpoisonAll();
  if (installed_ && deps_.mm != nullptr) {
    deps_.mm->set_evict_hook(nullptr);
    deps_.mm->set_map_hook(nullptr);
  }
}

void InvariantChecker::Install() {
  ADIOS_CHECK(!installed_);
  installed_ = true;
  if (options_.check_switch_discipline) {
    switch_checker_ = std::make_unique<SwitchDisciplineChecker>(deps_.engine, options_.fatal);
  }
  if (options_.poison_evicted_pages && deps_.mm != nullptr) {
    deps_.mm->set_evict_hook([this](uint64_t vpage) { OnEvict(vpage); });
    deps_.mm->set_map_hook([this](uint64_t vpage) { OnMap(vpage); });
  }
}

void InvariantChecker::AuditNow() {
  ++report_.audits;
  AuditFrameConservation();
  AuditPageTableCounters();
  AuditQpConservation();
  AuditStacks();
  AuditTraceOrdering();
  AuditChecksumCoverage();
}

void InvariantChecker::AuditChecksumCoverage() {
  if (deps_.integrity == nullptr || deps_.mm == nullptr) {
    return;
  }
  const IntegrityLayer& in = *deps_.integrity;
  // The quarantine and ledger halves check detections and digests against
  // divergence state. One copy per page has none (PlacementMap's one-copy
  // rule): its corrupt or stale copy stays in sync and counts as
  // unrepairable or as a write-back abort instead.
  const bool replicated = deps_.placement->replicas() > 1;
  // (a) Quarantine coverage: a slot the layer has detected as corrupt and not
  // yet repaired must be marked divergent in the placement map, or the read
  // path could still route a fetch to the known-bad copy.
  if (replicated) {
    in.ForEachOutstanding([&](uint64_t vpage, uint32_t slot) {
      const uint32_t node = in.NodeOfSlot(vpage, slot);
      if (deps_.placement->InSync(vpage, node)) {
        std::ostringstream os;
        os << "page " << vpage << " slot " << slot << " (node " << node
           << ") has an outstanding corruption but is still in sync";
        Violation("corrupt replica not quarantined", os.str());
      }
    });
  }
  // (b) Ledger freshness, a window of pages per audit so periodic audits stay
  // cheap. The layer primes a vpage's ledger just before its first write, so
  // a vpage with a moved write stamp must be primed: an unprimed one reads as
  // clean without hashing, and a lost write-back to it would go unseen. The
  // digest checks compare against a fresh hash of the region, never the
  // layer's digest memo, so the audit does not trust what it checks:
  //   - any page whose memo claims validity must hold the fresh digest;
  //   - for a cold remote page with no write-back in flight, every in-sync
  //     replica's recorded digest must match it. Checker-poisoned pages are
  //     skipped here — their region bytes are deliberately scrambled
  //     (poison_evicted_pages), which is not modeled corruption.
  constexpr uint64_t kIntegrityAuditWindow = 1024;
  const uint64_t pages =
      std::min<uint64_t>(in.num_pages(), deps_.mm->page_table().num_pages());
  if (pages == 0) {
    return;
  }
  const uint64_t window = std::min<uint64_t>(pages, kIntegrityAuditWindow);
  for (uint64_t i = 0; i < window; ++i) {
    const uint64_t vpage = integrity_cursor_++ % pages;
    if (!in.Primed(vpage) && in.StampOf(vpage) != 0) {
      std::ostringstream os;
      os << "page " << vpage << " has write stamp sum " << in.StampOf(vpage)
         << " but its ledger was never primed from its set-up bytes";
      Violation("written page with an unprimed ledger", os.str());
    }
    const uint64_t fresh = in.FreshChecksum(vpage);
    uint64_t memo = 0;
    if (in.MemoValid(vpage, &memo) && memo != fresh) {
      std::ostringstream os;
      os << "page " << vpage << " memoizes digest " << memo
         << " but its region bytes hash to " << fresh << " with no write stamped since";
      Violation("digest memo stale", os.str());
    }
    if (!replicated || deps_.mm->StateOf(vpage) != PageState::kRemote ||
        PageIsPoisoned(vpage) ||
        (deps_.reclaimer != nullptr && deps_.reclaimer->WritebackInFlight(vpage))) {
      continue;
    }
    for (uint32_t slot = 0; slot < in.replicas(); ++slot) {
      const uint32_t node = in.NodeOfSlot(vpage, slot);
      if (!deps_.placement->InSync(vpage, node)) {
        continue;  // Divergent copies lag the region by definition.
      }
      if (in.ChecksumOf(vpage, slot) != fresh) {
        std::ostringstream os;
        os << "page " << vpage << " slot " << slot << " (node " << node
           << ") is in sync but its recorded digest does not match the region";
        Violation("checksum ledger drifted from region", os.str());
      }
    }
  }
}

void InvariantChecker::AuditTraceOrdering() {
  if (!deps_.tracer->enabled()) {
    return;
  }
  const std::vector<TraceRecord>& records = deps_.tracer->records();
  if (records.size() < trace_cursor_) {
    // The tracer was re-Enabled since the last audit; start over.
    trace_spans_ = SpanTimeline{};
    trace_folder_ = SpanFolder(&trace_spans_);
    trace_cursor_ = 0;
    trace_problems_reported_ = 0;
  }
  for (; trace_cursor_ < records.size(); ++trace_cursor_) {
    trace_folder_.Feed(records[trace_cursor_]);
  }
  for (; trace_problems_reported_ < trace_folder_.problem_count(); ++trace_problems_reported_) {
    Violation("trace event grammar violated",
              trace_problems_reported_ < trace_spans_.problems.size()
                  ? trace_spans_.problems[trace_problems_reported_]
                  : "(past the span builder's problem cap)");
  }
}

void InvariantChecker::AuditTraceTermination() {
  if (!deps_.tracer->enabled()) {
    return;
  }
  if (deps_.tracer->dropped() > 0) {
    return;  // Truncated stream: missing terminations are expected.
  }
  AuditTraceOrdering();  // Catch up on any tail appended since the last audit.
  // Every span began at a traced arrival; overload drops count in rx_dropped.
  uint64_t completed = 0;
  for (const RequestSpan& span : trace_spans_.spans) {
    completed += span.completed ? 1 : 0;
  }
  const uint64_t arrived = trace_spans_.spans.size();
  const uint64_t dropped = deps_.rx_dropped ? deps_.rx_dropped() : 0;
  if (arrived != completed + dropped) {
    std::ostringstream os;
    os << "arrived " << arrived << " != done " << completed << " + rx-dropped " << dropped
       << " (a request neither completed nor was dropped)";
    Violation("trace termination violated", os.str());
  }
}

void InvariantChecker::SchedulePeriodicAudits(SimTime horizon) {
  if (options_.audit_interval_ns == 0) {
    return;
  }
  audit_horizon_ = horizon;
  ScheduleNextAudit();
}

void InvariantChecker::ScheduleNextAudit() {
  deps_.engine->Schedule(options_.audit_interval_ns, [this] {
    AuditNow();
    // Self-rescheduling stops at the horizon so an engine that runs until
    // its queue drains is not kept alive by the auditor itself.
    if (deps_.engine->now() < audit_horizon_) {
      ScheduleNextAudit();
    }
  });
}

void InvariantChecker::Violation(const char* what, const std::string& details) {
  ++report_.violations;
  if (options_.fatal) {
    CheckFailed(what, "src/check/invariant_checker.cc", 0, details.c_str());
  }
}

void InvariantChecker::AuditFrameConservation() {
  if (deps_.mm == nullptr) {
    return;
  }
  const uint64_t resident = deps_.mm->page_table().resident_pages();
  const uint64_t fetching = deps_.mm->page_table().fetching_pages();
  const uint64_t writebacks =
      deps_.reclaimer != nullptr ? deps_.reclaimer->writebacks_inflight() : 0;
  const uint64_t bounce =
      deps_.reclaimer != nullptr ? deps_.reclaimer->bounce_frames_held() : 0;
  const uint64_t used = deps_.mm->used_frames();
  if (resident + fetching + writebacks + bounce != used) {
    std::ostringstream os;
    os << "resident " << resident << " + fetching " << fetching << " + writebacks " << writebacks
       << " + bounce " << bounce << " != used frames " << used
       << " (leak or double-release)";
    Violation("frame conservation violated", os.str());
  }
  if (deps_.reclaimer != nullptr &&
      deps_.reclaimer->writeback_pages_tracked() != writebacks) {
    std::ostringstream os;
    os << "write-back fan-out tracks " << deps_.reclaimer->writeback_pages_tracked()
       << " pages but writebacks_inflight is " << writebacks
       << " (a replica WQE settled without its page, or vice versa)";
    Violation("write-back fan-out accounting drifted", os.str());
  }
}

void InvariantChecker::AuditPageTableCounters() {
  if (deps_.mm == nullptr) {
    return;
  }
  PageTable& pt = deps_.mm->page_table();
  uint64_t resident = 0;
  uint64_t fetching = 0;
  uint64_t pf_fetching = 0;
  uint64_t pf_resident = 0;
  for (uint64_t vpage = 0; vpage < pt.num_pages(); ++vpage) {
    const PageInfo info = pt.Info(vpage);
    if (info.state == PageWordState::kEvicting) {
      // The in-sim eviction path claims and commits inside one
      // non-suspending call; audits run from the engine, between fiber
      // steps, so an observed claim means it was held across a suspension.
      std::ostringstream os;
      os << "page " << vpage << " is kEvicting at audit time";
      Violation("evict claim held across a suspension point", os.str());
    }
    if (info.partial && info.state != PageWordState::kFetching) {
      // The partial bit is a transfer-in-progress annotation: MarkPresent
      // and MarkFetchAborted both clear it, so seeing it on a settled page
      // means a chunked fetch leaked it (docs/QOS.md).
      std::ostringstream os;
      os << "page " << vpage << " is " << (info.resident() ? "resident" : "remote")
         << " but still flagged partial";
      Violation("kPartial leaked past transfer", os.str());
    }
    if (info.resident()) {
      ++resident;
      if (info.prefetched) {
        ++pf_resident;
      }
    } else if (info.state == PageWordState::kFetching) {
      ++fetching;
      if (info.prefetched) {
        ++pf_fetching;
      }
    } else if (info.prefetched) {
      // A kRemote page must have resolved its prefetch (wasted/aborted)
      // before giving the frame back; a lingering bit means a leaked
      // prefetch-cache slot.
      std::ostringstream os;
      os << "page " << vpage << " is kRemote but still flagged prefetched";
      Violation("prefetched bit leaked past eviction", os.str());
    }
  }
  if (resident != pt.resident_pages() || fetching != pt.fetching_pages()) {
    std::ostringstream os;
    os << "walk found resident " << resident << " / fetching " << fetching
       << ", counters say " << pt.resident_pages() << " / " << pt.fetching_pages();
    Violation("page-table counters drifted from entries", os.str());
  }
  if (pf_fetching != pt.prefetched_fetching() || pf_resident != pt.prefetched_resident()) {
    std::ostringstream os;
    os << "walk found prefetched-fetching " << pf_fetching << " / prefetched-resident "
       << pf_resident << ", counters say " << pt.prefetched_fetching() << " / "
       << pt.prefetched_resident();
    Violation("prefetch-cache counters drifted from entries", os.str());
  }
  const ResidentPageSet* rs = pt.resident_set();
  if (rs == nullptr) {
    return;
  }
  // The sharded clock's membership and its occupancy bitmap: every mapped
  // page is in the set once, and ScanShard's bitmap shows exactly the live
  // slots (a stale bit over a dead slot is transient under real threads
  // only).
  if (rs->size() != pt.resident_pages()) {
    std::ostringstream os;
    os << "resident set holds " << rs->size() << " pages, counters say "
       << pt.resident_pages();
    Violation("resident set drifted from page table", os.str());
  }
  uint64_t marked = 0;
  for (uint64_t i = 0; i < rs->capacity(); ++i) {
    if (!rs->marked(i)) {
      continue;
    }
    ++marked;
    if (!ResidentPageSet::Live(rs->slot(i))) {
      std::ostringstream os;
      os << "slot " << i << " is marked occupied but holds no page";
      Violation("resident set bitmap marks a dead slot", os.str());
    }
  }
  if (marked != rs->size()) {
    std::ostringstream os;
    os << "bitmap has " << marked << " bits set, set size is " << rs->size();
    Violation("resident set bitmap drifted from its size", os.str());
  }
}

void InvariantChecker::AuditQpConservation() {
  if (deps_.fabric == nullptr) {
    return;
  }
  const uint64_t posted = deps_.fabric->TotalPosted();
  const uint64_t completed = deps_.fabric->TotalCompletions();
  const uint64_t outstanding = deps_.fabric->TotalOutstanding();
  if (posted != completed + outstanding) {
    std::ostringstream os;
    os << "posted " << posted << " != completed " << completed << " + outstanding "
       << outstanding;
    Violation("QP work conservation violated", os.str());
  }
}

void InvariantChecker::AuditStacks() {
  const Engine::StackAuditResult fibers = deps_.engine->AuditStacks();
  if (fibers.canary_violations != 0) {
    std::ostringstream os;
    os << fibers.canary_violations << " of " << fibers.fibers
       << " fiber stacks have a trampled canary (overflow)";
    Violation("fiber stack canary trampled", os.str());
  }
  if (fibers.max_high_water > report_.fiber_stack_high_water) {
    report_.fiber_stack_high_water = fibers.max_high_water;
  }
  if (deps_.pool != nullptr) {
    const UnithreadPool::AuditResult pool = deps_.pool->Audit();
    if (!pool.free_list_ok) {
      Violation("unithread pool free list corrupt",
                "duplicate or out-of-range indices in the free list, or a "
                "never-acquired buffer missing from it");
    }
    if (pool.canary_violations != 0) {
      std::ostringstream os;
      os << pool.canary_violations << " of " << pool.buffers_checked
         << " universal stacks have a trampled canary (overflow)";
      Violation("universal stack canary trampled", os.str());
    }
    if (pool.max_high_water > report_.pool_stack_high_water) {
      report_.pool_stack_high_water = pool.max_high_water;
    }
  }
}

void InvariantChecker::OnEvict(uint64_t vpage) {
  if (poisoned_.count(vpage) != 0) {
    return;  // Already scrambled (evict raced a re-poison; be idempotent).
  }
  XorPage(vpage);
  poisoned_.insert(vpage);
  ++report_.poison_events;
  report_.pages_poisoned = poisoned_.size();
}

void InvariantChecker::OnMap(uint64_t vpage) {
  auto it = poisoned_.find(vpage);
  if (it == poisoned_.end()) {
    return;
  }
  XorPage(vpage);
  poisoned_.erase(it);
  report_.pages_poisoned = poisoned_.size();
}

void InvariantChecker::XorPage(uint64_t vpage) {
  std::byte* bytes = deps_.region->MutablePage(vpage);
  for (uint64_t i = 0; i < kPageSize; ++i) {
    bytes[i] ^= kPoisonMask;
  }
}

void InvariantChecker::UnpoisonAll() {
  if (deps_.region == nullptr) {
    poisoned_.clear();
    return;
  }
  for (uint64_t vpage : poisoned_) {
    XorPage(vpage);
  }
  poisoned_.clear();
  report_.pages_poisoned = 0;
}

}  // namespace adios
