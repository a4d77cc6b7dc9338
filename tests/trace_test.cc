#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "src/apps/array_app.h"
#include "src/apps/memcached_app.h"
#include "src/core/md_system.h"

namespace adios {
namespace {

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  t.Record(1, 1, TraceEvent::kArrive);
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, CapacityBounds) {
  Tracer t;
  t.Enable(3);
  for (int i = 0; i < 10; ++i) {
    t.Record(static_cast<SimTime>(i), 1, TraceEvent::kArrive);
  }
  EXPECT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.dropped(), 7u);  // Overflow is counted, not silent.
  t.Enable(3);                 // Re-enabling resets the drop counter.
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, CapacityZeroEnableDropsEverything) {
  Tracer t;
  t.Enable(0);  // Legal: tracing "on" purely to count the would-be volume.
  EXPECT_TRUE(t.enabled());
  for (int i = 0; i < 5; ++i) {
    t.Record(static_cast<SimTime>(i), 1, TraceEvent::kArrive);
  }
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.dropped(), 5u);
}

TEST(Tracer, ReEnableClearsRecordsAndDrops) {
  Tracer t;
  t.Enable(2);
  t.Record(1, 1, TraceEvent::kArrive);
  t.Record(2, 1, TraceEvent::kDone);
  t.Record(3, 2, TraceEvent::kArrive);  // At capacity: dropped.
  ASSERT_EQ(t.records().size(), 2u);
  ASSERT_EQ(t.dropped(), 1u);
  t.Enable(8);  // Fresh stream: no stale records, no stale drop count.
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.dropped(), 0u);
  t.Record(4, 3, TraceEvent::kArrive);
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].request_id, 3u);
}

TEST(Tracer, ForRequestFilters) {
  Tracer t;
  t.Enable(16);
  t.Record(1, 7, TraceEvent::kArrive);
  t.Record(2, 8, TraceEvent::kArrive);
  t.Record(3, 7, TraceEvent::kDone);
  const auto recs = t.ForRequest(7);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].event, TraceEvent::kArrive);
  EXPECT_EQ(recs[1].event, TraceEvent::kDone);
}

TEST(Tracer, ForRequestPreservesOrderUnderInterleavedIds) {
  Tracer t;
  t.Enable(32);
  // Three requests interleaved the way concurrent unithreads interleave.
  t.Record(1, 10, TraceEvent::kArrive);
  t.Record(2, 11, TraceEvent::kArrive);
  t.Record(3, 10, TraceEvent::kStart, 0);
  t.Record(4, 12, TraceEvent::kArrive);
  t.Record(5, 11, TraceEvent::kStart, 1);
  t.Record(6, 10, TraceEvent::kFault, 99);
  t.Record(7, 12, TraceEvent::kStart, 2);
  t.Record(8, 10, TraceEvent::kDone);
  t.Record(9, 11, TraceEvent::kDone);
  const auto recs = t.ForRequest(10);
  ASSERT_EQ(recs.size(), 4u);
  const TraceEvent expect[] = {TraceEvent::kArrive, TraceEvent::kStart, TraceEvent::kFault,
                               TraceEvent::kDone};
  SimTime prev = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].event, expect[i]);
    EXPECT_EQ(recs[i].request_id, 10u);
    EXPECT_GT(recs[i].time, prev);
    prev = recs[i].time;
  }
  EXPECT_TRUE(t.ForRequest(999).empty());
}

TEST(Tracer, EventTableHasOneRowPerEvent) {
  std::set<std::string> names;
  for (uint8_t e = 0; e < kNumTraceEvents; ++e) {
    const auto ev = static_cast<TraceEvent>(e);
    const TraceEventInfo& info = TraceEventInfoOf(ev);
    EXPECT_EQ(info.event, ev);
    ASSERT_NE(info.name, nullptr);
    EXPECT_STRNE(info.name, "?");
    EXPECT_STREQ(TraceEventName(ev), info.name);
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate name " << info.name;
    EXPECT_LE(static_cast<uint8_t>(info.scope), static_cast<uint8_t>(TraceScope::kOverloadDrop))
        << info.name;
    // System events carry request id 0, so they have no request lane.
    if (info.scope == TraceScope::kSystem) {
      EXPECT_TRUE(info.track == TraceTrack::kDispatcher || info.track == TraceTrack::kNode)
          << info.name;
    }
  }
  EXPECT_STREQ(TraceEventName(static_cast<TraceEvent>(kNumTraceEvents)), "?");
}

TEST(Tracer, OffRecordsNothing) {
  Tracer* off = Tracer::Off();
  EXPECT_FALSE(off->enabled());
  off->Record(1, 1, TraceEvent::kArrive);
  EXPECT_TRUE(off->records().empty());
}

TEST(TracerDeathTest, OffCannotBeEnabled) {
  EXPECT_DEATH(Tracer::Off()->Enable(4), "");
}

// One record of every event, 250 ns apart: system events carry request id
// 0, every other event request 7, and kFailover/kCorrupt appear both with and
// without a request (demand detections vs scrub detections).
Tracer EveryEventTracer() {
  Tracer t;
  t.Enable(64);
  SimTime now = 1000;
  for (uint8_t e = 0; e < kNumTraceEvents; ++e) {
    const auto ev = static_cast<TraceEvent>(e);
    const bool system = ev == TraceEvent::kNodeSuspect || ev == TraceEvent::kNodeDead ||
                        ev == TraceEvent::kResilverDone || ev == TraceEvent::kScale ||
                        ev == TraceEvent::kScrubStart || ev == TraceEvent::kScrubDone ||
                        ev == TraceEvent::kClassDequeue;
    t.Record(now, system ? 0 : 7, ev, 10u + e);
    now += 250;
    if (ev == TraceEvent::kFailover || ev == TraceEvent::kCorrupt) {
      t.Record(now, 0, ev, 10u + e);
      now += 250;
    }
  }
  return t;
}

TEST(Tracer, PrintTimelineGolden) {
  const Tracer t = EveryEventTracer();
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.PrintTimeline(7, f);
  t.PrintTimeline(0, f);
  t.PrintTimeline(99, f);
  std::rewind(f);
  std::string actual;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    actual.append(buf, n);
  }
  std::fclose(f);
  const std::string expected =
      "request 7 timeline:\n"
      "  +    0.00 us (  +0.00)  arrive       \n"
      "  +    0.25 us (  +0.25)  dispatch      worker=11\n"
      "  +    0.50 us (  +0.25)  start         worker=12\n"
      "  +    0.75 us (  +0.25)  fault         page=13\n"
      "  +    1.00 us (  +0.25)  fetch-done   \n"
      "  +    1.25 us (  +0.25)  resume        worker=15\n"
      "  +    1.50 us (  +0.25)  preempt      \n"
      "  +    1.75 us (  +0.25)  done         \n"
      "  +    2.00 us (  +0.25)  fetch-timeout page=18\n"
      "  +    2.25 us (  +0.25)  retry         attempt=19\n"
      "  +    3.00 us (  +0.75)  failover      node=22\n"
      "  +    3.75 us (  +0.75)  prefetch      page=24\n"
      "  +    4.00 us (  +0.25)  prefetch-hit  page=25\n"
      "  +    4.25 us (  +0.25)  stall         page=26\n"
      "  +    4.50 us (  +0.25)  stall-done   \n"
      "  +    4.75 us (  +0.25)  frame-stall   page=28\n"
      "  +    5.00 us (  +0.25)  frame-stall-done\n"
      "  +    5.25 us (  +0.25)  tx-wait      \n"
      "  +    5.50 us (  +0.25)  admit-drop    tenant=31\n"
      "  +    5.75 us (  +0.25)  shed-drop     tenant=32\n"
      "  +    6.25 us (  +0.50)  corrupt       node=34\n"
      "  +    7.25 us (  +1.00)  chunk-ready   page=37\n"
      "request 0 timeline:\n"
      "  +    0.00 us (  +0.00)  node-suspect  node=20\n"
      "  +    0.25 us (  +0.25)  node-dead     node=21\n"
      "  +    0.75 us (  +0.50)  failover      node=22\n"
      "  +    1.00 us (  +0.25)  resilver-done node=23\n"
      "  +    3.50 us (  +2.50)  scale         workers=33\n"
      "  +    4.00 us (  +0.50)  corrupt       node=34\n"
      "  +    4.25 us (  +0.25)  scrub-start   pass=35\n"
      "  +    4.50 us (  +0.25)  scrub-done    finds=36\n"
      "  +    5.00 us (  +0.50)  class-dequeue class=38\n"
      "request 99: no trace records\n";
  EXPECT_EQ(actual, expected) << actual;
}

TEST(TraceIntegration, YieldingRequestTimelineIsWellFormed) {
  ArrayApp::Options ao;
  ao.entries = 1 << 16;
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::Adios(), &app);
  sys.tracer().Enable(1 << 18);
  RunResult r = sys.Run(300000, Milliseconds(3), Milliseconds(6));
  ASSERT_GT(r.measured, 100u);

  // Find a request that faulted and check its event ordering.
  uint64_t with_fault = 0;
  for (const auto& rec : sys.tracer().records()) {
    if (rec.event == TraceEvent::kFault) {
      with_fault = rec.request_id;
      break;
    }
  }
  ASSERT_NE(with_fault, 0u);
  const auto recs = sys.tracer().ForRequest(with_fault);
  ASSERT_GE(recs.size(), 5u);
  // arrive -> dispatch -> start -> fault -> fetch-done -> resume -> done,
  // monotone in time.
  EXPECT_EQ(recs.front().event, TraceEvent::kArrive);
  EXPECT_EQ(recs.back().event, TraceEvent::kDone);
  SimTime prev = 0;
  bool saw_fault = false;
  bool saw_resume = false;
  for (const auto& rec : recs) {
    EXPECT_GE(rec.time, prev);
    prev = rec.time;
    saw_fault |= rec.event == TraceEvent::kFault;
    saw_resume |= rec.event == TraceEvent::kResume;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_resume);  // Yield policy resumes after the fetch.
}

TEST(TraceIntegration, BusyWaitingNeverResumes) {
  ArrayApp::Options ao;
  ao.entries = 1 << 16;
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::DiLOS(), &app);
  sys.tracer().Enable(1 << 18);
  sys.Run(300000, Milliseconds(3), Milliseconds(6));
  for (const auto& rec : sys.tracer().records()) {
    EXPECT_NE(rec.event, TraceEvent::kResume);  // Run-to-completion.
  }
}

TEST(MemcachedSetMix, SetsDirtyPagesAndVerify) {
  MemcachedApp::Options o;
  o.num_keys = 1 << 15;
  o.set_fraction = 0.3;
  MemcachedApp app(o);
  MdSystem sys(SystemConfig::Adios(), &app);
  RunResult r = sys.Run(300000, Milliseconds(4), Milliseconds(10));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.ops[MemcachedApp::kOpSet].e2e.count(), 100u);
  EXPECT_GT(r.ops[MemcachedApp::kOpGet].e2e.count(), 500u);
  // Writes produce dirty evictions (write-back over RDMA).
  EXPECT_GT(r.mem.evictions_dirty, 0u);
}

}  // namespace
}  // namespace adios
