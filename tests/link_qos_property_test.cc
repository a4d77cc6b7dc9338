// Property tests for the WDRR class scheduler on FairLink (docs/QOS.md).
//
// The link never drops, so per class `enqueued == delivered + queued` must
// hold at every instant under any offered load; demand must open every idle
// period; a weight-1 class must never starve under full backlog; and the
// whole grant schedule must replay bit-identically under a fixed seed.

#include <gtest/gtest.h>

#include <array>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/rdma/fair_link.h"
#include "src/sim/engine.h"

namespace adios {
namespace {

constexpr std::array<uint32_t, kNumTrafficClasses> kDefaultWeights = {8, 2, 1};

TrafficClass ClassOf(uint32_t c) { return static_cast<TrafficClass>(c); }

// One (class, bytes) grant as observed through the dequeue hook.
using Grant = std::tuple<uint32_t, uint64_t, SimTime>;

void CheckConservation(const FairLink& link) {
  for (uint32_t c = 0; c < kNumTrafficClasses; ++c) {
    uint64_t queued_items = 0;
    EXPECT_GE(link.class_enqueued_items(c), link.class_delivered_items(c));
    EXPECT_GE(link.class_enqueued_bytes(c), link.class_delivered_bytes(c));
    queued_items = link.class_enqueued_items(c) - link.class_delivered_items(c);
    // Queued items are still in the class queues; TotalQueued covers the
    // item currently in service only until its grant fires, so bound it.
    EXPECT_LE(queued_items, link.TotalQueued() + 1);
  }
}

TEST(LinkQosProperty, RandomizedLoadConservesBytesPerClass) {
  // Random multi-class, multi-flow offered load: arrivals spread over 200 us,
  // sizes 64..8192 bytes, three flows. After the engine drains, every class
  // must have delivered exactly what was enqueued — the link never drops —
  // and conservation must also hold at sampled instants mid-run.
  Engine e;
  FairLink link(&e, "qos", 100.0);
  link.EnableClasses(kNumTrafficClasses, kDefaultWeights);
  const uint32_t f0 = link.AddFlow();
  const uint32_t f1 = link.AddFlow();
  const uint32_t f2 = link.AddFlow();
  const std::array<uint32_t, 3> flows = {f0, f1, f2};

  Rng rng(2024);
  std::array<uint64_t, kNumTrafficClasses> offered_bytes = {};
  std::array<uint64_t, kNumTrafficClasses> offered_items = {};
  uint64_t done_count = 0;
  for (int i = 0; i < 400; ++i) {
    const uint32_t cls = static_cast<uint32_t>(rng.NextBelow(kNumTrafficClasses));
    const uint64_t bytes = rng.NextInRange(64, 8192);
    const uint32_t flow = flows[rng.NextBelow(flows.size())];
    const SimDuration at = rng.NextBelow(200000);
    offered_bytes[cls] += bytes;
    ++offered_items[cls];
    e.Schedule(at, [&link, flow, bytes, cls, &done_count] {
      link.Enqueue(flow, bytes, [&done_count] { ++done_count; }, ClassOf(cls));
    });
  }
  // Mid-run probes: conservation is an every-instant invariant, not just a
  // drain-time one.
  for (SimDuration at : {50000, 120000, 190000}) {
    e.Schedule(at, [&link] { CheckConservation(link); });
  }
  e.Run();

  EXPECT_EQ(done_count, 400u);
  for (uint32_t c = 0; c < kNumTrafficClasses; ++c) {
    EXPECT_EQ(link.class_enqueued_bytes(c), offered_bytes[c]) << "class " << c;
    EXPECT_EQ(link.class_delivered_bytes(c), offered_bytes[c]) << "class " << c;
    EXPECT_EQ(link.class_enqueued_items(c), offered_items[c]) << "class " << c;
    EXPECT_EQ(link.class_delivered_items(c), offered_items[c]) << "class " << c;
  }
  EXPECT_EQ(link.TotalQueued(), 0u);
}

TEST(LinkQosProperty, DemandBeatsEarlierQueuedBackground) {
  // Open the link with a demand grant, then enqueue background *before* more
  // demand while that grant is in service: class priority, not arrival
  // order, decides the next grants — the later-queued demand items are
  // served off the demand class's standing credit before any background.
  Engine e;
  FairLink link(&e, "qos", 100.0);
  link.EnableClasses(kNumTrafficClasses, kDefaultWeights);
  const uint32_t f = link.AddFlow();
  std::vector<uint32_t> grant_order;
  link.set_dequeue_hook(
      [&grant_order](uint32_t cls, uint64_t) { grant_order.push_back(cls); });

  link.Enqueue(f, 4096, [] {}, TrafficClass::kDemand);  // Enters service.
  e.Schedule(10, [&link, f] {
    link.Enqueue(f, 4096, [] {}, TrafficClass::kBackground);
    link.Enqueue(f, 4096, [] {}, TrafficClass::kBackground);
    link.Enqueue(f, 4096, [] {}, TrafficClass::kDemand);
    link.Enqueue(f, 4096, [] {}, TrafficClass::kDemand);
  });
  e.Run();

  const uint32_t d = static_cast<uint32_t>(TrafficClass::kDemand);
  const uint32_t b = static_cast<uint32_t>(TrafficClass::kBackground);
  EXPECT_EQ(grant_order, (std::vector<uint32_t>{d, d, d, b, b}));
}

TEST(LinkQosProperty, BackgroundNeverStarvesUnderFullBacklog) {
  // All three classes permanently backlogged with 4 KiB items: background
  // (weight 1) must receive a grant at least every sum-of-weights + 1 grants.
  Engine e;
  FairLink link(&e, "qos", 100.0);
  link.EnableClasses(kNumTrafficClasses, kDefaultWeights);
  const uint32_t f = link.AddFlow();
  std::vector<uint32_t> grants;
  link.set_dequeue_hook([&grants](uint32_t cls, uint64_t) { grants.push_back(cls); });
  for (int i = 0; i < 60; ++i) {
    for (uint32_t c = 0; c < kNumTrafficClasses; ++c) {
      link.Enqueue(f, 4096, [] {}, ClassOf(c));
    }
  }
  e.Run();

  ASSERT_EQ(grants.size(), 180u);
  const uint32_t bg = static_cast<uint32_t>(TrafficClass::kBackground);
  size_t since_bg = 0;
  size_t max_gap = 0;
  for (const uint32_t cls : grants) {
    if (cls == bg) {
      since_bg = 0;
    } else {
      ++since_bg;
      if (since_bg > max_gap) {
        max_gap = since_bg;
      }
    }
    // Stop auditing once background's own queue drains (the tail of the run
    // legitimately serves only the classes that still have items).
  }
  // With weights {8,2,1} a steady WDRR round is 8 + 2 + 1 grants, so the
  // gap between background grants is 10; the opening round can double
  // demand's credit (deficit accrued at the first visit is spent across two
  // bursts), which bounds the worst case at two demand+prefetch rounds.
  // The drain tail is excluded by construction: with equal item counts the
  // weight-1 class drains last, so grants after its last one do not exist.
  EXPECT_LE(max_gap, 2u * (8u + 2u));
}

TEST(LinkQosProperty, BackloggedServiceConvergesToWeights) {
  // Keep all classes saturated and look at delivered counts while everyone
  // is still backlogged: service must converge to the 8:2:1 weights.
  Engine e;
  FairLink link(&e, "qos", 100.0);
  link.EnableClasses(kNumTrafficClasses, kDefaultWeights);
  const uint32_t f = link.AddFlow();
  for (int i = 0; i < 100; ++i) {
    for (uint32_t c = 0; c < kNumTrafficClasses; ++c) {
      link.Enqueue(f, 4096, [] {}, ClassOf(c));
    }
  }
  // Sample after ~44 grants (four full WDRR rounds of 8 + 2 + 1, modulo the
  // opening round's extra demand credit): every class is still backlogged,
  // so the delivered ratio is the scheduler's, not the drain tail's.
  const SimDuration grant_ns = FabricParams::SerializationNs(4096, 100.0);
  e.Schedule(grant_ns * 44 + 1, [&link] {
    const uint64_t d = link.class_delivered_items(0);
    const uint64_t p = link.class_delivered_items(1);
    const uint64_t b = link.class_delivered_items(2);
    EXPECT_GE(d + p + b, 44u);
    EXPECT_LE(d + p + b, 46u);
    EXPECT_GE(d, 32u);
    EXPECT_GE(p, 4u);
    EXPECT_LE(p, 10u);
    EXPECT_GE(b, 2u);
    EXPECT_LE(b, 6u);
    EXPECT_GT(d, p);
    EXPECT_GT(p, b);
  });
  e.Run();
}

TEST(LinkQosProperty, GrantScheduleReplaysBitIdentically) {
  // Two runs of the same seeded random load must produce the same grant
  // sequence — (class, bytes, time), grant for grant.
  auto run_once = [](uint64_t seed) {
    Engine e;
    FairLink link(&e, "qos", 100.0);
    link.EnableClasses(kNumTrafficClasses, kDefaultWeights);
    const uint32_t f0 = link.AddFlow();
    const uint32_t f1 = link.AddFlow();
    std::vector<Grant> grants;
    link.set_dequeue_hook([&grants, &e](uint32_t cls, uint64_t bytes) {
      grants.emplace_back(cls, bytes, e.now());
    });
    Rng rng(seed);
    for (int i = 0; i < 300; ++i) {
      const uint32_t cls = static_cast<uint32_t>(rng.NextBelow(kNumTrafficClasses));
      const uint64_t bytes = rng.NextInRange(64, 8192);
      const uint32_t flow = rng.NextBool(0.5) ? f0 : f1;
      const SimDuration at = rng.NextBelow(150000);
      e.Schedule(at, [&link, flow, bytes, cls] {
        link.Enqueue(flow, bytes, [] {}, ClassOf(cls));
      });
    }
    e.Run();
    return grants;
  };
  const std::vector<Grant> a = run_once(777);
  const std::vector<Grant> b = run_once(777);
  ASSERT_EQ(a.size(), 300u);
  EXPECT_EQ(a, b);
  // A different seed produces a different schedule (the property test is not
  // vacuously comparing constants).
  EXPECT_NE(run_once(778), a);
}

TEST(LinkQosProperty, ZeroWeightsClampToStarvationFloor) {
  // EnableClasses clamps every weight to >= 1, so a zero-weight background
  // class still drains under permanent demand backlog.
  Engine e;
  FairLink link(&e, "qos", 100.0);
  link.EnableClasses(kNumTrafficClasses, {8, 0, 0});
  const uint32_t f = link.AddFlow();
  std::vector<uint32_t> grants;
  link.set_dequeue_hook([&grants](uint32_t cls, uint64_t) { grants.push_back(cls); });
  for (int i = 0; i < 40; ++i) {
    link.Enqueue(f, 4096, [] {}, TrafficClass::kDemand);
  }
  bool background_done = false;
  link.Enqueue(f, 4096, [&background_done] { background_done = true; },
               TrafficClass::kBackground);
  for (int i = 0; i < 40; ++i) {
    link.Enqueue(f, 4096, [] {}, TrafficClass::kDemand);
  }
  e.Run();
  EXPECT_TRUE(background_done);
  EXPECT_EQ(link.class_delivered_items(2), 1u);
  // The clamp means background is granted while demand is still deeply
  // backlogged, not merely after demand drains.
  const uint32_t bg = static_cast<uint32_t>(TrafficClass::kBackground);
  size_t bg_at = grants.size();
  for (size_t i = 0; i < grants.size(); ++i) {
    if (grants[i] == bg) {
      bg_at = i;
      break;
    }
  }
  EXPECT_LT(bg_at, 40u);
}

// A classless link is one WDRR class: class tags neither reorder service nor
// change timing. Flow f0 queues three items (background, background,
// prefetch) and flow f1 two demand items, all at t = 0; item i is
// 1000 + 100 i bytes, so at 100 Gb/s it takes 80 + 8 i ns. Returns the
// (item, completion time) grant order.
std::vector<std::pair<int, SimTime>> RunClasslessLink(FairLink::Discipline discipline) {
  Engine e;
  FairLink link(&e, "l", 100.0, 0, discipline);
  const uint32_t f0 = link.AddFlow();
  const uint32_t f1 = link.AddFlow();
  const std::array<std::pair<uint32_t, TrafficClass>, 5> items = {{
      {f0, TrafficClass::kBackground},
      {f0, TrafficClass::kBackground},
      {f0, TrafficClass::kPrefetch},
      {f1, TrafficClass::kDemand},
      {f1, TrafficClass::kDemand},
  }};
  std::vector<std::pair<int, SimTime>> order;
  for (int i = 0; i < 5; ++i) {
    link.Enqueue(items[i].first, 1000 + 100 * i,
                 [&order, i, &e] { order.emplace_back(i, e.now()); }, items[i].second);
  }
  e.Run();
  EXPECT_EQ(link.num_classes(), 1u);
  return order;
}

TEST(LinkQosProperty, ClasslessLinkServesFlowsRoundRobinIgnoringClasses) {
  // Item 0 enters service on arrival; then f0 and f1 alternate: demand item
  // 3 waits behind background item 1, and prefetch item 2 behind it.
  const std::vector<std::pair<int, SimTime>> want = {
      {0, 80}, {1, 168}, {3, 272}, {2, 368}, {4, 480}};
  EXPECT_EQ(RunClasslessLink(FairLink::Discipline::kRoundRobin), want);
}

TEST(LinkQosProperty, ClasslessFifoLinkServesArrivalOrderIgnoringClasses) {
  const std::vector<std::pair<int, SimTime>> want = {
      {0, 80}, {1, 168}, {2, 264}, {3, 368}, {4, 480}};
  EXPECT_EQ(RunClasslessLink(FairLink::Discipline::kFifo), want);
}

TEST(LinkQosProperty, ClasslessLinkCountsEachItemsOwnClass) {
  // One queue, three classes of traffic: the per-class counters still split
  // by each item's tag, enqueued at post and delivered at grant.
  Engine e;
  FairLink link(&e, "l", 100.0);
  const uint32_t f = link.AddFlow();
  link.Enqueue(f, 1000, [] {}, TrafficClass::kDemand);  // In service at once.
  link.Enqueue(f, 2000, [] {}, TrafficClass::kBackground);
  link.Enqueue(f, 3000, [] {}, TrafficClass::kDemand);
  link.Enqueue(f, 4000, [] {}, TrafficClass::kPrefetch);
  EXPECT_EQ(link.class_enqueued_bytes(0), 4000u);
  EXPECT_EQ(link.class_enqueued_bytes(1), 4000u);
  EXPECT_EQ(link.class_enqueued_bytes(2), 2000u);
  EXPECT_EQ(link.class_enqueued_items(0), 2u);
  EXPECT_EQ(link.class_delivered_items(0), 1u);
  EXPECT_EQ(link.class_delivered_bytes(0), 1000u);
  EXPECT_EQ(link.class_delivered_items(1), 0u);
  EXPECT_EQ(link.class_delivered_items(2), 0u);
  e.Run();
  const std::array<uint64_t, kNumTrafficClasses> bytes = {4000, 4000, 2000};
  const std::array<uint64_t, kNumTrafficClasses> items = {2, 1, 1};
  for (uint32_t c = 0; c < kNumTrafficClasses; ++c) {
    EXPECT_EQ(link.class_delivered_bytes(c), bytes[c]) << "class " << c;
    EXPECT_EQ(link.class_delivered_items(c), items[c]) << "class " << c;
    EXPECT_EQ(link.class_enqueued_items(c), items[c]) << "class " << c;
  }
}

TEST(LinkQosProperty, PerFlowFairnessHoldsWithinAClass) {
  // Two flows both backlogged in the demand class: the per-flow round-robin
  // the seed link guarantees must survive inside each virtual queue.
  Engine e;
  FairLink link(&e, "qos", 100.0);
  link.EnableClasses(kNumTrafficClasses, kDefaultWeights);
  const uint32_t f0 = link.AddFlow();
  const uint32_t f1 = link.AddFlow();
  std::vector<uint32_t> flow_order;
  for (int i = 0; i < 8; ++i) {
    link.Enqueue(f0, 4096, [&flow_order, f0] { flow_order.push_back(f0); },
                 TrafficClass::kDemand);
  }
  for (int i = 0; i < 8; ++i) {
    link.Enqueue(f1, 4096, [&flow_order, f1] { flow_order.push_back(f1); },
                 TrafficClass::kDemand);
  }
  e.Run();
  ASSERT_EQ(flow_order.size(), 16u);
  // After the first grant (f0 was alone when service started), the two flows
  // must alternate until one drains.
  for (size_t i = 2; i + 1 < flow_order.size() - 1; ++i) {
    EXPECT_NE(flow_order[i], flow_order[i + 1]) << "at grant " << i;
  }
}

}  // namespace
}  // namespace adios
