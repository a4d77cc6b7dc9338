#include "src/rdma/fair_link.h"

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/rdma/params.h"

namespace adios {
namespace {

TEST(FairLink, SerializationTimeMatchesBandwidth) {
  Engine e;
  FairLink link(&e, "l", /*gbps=*/100.0);
  const uint32_t f = link.AddFlow();
  SimTime done_at = 0;
  link.Enqueue(f, 4096, [&] { done_at = e.now(); });
  e.Run();
  // 4096 B * 8 / 100 Gb/s = 327.68 ns.
  EXPECT_NEAR(static_cast<double>(done_at), 328.0, 1.0);
}

TEST(FairLink, FixedCostStage) {
  Engine e;
  FairLink stage(&e, "wqe", /*gbps=*/0.0, /*fixed_ns=*/200);
  const uint32_t f = stage.AddFlow();
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    stage.Enqueue(f, 0, [&] { done.push_back(e.now()); });
  }
  e.Run();
  EXPECT_EQ(done, (std::vector<SimTime>{200, 400, 600}));
}

TEST(FairLink, FifoWithinFlow) {
  Engine e;
  FairLink link(&e, "l", 100.0);
  const uint32_t f = link.AddFlow();
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    link.Enqueue(f, 1000, [&order, i] { order.push_back(i); });
  }
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FairLink, RoundRobinAcrossFlows) {
  Engine e;
  FairLink link(&e, "l", 100.0);
  const uint32_t a = link.AddFlow();
  const uint32_t b = link.AddFlow();
  std::vector<char> order;
  // Flow a queues 4 items first; flow b then queues 2. Service must
  // alternate rather than draining a.
  link.Enqueue(a, 1000, [&] { order.push_back('a'); });
  link.Enqueue(a, 1000, [&] { order.push_back('a'); });
  link.Enqueue(a, 1000, [&] { order.push_back('a'); });
  link.Enqueue(a, 1000, [&] { order.push_back('a'); });
  link.Enqueue(b, 1000, [&] { order.push_back('b'); });
  link.Enqueue(b, 1000, [&] { order.push_back('b'); });
  e.Run();
  // First item of `a` is already in service when b arrives; thereafter RR.
  EXPECT_EQ(order, (std::vector<char>{'a', 'a', 'b', 'a', 'b', 'a'}));
}

TEST(FairLink, PerFlowQueueDepthVisible) {
  Engine e;
  FairLink link(&e, "l", 100.0);
  const uint32_t a = link.AddFlow();
  const uint32_t b = link.AddFlow();
  for (int i = 0; i < 5; ++i) {
    link.Enqueue(a, 4096, [] {});
  }
  // One item entered service immediately; four queued.
  EXPECT_EQ(link.QueuedFor(a), 4u);
  EXPECT_EQ(link.QueuedFor(b), 0u);
  EXPECT_EQ(link.TotalQueued(), 4u);
  e.Run();
  EXPECT_EQ(link.TotalQueued(), 0u);
}

TEST(FairLink, UtilizationWindow) {
  Engine e;
  FairLink link(&e, "l", 100.0);
  const uint32_t f = link.AddFlow();
  link.MarkWindow();
  // 12500 bytes = 100000 bits = 1 us at 100 Gb/s.
  link.Enqueue(f, 12500, [] {});
  e.SpawnFiber("t", [&] { e.Wait(2000); });
  e.Run();
  EXPECT_EQ(e.now(), 2000u);
  EXPECT_NEAR(link.WindowUtilization(), 0.5, 0.01);
}

TEST(FairLink, CompletionCanEnqueueMore) {
  Engine e;
  FairLink link(&e, "l", 100.0);
  const uint32_t f = link.AddFlow();
  int chained = 0;
  link.Enqueue(f, 1000, [&] {
    ++chained;
    link.Enqueue(f, 1000, [&] { ++chained; });
  });
  e.Run();
  EXPECT_EQ(chained, 2);
  EXPECT_EQ(link.total_items(), 2u);
}

TEST(FairLink, FifoDisciplineIgnoresFlows) {
  Engine e;
  FairLink link(&e, "l", 100.0, 0, FairLink::Discipline::kFifo);
  const uint32_t a = link.AddFlow();
  const uint32_t b = link.AddFlow();
  std::vector<char> order;
  link.Enqueue(a, 1000, [&] { order.push_back('a'); });
  link.Enqueue(a, 1000, [&] { order.push_back('a'); });
  link.Enqueue(a, 1000, [&] { order.push_back('a'); });
  link.Enqueue(b, 1000, [&] { order.push_back('b'); });
  link.Enqueue(b, 1000, [&] { order.push_back('b'); });
  e.Run();
  // Pure arrival order: no interleaving in favor of flow b.
  EXPECT_EQ(order, (std::vector<char>{'a', 'a', 'a', 'b', 'b'}));
}

TEST(FairLink, CountsBytes) {
  Engine e;
  FairLink link(&e, "l", 100.0);
  const uint32_t f = link.AddFlow();
  link.Enqueue(f, 100, [] {});
  link.Enqueue(f, 200, [] {});
  e.Run();
  EXPECT_EQ(link.total_bytes(), 300u);
  EXPECT_EQ(link.total_items(), 2u);
}

// An item that arrives at an idle, empty link is granted in closed form;
// one that waits in the queue is granted by the WDRR scan. Both must leave
// the scheduler in the same state. Link `idle` enqueues each item from the
// previous item's completion, when the link has just gone idle with its
// scan state carried over; link `queued` enqueues it 1 ns into the previous
// item's service, so the scan grants it alone when that service ends. Every
// grant (class queue, deficits, scan class), every completion time and
// every class counter must match.
TEST(FairLink, IdleGrantMatchesQueuedPopNext) {
  struct Grant {
    uint32_t queue;
    uint64_t bytes;
    std::array<uint64_t, kNumTrafficClasses> deficits;
    uint32_t scan;
    bool operator==(const Grant&) const = default;
  };
  struct Arm {
    Engine e;
    FairLink link{&e, "l", 100.0, /*fixed_ns=*/10};
    std::vector<Grant> grants;
    std::vector<std::pair<size_t, SimTime>> done;
  };
  constexpr size_t kItems = 300;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const uint32_t classes = 1 + static_cast<uint32_t>(rng.NextBelow(3));
    std::array<uint32_t, kNumTrafficClasses> weights{};
    for (uint32_t& w : weights) {
      w = static_cast<uint32_t>(rng.NextBelow(5));  // 0 exercises the floor.
    }
    struct Item {
      uint64_t bytes;
      TrafficClass cls;
    };
    std::vector<Item> items;
    for (size_t i = 0; i < kItems; ++i) {
      // Up to ~6 quanta, so a grant may need several refills; whole pages
      // make the credit land exactly on the item size.
      const uint64_t bytes = rng.NextBelow(2) == 0 ? 4096 * (1 + rng.NextBelow(4))
                                                   : 1 + rng.NextBelow(6 * 4096);
      items.push_back({bytes, static_cast<TrafficClass>(rng.NextBelow(kNumTrafficClasses))});
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << classes << " classes");

    Arm idle;
    Arm queued;
    auto record = [](Arm& arm, uint32_t q, uint64_t bytes) {
      Grant g{q, bytes, {}, arm.link.scan_class()};
      for (uint32_t c = 0; c < arm.link.num_classes(); ++c) {
        g.deficits[c] = arm.link.deficit(c);
      }
      arm.grants.push_back(g);
    };
    for (Arm* arm : {&idle, &queued}) {
      arm->link.EnableClasses(classes, weights);
      arm->link.AddFlow();
    }
    idle.link.set_dequeue_hook([&](uint32_t q, uint64_t bytes) { record(idle, q, bytes); });
    // Idle arm: item i + 1 arrives from item i's completion.
    std::function<void(size_t)> submit_idle = [&](size_t i) {
      idle.link.Enqueue(0, items[i].bytes, [&, i] {
        idle.done.push_back({i, idle.e.now()});
        if (i + 1 < kItems) {
          submit_idle(i + 1);
          EXPECT_TRUE(idle.link.busy());  // Granted on arrival.
          EXPECT_EQ(idle.link.TotalQueued(), 0u);
        }
      }, items[i].cls);
    };
    submit_idle(0);
    idle.e.Run();
    // Queued arm: item i + 1 arrives 1 ns after item i is granted.
    size_t next = 0;
    std::function<void()> submit_queued = [&] {
      const size_t i = next++;
      queued.link.Enqueue(0, items[i].bytes,
                          [&, i] { queued.done.push_back({i, queued.e.now()}); },
                          items[i].cls);
    };
    queued.link.set_dequeue_hook([&](uint32_t q, uint64_t bytes) {
      record(queued, q, bytes);
      if (next < kItems) {
        queued.e.Schedule(1, [&] {
          submit_queued();
          EXPECT_EQ(queued.link.TotalQueued(), 1u);  // Waits for the scan.
        });
      }
    });
    submit_queued();
    queued.e.Run();

    ASSERT_EQ(idle.grants.size(), kItems);
    EXPECT_EQ(idle.grants, queued.grants);
    EXPECT_EQ(idle.done, queued.done);
    for (uint32_t c = 0; c < kNumTrafficClasses; ++c) {
      EXPECT_EQ(idle.link.class_delivered_bytes(c), queued.link.class_delivered_bytes(c));
      EXPECT_EQ(idle.link.class_delivered_items(c), queued.link.class_delivered_items(c));
      EXPECT_EQ(idle.link.class_enqueued_bytes(c), queued.link.class_enqueued_bytes(c));
      EXPECT_EQ(idle.link.class_enqueued_items(c), queued.link.class_enqueued_items(c));
    }
  }
}

// A link stage costs one event slot: an item's parked completion becomes
// its service event. 256 items fill exactly one 256-slot slab chunk; a
// separate service event per stage would need a 257th slot.
TEST(FairLink, StageUsesOneEventSlot) {
  Engine e;
  FairLink link(&e, "l", 100.0);
  const uint32_t f = link.AddFlow();
  int done = 0;
  for (int i = 0; i < 256; ++i) {
    link.Enqueue(f, 4096, [&done] { ++done; });
  }
  EXPECT_EQ(e.slab_slots(), 256u);
  e.Run();
  EXPECT_EQ(done, 256);
  EXPECT_EQ(e.slab_slots(), 256u);
  EXPECT_EQ(e.events_processed(), 256u);  // One event per stage.
}

}  // namespace
}  // namespace adios
