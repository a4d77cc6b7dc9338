// Discrete-event engine: ordering, determinism, fiber suspension semantics.

#include "src/sim/engine.h"

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/sim/cpu_core.h"
#include "src/sim/wait_queue.h"

namespace adios {
namespace {

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> trace;
  e.Schedule(30, [&] { trace.push_back(3); });
  e.Schedule(10, [&] { trace.push_back(1); });
  e.Schedule(20, [&] { trace.push_back(2); });
  e.Run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> trace;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(5, [&trace, i] { trace.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(trace[i], i);
  }
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  e.Schedule(10, [&] { ++fired; });
  e.Schedule(100, [&] { ++fired; });
  e.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50u);
  e.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, ScheduledEventsCanScheduleMore) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 5) {
      e.Schedule(10, chain);
    }
  };
  e.Schedule(10, chain);
  e.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50u);
}

TEST(Engine, CancellableEventSkipsWhenCancelled) {
  Engine e;
  int fired = 0;
  auto h = e.ScheduleCancellable(10, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  e.Run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancellableEventFiresWhenNotCancelled) {
  Engine e;
  int fired = 0;
  auto h = e.ScheduleCancellable(10, [&] { ++fired; });
  e.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
}

// A handle is a name for the event, not an owner of it: dropping the last
// handle leaves the event queued, and it fires.
TEST(Engine, DroppedHandleStillFires) {
  Engine e;
  int fired = 0;
  {
    Engine::EventHandle h = e.ScheduleCancellable(10, [&] { ++fired; });
    EXPECT_TRUE(h.pending());
  }
  Engine::EventHandle overwritten = e.ScheduleCancellable(20, [&] { ++fired; });
  overwritten = Engine::EventHandle();
  e.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(overwritten.pending());
}

TEST(Engine, PendingIsFalseInsideTheFiringCallback) {
  Engine e;
  Engine::EventHandle h;
  bool pending_inside = true;
  h = e.ScheduleCancellable(10, [&] { pending_inside = h.pending(); });
  e.Run();
  EXPECT_FALSE(pending_inside);
}

// After an event fires its slot is recycled for the next one; the old
// handle must neither see the new event as its own nor cancel it.
TEST(Engine, StaleHandleCannotCancelAReusedSlot) {
  Engine e;
  int first = 0;
  int second = 0;
  Engine::EventHandle stale = e.ScheduleCancellable(10, [&] { ++first; });
  e.Run();
  ASSERT_EQ(first, 1);
  Engine::EventHandle fresh = e.ScheduleCancellable(10, [&] { ++second; });
  stale.Cancel();
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  e.Run();
  EXPECT_EQ(second, 1);
  // Likewise after a cancel: the cancelled slot's next tenant is unaffected.
  Engine::EventHandle cancelled = e.ScheduleCancellable(10, [&] { ++first; });
  cancelled.Cancel();
  e.Run();
  Engine::EventHandle third = e.ScheduleCancellable(10, [&] { ++second; });
  cancelled.Cancel();
  EXPECT_TRUE(third.pending());
  e.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

// Cancelled events leave the queue when their time comes, and their slots
// go back on the free list, so a long run of deadline arm/cancel cycles
// keeps the slab as deep as the queue.
TEST(Engine, CancelledSlotsAreRecycled) {
  Engine e;
  constexpr int kCycles = 1'000'000;
  int cycles = 0;
  int fired = 0;
  std::function<void()> step = [&] {
    Engine::EventHandle deadline = e.ScheduleCancellable(100, [&] { ++fired; });
    deadline.Cancel();
    if (++cycles < kCycles) {
      e.Schedule(10, step);
    }
  };
  e.Schedule(0, step);
  e.Run();
  EXPECT_EQ(cycles, kCycles);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.events_processed(), static_cast<uint64_t>(kCycles));
  // About 11 events are queued at any time (10 cancelled deadlines plus the
  // next step); the slab never grows past one 256-slot chunk.
  EXPECT_LE(e.slab_slots(), 256u);
}

// Captures too large for a slot's inline storage take the heap fallback;
// pending ones must be freed when the engine is destroyed (LeakSanitizer
// checks this in the sanitizer build), fired or cancelled ones earlier.
TEST(Engine, LargeCapturesRunAndAreFreed) {
  auto big = std::make_shared<std::vector<int>>(64, 1);
  int sum = 0;
  {
    Engine e;
    struct Payload {
      std::shared_ptr<std::vector<int>> data;
      char pad[96];
    } payload{big, {}};
    e.Schedule(10, [&sum, payload] { sum += payload.data->at(0); });
    auto h = e.ScheduleCancellable(20, [&sum, payload] { sum += 100; });
    h.Cancel();
    e.Schedule(30, [&sum, payload] { sum += 1000; });
    e.RunUntil(25);
    EXPECT_EQ(sum, 1);
    EXPECT_EQ(big.use_count(), 3);  // `big`, `payload` and the 30 ns event.
  }
  EXPECT_EQ(sum, 1);
  EXPECT_EQ(big.use_count(), 1);
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int fired = 0;
  e.Schedule(10, [&] {
    ++fired;
    e.Stop();
  });
  e.Schedule(20, [&] { ++fired; });
  e.Run();
  EXPECT_EQ(fired, 1);
}

TEST(Fiber, WaitAdvancesSimulatedTime) {
  Engine e;
  std::vector<SimTime> stamps;
  e.SpawnFiber("t", [&] {
    stamps.push_back(e.now());
    e.Wait(100);
    stamps.push_back(e.now());
    e.Wait(50);
    stamps.push_back(e.now());
  });
  e.Run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{0, 100, 150}));
}

TEST(Fiber, TwoFibersInterleaveByTime) {
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  e.SpawnFiber("a", [&] {
    for (int i = 0; i < 3; ++i) {
      e.Wait(10);
      trace.push_back({'a', e.now()});
    }
  });
  e.SpawnFiber("b", [&] {
    for (int i = 0; i < 2; ++i) {
      e.Wait(15);
      trace.push_back({'b', e.now()});
    }
  });
  e.Run();
  // At t=30 both fire; b's resume was scheduled earlier (at t=15) than a's
  // (at t=20), so the deterministic tie-break runs b first.
  std::vector<std::pair<char, SimTime>> expected = {
      {'a', 10}, {'b', 15}, {'a', 20}, {'b', 30}, {'a', 30}};
  EXPECT_EQ(trace, expected);
}

TEST(Fiber, SuspendAndResumeLater) {
  Engine e;
  std::vector<int> trace;
  UnithreadContext* suspended = nullptr;
  e.SpawnFiber("sleeper", [&] {
    trace.push_back(1);
    suspended = e.current_context();
    e.SuspendCurrent();
    trace.push_back(3);
  });
  e.Schedule(100, [&] {
    trace.push_back(2);
    e.ResumeLater(suspended, 5);
  });
  e.Run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 105u);
}

// --- Next-in-line fast path: a Wait that returns without switching must be
// indistinguishable from one that suspends. ---

// A Wait that ties an already-queued event still yields: the older event
// has the lower sequence number and runs first.
TEST(Fiber, WaitTyingAQueuedEventYieldsToIt) {
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  e.SpawnFiber("f", [&] {
    e.Schedule(10, [&] { trace.push_back({'e', e.now()}); });
    e.Wait(10);
    trace.push_back({'f', e.now()});
  });
  e.Run();
  std::vector<std::pair<char, SimTime>> expected = {{'e', 10}, {'f', 10}};
  EXPECT_EQ(trace, expected);
}

// A Wait strictly earlier than the queue's head is next in line.
TEST(Fiber, WaitAheadOfTheQueueResumesFirst) {
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  e.SpawnFiber("f", [&] {
    e.Schedule(10, [&] { trace.push_back({'e', e.now()}); });
    e.Wait(9);
    trace.push_back({'f', e.now()});
    e.Wait(2);
    trace.push_back({'f', e.now()});
  });
  e.Run();
  std::vector<std::pair<char, SimTime>> expected = {{'f', 9}, {'e', 10}, {'f', 11}};
  EXPECT_EQ(trace, expected);
}

// A Wait that would cross the RunUntil horizon stays queued: the loop stops
// at the horizon and the fiber resumes in the next run.
TEST(Fiber, WaitAcrossTheHorizonStaysQueued) {
  Engine e;
  std::vector<SimTime> stamps;
  e.SpawnFiber("f", [&] {
    e.Wait(40);
    stamps.push_back(e.now());
    e.Wait(20);
    stamps.push_back(e.now());
  });
  e.RunUntil(50);
  EXPECT_EQ(stamps, (std::vector<SimTime>{40}));
  EXPECT_EQ(e.now(), 50u);
  e.Run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{40, 60}));
}

// A Wait ending exactly at the horizon still runs within it.
TEST(Fiber, WaitEndingAtTheHorizonRuns) {
  Engine e;
  std::vector<SimTime> stamps;
  e.SpawnFiber("f", [&] {
    e.Wait(50);
    stamps.push_back(e.now());
  });
  e.RunUntil(50);
  EXPECT_EQ(stamps, (std::vector<SimTime>{50}));
}

// Stop() from inside a fiber halts the loop at the fiber's next Wait, even
// when that Wait is next in line.
TEST(Fiber, StopThenWaitHaltsTheLoop) {
  Engine e;
  std::vector<SimTime> stamps;
  e.SpawnFiber("f", [&] {
    e.Wait(5);
    stamps.push_back(e.now());
    e.Stop();
    e.Wait(5);
    stamps.push_back(e.now());
  });
  e.Run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{5}));
  EXPECT_EQ(e.now(), 5u);
  e.Run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{5, 10}));
}

// Every Wait counts as one event whether or not it switched: a lone fiber's
// Waits are all next in line, so it switches only to start and to finish,
// yet each Wait still counts.
TEST(Fiber, FastPathWaitCountsAsAnEvent) {
  Engine e;
  e.SpawnFiber("f", [&] {
    for (int i = 0; i < 10; ++i) {
      e.Wait(3);
    }
  });
  int switches = 0;
  SetContextSwitchObserver(
      [](void* user, UnithreadContext*, UnithreadContext*, bool) { ++*static_cast<int*>(user); },
      &switches);
  e.Run();
  SetContextSwitchObserver(nullptr, nullptr);
  EXPECT_EQ(switches, 2);
  EXPECT_EQ(e.now(), 30u);
  EXPECT_EQ(e.events_processed(), 11u);  // First run + 10 Waits.
}

// --- Hand-off: a blocking Wait runs the event loop on its own stack and
// switches straight to the next resume's context. ---

// Two fibers whose Waits interleave: every wake-up is a popped resume, and
// each costs exactly one switch (fiber to fiber), not a bounce through main.
TEST(Fiber, PingPongCostsOneSwitchPerResume) {
  constexpr int kRounds = 100;
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  e.SpawnFiber("a", [&] {
    for (int i = 0; i < kRounds; ++i) {
      e.Wait(10);
      trace.push_back({'a', e.now()});
    }
  });
  e.SpawnFiber("b", [&] {
    e.Wait(5);  // Next in line (a's resume is at 10): no switch.
    for (int i = 0; i < kRounds; ++i) {
      e.Wait(10);
      trace.push_back({'b', e.now()});
    }
  });
  e.Run();
  ASSERT_EQ(trace.size(), 2u * kRounds);
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(trace[2 * i], std::make_pair('a', SimTime(10 * (i + 1))));
    EXPECT_EQ(trace[2 * i + 1], std::make_pair('b', SimTime(10 * (i + 1) + 5)));
  }
  // Two first runs, b's fast-path Wait, and 2 * kRounds blocking Waits.
  EXPECT_EQ(e.events_processed(), 2u * kRounds + 3);
  // One switch per popped resume; the finishes return to main uncounted.
  EXPECT_EQ(e.context_switches(), 2u * kRounds + 2);
}

// A Wait that must block behind queued callbacks, but whose own wake-up is
// the next resume, runs those callbacks on its stack and returns without
// switching at all.
TEST(Fiber, WaitBehindOnlyCallbacksDoesNotSwitch) {
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  uint64_t switches_across_wait = ~0ull;
  e.SpawnFiber("f", [&] {
    UnithreadContext* self = e.current_context();
    for (SimDuration d : {2, 4, 6}) {
      e.Schedule(d, [&, self] {
        EXPECT_EQ(e.current_context(), self);  // Ran on the waiting fiber's stack.
        trace.push_back({'c', e.now()});
      });
    }
    const uint64_t before = e.context_switches();
    e.Wait(10);
    switches_across_wait = e.context_switches() - before;
    trace.push_back({'f', e.now()});
  });
  e.Run();
  EXPECT_EQ(switches_across_wait, 0u);
  const std::vector<std::pair<char, SimTime>> expected = {
      {'c', 2}, {'c', 4}, {'c', 6}, {'f', 10}};
  EXPECT_EQ(trace, expected);
  EXPECT_EQ(e.context_switches(), 1u);  // Main into the fiber's first run.
}

// Stop() from a callback that runs on a fiber's stack ends the loop: control
// returns to RunUntil's caller, and later events stay queued for the next
// run.
TEST(Fiber, StopFromACallbackOnAFiberStackReturnsToTheCaller) {
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  bool stopped_on_fiber = false;
  e.SpawnFiber("f", [&] {
    e.Schedule(5, [&] {
      stopped_on_fiber = e.current_context() != e.main_context();
      trace.push_back({'s', e.now()});
      e.Stop();
    });
    e.Schedule(7, [&] { trace.push_back({'c', e.now()}); });
    e.Wait(10);
    trace.push_back({'f', e.now()});
  });
  e.Run();
  EXPECT_TRUE(stopped_on_fiber);
  EXPECT_TRUE(e.on_main());
  EXPECT_EQ(e.now(), 5u);
  EXPECT_EQ(trace, (std::vector<std::pair<char, SimTime>>{{'s', 5}}));
  e.Run();
  const std::vector<std::pair<char, SimTime>> expected = {{'s', 5}, {'c', 7}, {'f', 10}};
  EXPECT_EQ(trace, expected);
}

// A hand-off that reaches the RunUntil horizon switches to main and leaves
// the fiber's resume queued, with the clock at the horizon.
TEST(Fiber, HorizonReachedDuringAHandOffLeavesTheResumeQueued) {
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  e.SpawnFiber("f", [&] {
    e.Schedule(5, [&] { trace.push_back({'c', e.now()}); });
    e.Wait(60);  // Blocks behind the callback; its wake-up is past the horizon.
    trace.push_back({'f', e.now()});
  });
  e.RunUntil(50);
  EXPECT_TRUE(e.on_main());
  EXPECT_EQ(e.now(), 50u);
  EXPECT_EQ(trace, (std::vector<std::pair<char, SimTime>>{{'c', 5}}));
  EXPECT_EQ(e.events_processed(), 2u);  // First run and the callback.
  e.RunUntil(100);
  const std::vector<std::pair<char, SimTime>> expected = {{'c', 5}, {'f', 60}};
  EXPECT_EQ(trace, expected);
  EXPECT_EQ(e.now(), 100u);
}

// Callbacks run on whichever context yields, fiber stacks included, so a
// callback that suspends must abort even there (where on_main() is false).
TEST(EngineDeathTest, CallbackThatWaitsAborts) {
  EXPECT_DEATH(
      {
        Engine e;
        e.SpawnFiber("f", [&] {
          e.Schedule(5, [&] { e.Wait(1); });
          e.Wait(10);
        });
        e.Run();
      },
      "in_callback_");
}

TEST(EngineDeathTest, CallbackThatSuspendsAborts) {
  EXPECT_DEATH(
      {
        Engine e;
        e.SpawnFiber("f", [&] {
          e.Schedule(5, [&] { e.SuspendCurrent(); });
          e.Wait(10);
        });
        e.Run();
      },
      "in_callback_");
}

TEST(WaitQueueTest, FifoWakeOrder) {
  Engine e;
  WaitQueue wq(&e);
  std::vector<int> woke;
  for (int i = 0; i < 3; ++i) {
    e.SpawnFiber("w" + std::to_string(i), [&, i] {
      wq.Wait();
      woke.push_back(i);
    });
  }
  e.Schedule(10, [&] { wq.NotifyOne(); });
  e.Schedule(20, [&] { wq.NotifyAll(); });
  e.Run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
}

TEST(WaitQueueTest, NotifyDelayModelsWakeupCost) {
  Engine e;
  WaitQueue wq(&e);
  SimTime woke_at = 0;
  e.SpawnFiber("w", [&] {
    wq.Wait();
    woke_at = e.now();
  });
  e.Schedule(100, [&] { wq.NotifyOne(/*wake_delay=*/5000); });
  e.Run();
  EXPECT_EQ(woke_at, 5100u);
}

TEST(WaitQueueTest, NotifyOnEmptyReturnsFalse) {
  Engine e;
  WaitQueue wq(&e);
  EXPECT_FALSE(wq.NotifyOne());
}

TEST(CpuCoreTest, ConsumeChargesTimeAndBusy) {
  Engine e;
  CpuCore core(&e, CycleClock(2000), "c");
  e.SpawnFiber("t", [&] {
    core.Consume(2000);  // 1 us at 2 GHz.
    EXPECT_EQ(e.now(), 1000u);
    e.Wait(1000);  // Idle time.
    core.Consume(4000);
  });
  e.Run();
  EXPECT_EQ(core.busy_ns(), 3000u);
  EXPECT_EQ(e.now(), 4000u);
}

TEST(CpuCoreTest, UtilizationWindow) {
  Engine e;
  CpuCore core(&e, CycleClock(2000), "c");
  e.SpawnFiber("t", [&] {
    core.Consume(2000);
    core.MarkWindow();
    const SimTime start = e.now();
    core.Consume(2000);
    e.Wait(1000);
    EXPECT_NEAR(core.Utilization(start), 0.5, 1e-9);
  });
  e.Run();
}

TEST(CpuCoreTest, BusyWaitUntilAccounted) {
  Engine e;
  CpuCore core(&e, CycleClock(2000), "c");
  e.SpawnFiber("t", [&] { core.BusyWaitUntil(500); });
  e.Run();
  EXPECT_EQ(core.busy_wait_ns(), 500u);
  EXPECT_EQ(core.busy_ns(), 500u);
}

// The critical nesting used by the MD scheduler: a fiber switches into a
// nested unithread; the unithread Wait()s on the engine; the engine resumes
// it; it finishes back into the fiber.
TEST(Fiber, NestedUnithreadCanWaitOnEngine) {
  Engine e;
  std::vector<std::pair<int, SimTime>> trace;
  std::vector<std::byte> stack(32 * 1024);
  UnithreadContext nested;

  struct Ctx {
    Engine* e;
    std::vector<std::pair<int, SimTime>>* trace;
  } ctx{&e, &trace};

  e.SpawnFiber("host", [&] {
    trace.push_back({1, e.now()});
    nested.Reset(
        stack.data(), stack.size(),
        [](void* arg) {
          auto* c = static_cast<Ctx*>(arg);
          c->trace->push_back({2, c->e->now()});
          c->e->Wait(100);
          c->trace->push_back({3, c->e->now()});
        },
        &ctx, e.current_context());
    e.RawSwitch(e.current_context(), &nested);
    trace.push_back({4, e.now()});
  });
  e.Run();
  std::vector<std::pair<int, SimTime>> expected = {{1, 0}, {2, 0}, {3, 100}, {4, 100}};
  EXPECT_EQ(trace, expected);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [] {
    Engine e;
    uint64_t hash = 0;
    WaitQueue wq(&e);
    for (int i = 0; i < 4; ++i) {
      e.SpawnFiber("f", [&e, &hash, i] {
        for (int k = 0; k < 10; ++k) {
          e.Wait(static_cast<SimDuration>(7 * i + k + 1));
          hash = hash * 31 + e.now() + static_cast<uint64_t>(i);
        }
      });
    }
    e.Run();
    return hash;
  };
  EXPECT_EQ(run(), run());
}

// --- Time-wheel queue: near events in 1-ns buckets, far events (4096 ns or
// more out) in a heap until the clock brings them into the window. ---

// A reference queue for differential tests: every engine push (Schedule,
// Wait, SpawnFiber) is mirrored here in the same order, so its insertion
// counter is the engine's sequence number, and every firing must be the
// reference's earliest live (when, seq) entry.
class OrderOracle {
 public:
  explicit OrderOracle(Engine* e) : e_(e) {}

  // Mirrors one engine push at `when`; returns the entry's id.
  int Expect(SimTime when) {
    const int id = static_cast<int>(cancelled_.size());
    queue_.push(Entry{when, seq_++, id});
    cancelled_.push_back(false);
    return id;
  }
  void Cancel(int id) { cancelled_[id] = true; }

  // Checks that `id` is the reference's next live entry, due now.
  void Fired(int id) {
    SkipCancelled();
    ASSERT_FALSE(queue_.empty());
    EXPECT_EQ(queue_.top().id, id);
    EXPECT_EQ(queue_.top().when, e_->now());
    queue_.pop();
    ++fired_;
  }
  // Earliest live entry's time; ~0 when none is left.
  SimTime NextLive() {
    SkipCancelled();
    return queue_.empty() ? ~SimTime{0} : queue_.top().when;
  }
  uint64_t fired() const { return fired_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  void SkipCancelled() {
    while (!queue_.empty() && cancelled_[queue_.top().id]) {
      queue_.pop();
    }
  }

  Engine* e_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<bool> cancelled_;
  uint64_t seq_ = 0;
  uint64_t fired_ = 0;
};

// The delay mix the wheel must order exactly: zero, near, the window edge
// (4095 / 4096 / 4097), and far (10-100 us).
SimDuration DrawDelay(Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0:
      return 0;
    case 1:
      return 4095 + rng.NextBelow(3);
    case 2:
      return rng.NextInRange(10'000, 100'000);
    default:
      return rng.NextInRange(1, 4095);
  }
}

// About 100k seeded operations (pushes, near and far cancels, RunUntil
// horizons, fiber Waits) fire in exactly the reference queue's order.
TEST(EngineWheel, MatchesAReferenceQueueOnRandomOperations) {
  constexpr uint64_t kOps = 100'000;
  Engine e;
  OrderOracle oracle(&e);
  Rng rng(20'250'417);
  uint64_t ops = 0;
  std::vector<std::pair<int, Engine::EventHandle>> handles;

  std::function<void()> schedule_one;
  auto on_fire = [&](int id) {
    oracle.Fired(id);
    // Keep about 64 events queued while the budget lasts.
    const uint64_t pushes = rng.NextBelow(3);
    for (uint64_t i = 0; i < pushes && ops < kOps; ++i) {
      schedule_one();
    }
    if (!handles.empty() && rng.NextBelow(4) == 0) {
      auto& [hid, h] = handles[rng.NextBelow(handles.size())];
      if (h.pending()) {
        h.Cancel();
        oracle.Cancel(hid);
        ++ops;
      }
    }
  };
  schedule_one = [&] {
    ++ops;
    const SimDuration d = DrawDelay(rng);
    const int id = oracle.Expect(e.now() + d);
    if (rng.NextBelow(3) == 0) {
      handles.emplace_back(id, e.ScheduleCancellable(d, [&on_fire, id] { on_fire(id); }));
      if (handles.size() > 256) {
        handles.erase(handles.begin(), handles.begin() + 128);
      }
    } else {
      e.Schedule(d, [&on_fire, id] { on_fire(id); });
    }
  };

  bool done = false;
  for (int f = 0; f < 3; ++f) {
    const int spawn_id = oracle.Expect(e.now());
    e.SpawnFiber("waiter", [&, spawn_id] {
      oracle.Fired(spawn_id);
      while (!done) {
        ++ops;
        const SimDuration d = DrawDelay(rng);
        const int id = oracle.Expect(e.now() + d);
        e.Wait(d);
        oracle.Fired(id);
      }
    });
  }
  for (int i = 0; i < 64; ++i) {
    schedule_one();
  }
  while (ops < kOps) {
    const SimTime horizon = e.now() + rng.NextInRange(1, 20'000);
    e.RunUntil(horizon);
    EXPECT_EQ(e.now(), horizon);
    EXPECT_GT(oracle.NextLive(), horizon) << "an event due by the horizon did not fire";
    // Pushes from outside the loop land right at the horizon's clock.
    const uint64_t pushes = 1 + rng.NextBelow(4);
    for (uint64_t i = 0; i < pushes; ++i) {
      schedule_one();
    }
  }
  done = true;
  e.Run();
  EXPECT_EQ(oracle.NextLive(), ~SimTime{0});
  EXPECT_GE(oracle.fired(), kOps / 2);
}

// A far event and a later push for the same instant from inside the window:
// the far one is older, so it fires first, whichever clock advance brought
// its instant into the window.
TEST(EngineWheel, FarEventFiresBeforeALaterSameInstantNearPush) {
  // Advance by an event pop.
  {
    Engine e;
    std::vector<char> order;
    e.Schedule(5000, [&] { order.push_back('F'); });
    e.Schedule(1000, [&] { e.Schedule(4000, [&] { order.push_back('N'); }); });
    e.Run();
    EXPECT_EQ(order, (std::vector<char>{'F', 'N'}));
    EXPECT_EQ(e.now(), 5000u);
  }
  // Advance by the RunUntil horizon exit, then push from outside the loop.
  {
    Engine e;
    std::vector<char> order;
    e.Schedule(5000, [&] { order.push_back('F'); });
    e.RunUntil(1000);
    e.Schedule(4000, [&] { order.push_back('N'); });
    e.Run();
    EXPECT_EQ(order, (std::vector<char>{'F', 'N'}));
  }
  // Advance by a next-in-line Wait, then push from the fiber.
  {
    Engine e;
    std::vector<char> order;
    e.Schedule(5000, [&] { order.push_back('F'); });
    e.SpawnFiber("f", [&] {
      e.Wait(1000);
      e.Schedule(4000, [&] { order.push_back('N'); });
    });
    e.Run();
    EXPECT_EQ(order, (std::vector<char>{'F', 'N'}));
  }
}

// Bucket indices wrap modulo 4096: events on both sides of the wrap, and
// one a full window out, still fire in time order.
TEST(EngineWheel, BucketIndexWraps) {
  Engine e;
  e.RunUntil(4000);
  std::vector<SimTime> fired;
  for (const SimDuration d : {4095u, 96u, 95u, 97u, 0u, 4096u, 4094u}) {
    e.Schedule(d, [&] { fired.push_back(e.now()); });
  }
  e.Run();
  EXPECT_EQ(fired, (std::vector<SimTime>{4000, 4095, 4096, 4097, 8094, 8095, 8096}));
}

// With only far events queued, a short Wait is next in line: it returns
// without switching, and its advance still migrates far events, so a push
// for a far event's instant lands behind it.
TEST(EngineWheel, FastPathWaitWithOnlyFarEventsQueued) {
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  e.Schedule(10'000, [&] { trace.push_back({'F', e.now()}); });
  e.Schedule(50'000, [&] { trace.push_back({'G', e.now()}); });
  e.SpawnFiber("f", [&] {
    e.Wait(7'000);  // Next in line: far events only.
    trace.push_back({'f', e.now()});
    e.Schedule(3'000, [&] { trace.push_back({'N', e.now()}); });
  });
  int switches = 0;
  SetContextSwitchObserver(
      [](void* user, UnithreadContext*, UnithreadContext*, bool) { ++*static_cast<int*>(user); },
      &switches);
  e.Run();
  SetContextSwitchObserver(nullptr, nullptr);
  EXPECT_EQ(switches, 2);  // Start and finish only: the Wait did not switch.
  const std::vector<std::pair<char, SimTime>> expected = {
      {'f', 7'000}, {'F', 10'000}, {'N', 10'000}, {'G', 50'000}};
  EXPECT_EQ(trace, expected);
  EXPECT_EQ(e.events_processed(), 5u);  // First run, the Wait, F, N, G.
}

// Extends LargeCapturesRunAndAreFreed to every place a callable can wait:
// parked, in a wheel bucket, and in the far heap, with inline and boxed
// captures. Destroying the engine drops every one (LeakSanitizer checks the
// boxed ones in the sanitizer build); run and dropped parked callables are
// destroyed at once.
TEST(EngineWheel, DestructorDropsParkedWheelAndFarCallables) {
  auto big = std::make_shared<std::vector<int>>(64, 1);
  int sum = 0;
  {
    Engine e;
    struct Payload {
      std::shared_ptr<std::vector<int>> data;
      char pad[96];
    } boxed{big, {}};
    std::shared_ptr<std::vector<int>> inline_ref = big;
    const uint32_t ran = e.Park([&sum, boxed] { sum += boxed.data->at(0); });
    const uint32_t dropped = e.Park([&sum, inline_ref] { sum += 100; });
    e.Park([&sum, boxed] { sum += 1000; });        // Parked at destruction.
    e.Park([&sum, inline_ref] { sum += 1000; });   // Parked at destruction.
    e.Schedule(10, [&sum, boxed] { sum += 1000; });       // Wheel.
    e.Schedule(20, [&sum, inline_ref] { sum += 1000; });  // Wheel.
    e.Schedule(8'000, [&sum, boxed] { sum += 1000; });       // Far heap.
    e.Schedule(9'000, [&sum, inline_ref] { sum += 1000; });  // Far heap.
    auto h = e.ScheduleCancellable(12'000, [&sum, boxed] { sum += 1000; });
    h.Cancel();  // Cancelled but still queued in the far heap.
    EXPECT_EQ(big.use_count(), 12);
    e.RunParked(ran);
    e.DropParked(dropped);
    EXPECT_EQ(sum, 1);
    EXPECT_EQ(big.use_count(), 10);
    EXPECT_EQ(e.events_processed(), 0u);  // Parking queues nothing.
  }
  EXPECT_EQ(sum, 1);
  EXPECT_EQ(big.use_count(), 1);
}

}  // namespace
}  // namespace adios
