// OpTracker: the one deadline/retry/failover lifecycle behind every tracked
// RDMA op (docs/FAULT_MODEL.md §4), tested as a (state x event) table per op
// kind over a real Engine and a repost hook that can refuse posts.

#include "src/rdma/op_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <utility>

#include "src/mem/remote_heap.h"

namespace adios {
namespace {

constexpr SimDuration kTimeout = 25'000;
constexpr SimDuration kBase = RetryPolicy::kBackoffBaseNs;
constexpr uint32_t kBudget = 2;

RetryPolicy Retry(SimDuration timeout, uint32_t max_retries) {
  RetryPolicy r;
  r.enabled = true;
  r.timeout_ns = timeout;
  r.max_retries = max_retries;
  return r;
}

// The rules each owner installs: fetches retry and fail over, write-backs
// retry, copies give up on the first failure, scrub reads have no deadline.
OpRules RulesFor(OpKind kind) {
  switch (kind) {
    case OpKind::kFetch:
      return {Retry(kTimeout, kBudget), /*failover=*/true, /*traced=*/true};
    case OpKind::kWriteback:
      return {Retry(kTimeout, kBudget)};
    case OpKind::kResilver:
      return {Retry(50'000, 0)};
    case OpKind::kScrub:
      return {Retry(0, 0)};
  }
  return {};
}

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kFetch:
      return "fetch";
    case OpKind::kWriteback:
      return "writeback";
    case OpKind::kResilver:
      return "resilver";
    case OpKind::kScrub:
      return "scrub";
  }
  return "?";
}

OpId IdFor(OpKind kind) { return {kind, 7, kind == OpKind::kFetch ? 0u : 1u}; }

// By default one replica per page, so nothing fails over and no node turns
// suspect. The health monitor covers node 1 too, which the write-back,
// re-silver and scrub ids name.
struct Rig {
  Engine engine;
  PlacementMap placement;
  NodeHealthMonitor health;
  OpTracker tracker{&engine, &placement, &health};
  bool qp_full = false;
  int reposts = 0;
  int refusals = 0;
  int give_up_calls = 0;

  explicit Rig(PlacementMap p = PlacementMap(16, 1, 1),
               const ReplicationConfig& h = ReplicationConfig{.num_nodes = 2})
      : placement(std::move(p)), health(&engine, h) {
    for (OpKind kind : {OpKind::kFetch, OpKind::kWriteback, OpKind::kResilver, OpKind::kScrub}) {
      tracker.set_rules(kind, RulesFor(kind));
      tracker.set_hooks(
          kind,
          [this](const OpId&, const TrackedOp&) {
            if (qp_full) {
              ++refusals;
              return false;
            }
            ++reposts;
            return true;
          },
          [this](const OpId&, TrackedOp&) { ++give_up_calls; });
    }
  }
  void Advance(SimDuration d) { engine.RunUntil(engine.now() + d); }
};

Completion Cqe(const OpId& id, uint32_t node, bool ok) {
  Completion c;
  c.wr_id = id.wr_id();
  c.node = node;
  c.status = ok ? CompletionStatus::kSuccess : CompletionStatus::kRetryExceeded;
  return c;
}

// What an owner does with a final CQE: complete a success the tracker
// admits; everything else (late, duplicate, error) is the tracker's.
void Deliver(Rig& rig, const OpId& id, uint32_t node, bool ok) {
  if (rig.tracker.Admit(id, Cqe(id, node, ok))) {
    rig.tracker.Settle(id, node);
  }
}

enum class State { kOutstanding, kBackoff, kQpFull, kSettled };
enum class Event { kSuccess, kError, kDeadline, kTimer, kLateCqe };

const char* StateName(State s) {
  switch (s) {
    case State::kOutstanding:
      return "outstanding";
    case State::kBackoff:
      return "backoff";
    case State::kQpFull:
      return "qp-full";
    case State::kSettled:
      return "settled";
  }
  return "?";
}

// Drives a fresh op of `kind` into `state` through public calls only.
void Prepare(Rig& rig, OpKind kind, State state) {
  const OpId id = IdFor(kind);
  rig.tracker.Track(id, {.node = id.node, .cls = TrafficClass::kDemand});
  switch (state) {
    case State::kOutstanding:
      break;
    case State::kBackoff:
      Deliver(rig, id, id.node, false);  // Error CQE: attempt 2 waits kBase.
      break;
    case State::kQpFull:
      Deliver(rig, id, id.node, false);
      rig.qp_full = true;
      rig.Advance(kBase);  // The repost is refused; it retries every 1 us.
      ASSERT_EQ(rig.refusals, 1);
      break;
    case State::kSettled:
      Deliver(rig, id, id.node, true);
      break;
  }
}

State Observe(Rig& rig, OpKind kind) {
  const TrackedOp* op = rig.tracker.Find(IdFor(kind));
  if (op == nullptr) {
    return State::kSettled;
  }
  if (!op->repost_pending) {
    return State::kOutstanding;
  }
  return rig.refusals > 0 && rig.qp_full ? State::kQpFull : State::kBackoff;
}

void Apply(Rig& rig, OpKind kind, State from, Event event) {
  const OpId id = IdFor(kind);
  switch (event) {
    case Event::kSuccess:
    case Event::kLateCqe:
      Deliver(rig, id, id.node, true);
      break;
    case Event::kError:
      Deliver(rig, id, id.node, false);
      break;
    case Event::kDeadline:
      // Long enough for the kind's deadline, short of the repost after it.
      rig.Advance(std::max(RulesFor(kind).retry.timeout_ns, kTimeout));
      break;
    case Event::kTimer:
      rig.qp_full = false;
      rig.Advance(from == State::kQpFull ? 1000 : kBase);
      break;
  }
}

struct Row {
  OpKind kind;
  State from;
  Event event;
  State to;
  uint32_t attempts;       // Checked unless settled.
  SimDuration backoff_ns;  // Next wait, checked unless settled.
  uint64_t timeouts;
  uint64_t retries;
  uint64_t give_ups;
  int reposts;
};

constexpr OpKind F = OpKind::kFetch;
constexpr OpKind W = OpKind::kWriteback;
constexpr OpKind R = OpKind::kResilver;
constexpr OpKind S = OpKind::kScrub;
constexpr State kOut = State::kOutstanding;
constexpr State kBack = State::kBackoff;
constexpr State kFull = State::kQpFull;
constexpr State kDone = State::kSettled;

// Fetches and write-backs share the retry lattice; re-silver copies and
// scrub reads give up at the first failure (their owner requeues or moves
// on), and a scrub read has no deadline at all.
const Row kRows[] = {
    // kind from   event             to     att backoff tmo rty gu  rp
    {F, kOut, Event::kSuccess, kDone, 0, 0, 0, 0, 0, 0},
    {F, kOut, Event::kError, kBack, 2, 2 * kBase, 0, 1, 0, 0},
    {F, kOut, Event::kDeadline, kBack, 2, 2 * kBase, 1, 1, 0, 0},
    {F, kBack, Event::kSuccess, kDone, 0, 0, 0, 1, 0, 0},
    {F, kBack, Event::kError, kBack, 2, 2 * kBase, 0, 1, 0, 0},
    {F, kBack, Event::kTimer, kOut, 2, 2 * kBase, 0, 1, 0, 1},
    {F, kFull, Event::kTimer, kOut, 2, 2 * kBase, 0, 1, 0, 1},
    {F, kFull, Event::kSuccess, kDone, 0, 0, 0, 1, 0, 0},
    {F, kFull, Event::kError, kFull, 2, 2 * kBase, 0, 1, 0, 0},
    {F, kDone, Event::kLateCqe, kDone, 0, 0, 0, 0, 0, 0},
    {F, kDone, Event::kError, kDone, 0, 0, 0, 0, 0, 0},
    {W, kOut, Event::kSuccess, kDone, 0, 0, 0, 0, 0, 0},
    {W, kOut, Event::kError, kBack, 2, 2 * kBase, 0, 1, 0, 0},
    {W, kOut, Event::kDeadline, kBack, 2, 2 * kBase, 1, 1, 0, 0},
    {W, kBack, Event::kSuccess, kDone, 0, 0, 0, 1, 0, 0},
    {W, kBack, Event::kError, kBack, 2, 2 * kBase, 0, 1, 0, 0},
    {W, kBack, Event::kTimer, kOut, 2, 2 * kBase, 0, 1, 0, 1},
    {W, kFull, Event::kTimer, kOut, 2, 2 * kBase, 0, 1, 0, 1},
    {W, kFull, Event::kSuccess, kDone, 0, 0, 0, 1, 0, 0},
    {W, kFull, Event::kError, kFull, 2, 2 * kBase, 0, 1, 0, 0},
    {W, kDone, Event::kLateCqe, kDone, 0, 0, 0, 0, 0, 0},
    {R, kOut, Event::kSuccess, kDone, 0, 0, 0, 0, 0, 0},
    {R, kOut, Event::kError, kDone, 0, 0, 0, 0, 1, 0},
    {R, kOut, Event::kDeadline, kDone, 0, 0, 1, 0, 1, 0},
    {R, kDone, Event::kLateCqe, kDone, 0, 0, 0, 0, 0, 0},
    {S, kOut, Event::kSuccess, kDone, 0, 0, 0, 0, 0, 0},
    {S, kOut, Event::kError, kDone, 0, 0, 0, 0, 1, 0},
    {S, kOut, Event::kDeadline, kOut, 1, kBase, 0, 0, 0, 0},  // No deadline.
    {S, kDone, Event::kLateCqe, kDone, 0, 0, 0, 0, 0, 0},
};

TEST(OpTracker, StateEventTable) {
  for (const Row& row : kRows) {
    SCOPED_TRACE(std::string(KindName(row.kind)) + " from " + StateName(row.from));
    Rig rig;
    Prepare(rig, row.kind, row.from);
    ASSERT_EQ(Observe(rig, row.kind), row.from);
    const TrackedOp* before = rig.tracker.Find(IdFor(row.kind));
    Engine::EventHandle deadline;
    if (before != nullptr) {
      deadline = before->deadline;
    }
    Apply(rig, row.kind, row.from, row.event);

    EXPECT_EQ(Observe(rig, row.kind), row.to);
    EXPECT_EQ(rig.tracker.stats(row.kind).timeouts, row.timeouts);
    EXPECT_EQ(rig.tracker.stats(row.kind).retries, row.retries);
    EXPECT_EQ(rig.tracker.stats(row.kind).give_ups, row.give_ups);
    EXPECT_EQ(rig.give_up_calls, static_cast<int>(row.give_ups));
    EXPECT_EQ(rig.reposts, row.reposts);
    if (const TrackedOp* op = rig.tracker.Find(IdFor(row.kind))) {
      EXPECT_EQ(op->attempts, row.attempts);
      EXPECT_EQ(op->backoff_ns, row.backoff_ns);
      // Outstanding ops with a deadline rule have exactly one live deadline;
      // ops waiting out a backoff have none.
      const bool wants_deadline = row.to == kOut && RulesFor(row.kind).retry.timeout_ns > 0;
      EXPECT_EQ(op->deadline.pending(), wants_deadline);
    } else {
      // A settled op leaves nothing behind: no live deadline, and no repost
      // ever reaches the hook.
      EXPECT_FALSE(deadline.pending());
      const int reposts = rig.reposts;
      rig.engine.Run();
      EXPECT_EQ(rig.reposts, reposts);
      EXPECT_EQ(rig.tracker.size(), 0u);
    }
  }
}

TEST(OpTracker, BudgetExhaustionGivesUpWithExponentialBackoff) {
  for (OpKind kind : {OpKind::kFetch, OpKind::kWriteback}) {
    SCOPED_TRACE(KindName(kind));
    Rig rig;  // No placement: a fetch has nowhere to fail over to.
    const OpId id = IdFor(kind);
    rig.tracker.Track(id, {.node = id.node});
    SimDuration expected = kBase;
    for (uint32_t attempt = 1; attempt <= kBudget; ++attempt) {
      rig.Advance(kTimeout);  // Deadline: back off, then repost.
      ASSERT_EQ(rig.tracker.Find(id)->backoff_ns, 2 * expected);
      rig.Advance(expected);
      expected *= 2;
      ASSERT_EQ(rig.tracker.Find(id)->attempts, attempt + 1);
    }
    rig.Advance(kTimeout);  // Third deadline: budget of 2 reposts spent.
    EXPECT_EQ(rig.tracker.Find(id), nullptr);
    EXPECT_EQ(rig.tracker.stats(kind).timeouts, 3u);
    EXPECT_EQ(rig.tracker.stats(kind).retries, 2u);
    EXPECT_EQ(rig.tracker.stats(kind).give_ups, 1u);
    EXPECT_EQ(rig.reposts, 2);
    rig.engine.Run();
    EXPECT_EQ(rig.give_up_calls, 1);
  }
}

// Failover: two nodes, two replicas, fetch of page 0 (primary node 0).
struct FailoverRig : Rig {
  FailoverRig() : Rig(PlacementMap(16, 2, 2), ReplicationConfig{.num_nodes = 2, .replicas = 2}) {
    health.set_probe_fn([](uint32_t, SimTime) { return false; });
  }
};

// Three error CQEs, each followed by its backoff: the third spends the
// budget of two reposts.
void FailThrice(Rig& rig, const OpId& id) {
  Deliver(rig, id, 0, false);
  rig.Advance(kBase);
  Deliver(rig, id, 0, false);
  rig.Advance(2 * kBase);
  Deliver(rig, id, 0, false);
  rig.Advance(0);  // A failover reposts at once.
}

TEST(OpTracker, ExhaustedFetchFailsOverWhenATargetIsPresent) {
  FailoverRig rig;
  const OpId id = OpId::Fetch(0);
  EXPECT_EQ(rig.tracker.ReadNode(0), 0u);
  rig.tracker.Track(id, {.node = 0});
  FailThrice(rig, id);
  // The op moved to the other replica with a fresh budget, not a give-up.
  const TrackedOp* op = rig.tracker.Find(id);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->node, 1u);
  EXPECT_EQ(op->failovers, 1u);
  EXPECT_EQ(op->attempts, 1u);
  EXPECT_EQ(op->backoff_ns, kBase);
  EXPECT_EQ(rig.tracker.stats(OpKind::kFetch).failovers, 1u);
  EXPECT_EQ(rig.tracker.stats(OpKind::kFetch).give_ups, 0u);
  EXPECT_TRUE(op->deadline.pending());
}

TEST(OpTracker, SuspectNodeFailsOverWithBudgetLeft) {
  FailoverRig rig;
  const OpId id = OpId::Fetch(0);
  rig.tracker.Track(id, {.node = 0});
  rig.health.ReportError(0);
  rig.health.ReportError(0);
  Deliver(rig, id, 0, false);  // Third piece of evidence: node 0 turns suspect.
  ASSERT_TRUE(rig.health.SuspectOrWorse(0));
  EXPECT_EQ(rig.tracker.Find(id)->node, 1u);
  EXPECT_EQ(rig.tracker.stats(OpKind::kFetch).retries, 0u);
  EXPECT_EQ(rig.tracker.stats(OpKind::kFetch).failovers, 1u);
}

TEST(OpTracker, ReadNodePrefersTheFirstHealthyInSyncReplica) {
  FailoverRig rig;
  EXPECT_EQ(rig.tracker.ReadNode(0), 0u);  // Primary.
  EXPECT_EQ(rig.tracker.ReadNode(1), 1u);
  rig.placement.MarkOutOfSync(0, 0);
  EXPECT_EQ(rig.tracker.ReadNode(0), 1u);  // Stale primary is skipped.
  for (int i = 0; i < 3; ++i) {
    rig.health.ReportError(1);
  }
  EXPECT_EQ(rig.tracker.ReadNode(1), 0u);  // Suspect primary: healthy secondary.
  EXPECT_EQ(rig.tracker.ReadNode(0), 1u);  // Suspect but the only in-sync copy.
}

TEST(OpTracker, ExhaustedFetchGivesUpWhenNoTargetIsPresent) {
  FailoverRig rig;
  rig.placement.MarkOutOfSync(0, 1);  // The only other replica is stale.
  const OpId id = OpId::Fetch(0);
  rig.tracker.Track(id, {.node = 0});
  FailThrice(rig, id);
  EXPECT_EQ(rig.tracker.Find(id), nullptr);
  EXPECT_EQ(rig.tracker.stats(OpKind::kFetch).failovers, 0u);
  EXPECT_EQ(rig.tracker.stats(OpKind::kFetch).give_ups, 1u);
  EXPECT_EQ(rig.give_up_calls, 1);
}

TEST(OpTracker, CorruptPayloadFailsOverAtOnceOrGivesUp) {
  FailoverRig rig;
  rig.tracker.Track(OpId::Fetch(0), {.node = 0});
  rig.tracker.FailOver(OpId::Fetch(0));  // Budget untouched, node healthy.
  ASSERT_NE(rig.tracker.Find(OpId::Fetch(0)), nullptr);
  EXPECT_EQ(rig.tracker.Find(OpId::Fetch(0))->node, 1u);
  rig.placement.MarkOutOfSync(2, 1);
  rig.tracker.Track(OpId::Fetch(2), {.node = 0});
  rig.tracker.FailOver(OpId::Fetch(2));
  EXPECT_EQ(rig.tracker.Find(OpId::Fetch(2)), nullptr);
  EXPECT_EQ(rig.give_up_calls, 1);
}

TEST(OpTracker, WritebacksNeverFailOver) {
  FailoverRig rig;
  const OpId id = OpId::Writeback(0, 0);
  rig.tracker.Track(id, {.node = 0});
  FailThrice(rig, id);
  EXPECT_EQ(rig.tracker.Find(id), nullptr);
  EXPECT_EQ(rig.tracker.stats(OpKind::kWriteback).failovers, 0u);
  EXPECT_EQ(rig.give_up_calls, 1);
}

TEST(OpTracker, TableMatchesAReferenceMapAndKeepsOpsInPlace) {
  // Scrub reads carry no deadline, so tracking and settling run no events.
  // Ids over a narrow vpage range collide in the open-addressed index, and
  // enough of them are live at once to grow it several times.
  Rig rig;
  std::map<uint64_t, std::pair<TrackedOp*, uint64_t>> live;  // wr_id -> (op, req_id).
  std::mt19937_64 rng(12345);
  for (uint64_t step = 1; step <= 20000; ++step) {
    const OpId id = OpId::Scrub(rng() % 600, static_cast<uint32_t>(rng() % 2));
    const auto it = live.find(id.wr_id());
    if (it != live.end() && rng() % 3 != 0) {
      EXPECT_EQ(rig.tracker.Settle(id, id.node).req_id, it->second.second);
      live.erase(it);
      EXPECT_EQ(rig.tracker.Find(id), nullptr);
    } else if (it == live.end()) {
      rig.tracker.Track(id, {.node = id.node, .req_id = step});
      live[id.wr_id()] = {rig.tracker.Find(id), step};
    }
    ASSERT_EQ(rig.tracker.size(), live.size());
    if (step % 500 == 0) {
      for (const auto& [wr_id, op] : live) {
        TrackedOp* found = rig.tracker.Find(OpId::FromWrId(wr_id, OpKind::kScrub));
        ASSERT_EQ(found, op.first) << "step " << step;
        EXPECT_EQ(found->req_id, op.second);
      }
    }
  }
}

TEST(OpId, RoundTripsAtTheLimitsForEveryKind) {
  for (OpKind kind : {OpKind::kFetch, OpKind::kWriteback, OpKind::kResilver, OpKind::kScrub}) {
    for (uint64_t vpage : {uint64_t{0}, uint64_t{12345}, OpId::kMaxVpage}) {
      for (uint32_t node : {0u, 3u, OpId::kMaxNode}) {
        SCOPED_TRACE(std::string(KindName(kind)) + " " + std::to_string(vpage) + "@" +
                     std::to_string(node));
        const OpId id{kind, vpage, kind == OpKind::kFetch ? 0u : node};
        EXPECT_EQ(OpId::FromWrId(id.wr_id(), OpKind::kFetch == kind ? kind : OpKind::kWriteback),
                  id);
      }
    }
  }
}

TEST(OpId, PacksTheHistoricalWrIdLayout) {
  // Fetch and node-0 write-back ids are the bare page; replica ids put the
  // node at bit 48; re-silver and scrub set bits 63 and 62.
  EXPECT_EQ(OpId::Fetch(42).wr_id(), 42u);
  EXPECT_EQ(OpId::Writeback(42, 0).wr_id(), 42u);
  EXPECT_EQ(OpId::Writeback(42, 3).wr_id(), 42u | 3ull << 48);
  EXPECT_EQ(OpId::Resilver(42, 3).wr_id(), 42u | 3ull << 48 | 1ull << 63);
  EXPECT_EQ(OpId::Scrub(42, 3).wr_id(), 42u | 3ull << 48 | 1ull << 62);
  // A fetch's identity is its page: the node is never packed.
  EXPECT_EQ(OpId::FromWrId(OpId::Fetch(42).wr_id(), OpKind::kFetch).node, 0u);
}

}  // namespace
}  // namespace adios
