// One lifecycle for every RDMA op the compute node tracks: a worker's page
// fetch, a reclaimer write-back, a re-silver copy and a scrub read
// (docs/FAULT_MODEL.md §4).
//
// The paper's fault handler is "post a READ, yield, resume on the CQE" (§3,
// Fig. 5). Around that post every kind of op needs the same recovery, which
// OpTracker runs once under a small per-kind OpRules, reporting node-health
// evidence as it goes. The owner posts the first WQE and supplies two hooks:
// *repost* (false when the send queue is full) and *give up*.
//
//   outstanding --success CQE---------> settled; the owner completes it
//   outstanding --error CQE, deadline-> backoff while budget is left
//   backoff -----timer----------------> repost: outstanding (QP full: 1 us on)
//   budget spent: in-sync replica elsewhere -> failover, fresh budget, repost
//                 none                      -> settled; the give-up hook runs
//
// A late or duplicate CQE finds nothing and is dropped. Callbacks run from
// engine events or completion drains and never suspend.

#ifndef ADIOS_SRC_RDMA_OP_TRACKER_H_
#define ADIOS_SRC_RDMA_OP_TRACKER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/annotations.h"
#include "src/base/check.h"
#include "src/rdma/completion.h"
#include "src/rdma/node_health.h"
#include "src/rdma/params.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace adios {

class PlacementMap;

enum class OpKind : uint8_t { kFetch, kWriteback, kResilver, kScrub };
inline constexpr uint32_t kNumOpKinds = 4;

// Identity of one RDMA op, and the only code that knows how it packs into the
// NIC's opaque 64-bit wr_id:
//
//   bit 63: re-silver   bit 62: scrub   bits 48-61: node   bits 0-47: vpage
//
// A QP names at most one in-flight op per wr_id:
// - A fetch is its page alone (wr_id == vpage). A failover retargets the same
//   op, so its node is tracker state, not identity.
// - A write-back is (vpage, node): one WQE per replica of the fan-out. Node 0
//   packs to the bare vpage like a fetch; the two never share a QP.
// - A re-silver copy is (vpage, node it is posted to). Its READ from node A
//   and a WRITE to node A are the same id, so they serialize.
// - A scrub read is (vpage, node).
struct OpId {
  static constexpr uint32_t kNodeShift = 48;
  static constexpr uint64_t kMaxVpage = (1ull << kNodeShift) - 1;
  static constexpr uint32_t kMaxNode = (1u << 14) - 1;

  OpKind kind = OpKind::kFetch;
  uint64_t vpage = 0;
  uint32_t node = 0;  // Always 0 for a fetch.

  static OpId Fetch(uint64_t vpage) { return {OpKind::kFetch, vpage, 0}; }
  static OpId Writeback(uint64_t vpage, uint32_t node) { return {OpKind::kWriteback, vpage, node}; }
  static OpId Resilver(uint64_t vpage, uint32_t node) { return {OpKind::kResilver, vpage, node}; }
  static OpId Scrub(uint64_t vpage, uint32_t node) { return {OpKind::kScrub, vpage, node}; }

  uint64_t wr_id() const {
    ADIOS_DCHECK(vpage <= kMaxVpage && node <= kMaxNode);
    const uint64_t packed = vpage | static_cast<uint64_t>(node) << kNodeShift;
    return kind == OpKind::kResilver ? packed | kResilverBit
           : kind == OpKind::kScrub  ? packed | kScrubBit
                                     : packed;
  }
  // `untagged` is the kind a wr_id without a tag bit has on the QP it
  // completed on: fetch on a worker's QP, write-back on the reclaimer's.
  static OpId FromWrId(uint64_t wr_id, OpKind untagged) {
    const OpKind kind = (wr_id & kResilverBit) != 0 ? OpKind::kResilver
                        : (wr_id & kScrubBit) != 0  ? OpKind::kScrub
                                                    : untagged;
    const auto node = static_cast<uint32_t>((wr_id >> kNodeShift) & kMaxNode);
    return {kind, wr_id & kMaxVpage, kind == OpKind::kFetch ? 0 : node};
  }
  bool operator==(const OpId&) const = default;

 private:
  static constexpr uint64_t kResilverBit = 1ull << 63;
  static constexpr uint64_t kScrubBit = 1ull << 62;
};

// One op's lifecycle state, then owner context the tracker carries untouched.
struct TrackedOp {
  uint32_t node = 0;  // Node the op is posted to.
  TrafficClass cls = TrafficClass::kDemand;
  uint32_t attempts = 1;       // Posts to `node` so far.
  uint32_t failovers = 0;      // Replica switches so far.
  SimDuration backoff_ns = 0;  // Wait before the next repost.
  bool repost_pending = false;
  Engine::EventHandle deadline{};
  uint64_t req_id = 0;    // Fetch: the initiating request, for trace records.
  uint32_t target = 0;    // Re-silver: node whose replica is being restored.
  uint32_t requeues = 0;  // Re-silver: times the page went back to the queue.
  bool pinned = false;    // Re-silver: holds a page pin, not a bounce frame.
};

// Per-kind behaviour: ops are tracked only while `retry.enabled`, each post
// gets a `retry.timeout_ns` deadline (0: none), and MaxRetriesFor(cls)
// reposts back off before the op gives up.
struct OpRules {
  RetryPolicy retry;
  bool failover = false;  // Move to another in-sync replica.
  bool traced = false;    // Record kFetchTimeout/kRetry/kFailover for req_id.
};

// Tracks the ops of one QP, keyed by wr_id as its completions are. A warm
// tracker allocates nothing: ops live in pooled entries whose addresses never
// move, so a TrackedOp* from Find stays valid while other ops are tracked and
// settled, and an open-addressed table maps wr_id to its entry.
class OpTracker {
 public:
  using RepostFn = std::function<bool(const OpId&, const TrackedOp&)>;
  using GiveUpFn = std::function<void(const OpId&, TrackedOp&)>;  // Op already untracked.

  // `placement` and `health` decide where reads go and where a failover
  // lands; a single node is their one-replica case.
  OpTracker(Engine* engine, PlacementMap* placement, NodeHealthMonitor* health)
      : engine_(engine), health_(health), placement_(placement) {}
  OpTracker(const OpTracker&) = delete;
  OpTracker& operator=(const OpTracker&) = delete;

  void set_rules(OpKind kind, const OpRules& rules) { kinds_[Index(kind)].rules = rules; }
  void set_hooks(OpKind kind, RepostFn repost, GiveUpFn give_up) {
    kinds_[Index(kind)].repost = std::move(repost);
    kinds_[Index(kind)].give_up = std::move(give_up);
  }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  bool tracks(OpKind kind) const { return kinds_[Index(kind)].rules.retry.enabled; }

  // Starts tracking an op just posted to `op.node` (backoff reset to base).
  ADIOS_NO_SUSPEND void Track(const OpId& id, TrackedOp op);
  TrackedOp* Find(const OpId& id);  // nullptr once settled.
  // Triage of a final CQE: true for a success the owner completes with
  // Settle (or any CQE of an untracked kind); false for a late or duplicate
  // CQE (dropped) or an error (health evidence, then retry or give up).
  ADIOS_NO_SUSPEND bool Admit(const OpId& id, const Completion& c);
  // Stops tracking `id` (if tracked), credits `node`'s health, returns the op.
  ADIOS_NO_SUSPEND TrackedOp Settle(const OpId& id, uint32_t node);
  // `node` served a corrupt copy of `vpage`: trace, mark it out of sync, and
  // add corruption evidence.
  ADIOS_NO_SUSPEND void Quarantine(uint64_t vpage, uint32_t node, uint64_t req_id);
  // After a corrupt payload: fail over at once, else give up.
  ADIOS_NO_SUSPEND void FailOver(const OpId& id);
  // Replica to read `vpage` from: PickReplica, else the primary.
  uint32_t ReadNode(uint64_t vpage) const;

  struct Stats {
    uint64_t timeouts = 0;
    uint64_t retries = 0;
    uint64_t failovers = 0;
    uint64_t give_ups = 0;
  };
  const Stats& stats(OpKind kind) const { return kinds_[Index(kind)].stats; }
  size_t size() const { return size_; }

 private:
  struct Kind {
    OpRules rules;
    RepostFn repost;
    GiveUpFn give_up;
    Stats stats;
  };
  static constexpr uint32_t kNoNode = ~0u;
  static size_t Index(OpKind kind) { return static_cast<size_t>(kind); }

  void ArmDeadline(const OpId& id, TrackedOp& op);
  ADIOS_NO_SUSPEND void Expire(const OpId& id);
  ADIOS_NO_SUSPEND void RetryOrGiveUp(const OpId& id, TrackedOp& op);
  ADIOS_NO_SUSPEND void Repost(const OpId& id);
  ADIOS_NO_SUSPEND bool TryFailover(const OpId& id, TrackedOp& op);
  ADIOS_NO_SUSPEND void GiveUp(const OpId& id);
  TrackedOp Untrack(const OpId& id);  // Cancels the deadline.
  // First in-sync replica of `vpage` other than `skip` on a healthy or
  // resilvering node, else the first such suspect one, else kNoNode.
  uint32_t PickReplica(uint64_t vpage, uint32_t skip) const;
  void Trace(const Kind& k, TraceEvent event, uint64_t req_id, uint32_t arg) const;

  // --- Op table ---
  // Entries only ever grow at the back of a deque, which never moves them;
  // settled entries go on a free list threaded through `next_free`. The
  // index is a power-of-two array of entry numbers (kNoEntry: empty), probed
  // linearly from the wr_id's Fibonacci hash and kept at most half full.
  // Removal shifts the rest of the probe run back, so there are no
  // tombstones.
  static constexpr uint32_t kNoEntry = ~0u;
  struct Entry {
    uint64_t wr_id = 0;
    TrackedOp op;
    uint32_t next_free = kNoEntry;
  };
  size_t Home(uint64_t wr_id) const {
    return static_cast<size_t>((wr_id * 0x9E3779B97F4A7C15ull) >> index_shift_);
  }
  // Index position holding wr_id's entry, or the empty position where it
  // would go.
  size_t Probe(uint64_t wr_id) const;
  // Entry for wr_id, added (with a default op) if absent.
  Entry& FindOrAdd(uint64_t wr_id);
  void EraseAt(size_t pos);
  void GrowIndex();

  Engine* engine_;
  NodeHealthMonitor* health_;
  PlacementMap* placement_;
  Tracer* tracer_ = Tracer::Off();
  std::array<Kind, kNumOpKinds> kinds_;
  std::deque<Entry> entries_;
  uint32_t free_entry_ = kNoEntry;
  std::vector<uint32_t> index_;  // By Home(wr_id); empty until the first Track.
  uint32_t index_shift_ = 64;
  size_t size_ = 0;  // Ops tracked.
};

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_OP_TRACKER_H_
