// Per-memory-node failure detection for the replicated fabric.
//
// Requesters (worker fetch path, reclaimer write-back path) feed the monitor
// completion evidence: errors and deadline timeouts raise a per-node
// suspicion score, successes lower it, and the score decays exponentially
// with simulated time so stale evidence cannot keep a node suspect forever.
// The score drives a four-state machine with hysteresis:
//
//   kHealthy --score >= kSuspectThreshold--> kSuspect
//   kSuspect --score >= kDeadThreshold-----> kDead
//   kSuspect --score low + dwell-----------> kHealthy      (false alarm)
//   kDead ----consecutive probe OKs + dwell-> kResilvering  (node came back)
//   kResilvering --NotifyResilverDone-------> kHealthy
//   kResilvering --score >= kDeadThreshold--> kDead         (relapse)
//
// While a node is kSuspect or kDead the monitor self-schedules probe events
// (simulation stand-in for the keepalive ping a real fabric manager sends);
// the probe outcome comes from an injected ProbeFn, so the monitor itself
// stays fabric-agnostic and unit-testable. Nothing is scheduled for healthy
// nodes.
//
// One-copy rule: with one replica per page (a single memory node included)
// no node is ever declared suspect. Suspicion exists to steer reads and
// write-backs to another replica, and there is none; evidence is still
// scored, but the node stays kHealthy, schedules no probes and keeps being
// retried until the retry budget gives up.

#ifndef ADIOS_SRC_RDMA_NODE_HEALTH_H_
#define ADIOS_SRC_RDMA_NODE_HEALTH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"
#include "src/obs/metric_registry.h"
#include "src/sim/engine.h"

namespace adios {

// Replication knobs, carried by SystemConfig. The default is the paper's
// single memory node: one node, one replica per page.
struct ReplicationConfig {
  uint32_t num_nodes = 1;  // Memory nodes in the fabric.
  uint32_t replicas = 1;   // Copies per page (<= num_nodes, <= 8).

  // Re-silver per-page attempt budget, consumed by the reclaimer's re-silver
  // pass (its pacing is BackgroundCopier::kResilverBwGbps).
  uint32_t resilver_max_attempts = 3;
};

enum class NodeHealth : uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDead = 2,
  kResilvering = 3,
};

class NodeHealthMonitor {
 public:
  // --- Detector calibration (docs/FAILOVER.md) ---
  //
  // Time constants are multiples of the 25 us fetch deadline
  // (RetryPolicy::timeout_ns), so a node is judged on a few deadlines' worth
  // of evidence: a dark node goes suspect after ~3 failed WQEs and dead
  // after ~8, while a 1% loss rate (one error per ~100 successes, each
  // crediting a quarter point) drains its evidence as fast as it comes.
  //
  // Evidence scoring: one error/timeout adds 1.0, one success subtracts
  // kSuccessCredit, and the score halves every kEvidenceHalflifeNs.
  static constexpr double kSuspectThreshold = 3.0;  // kHealthy -> kSuspect.
  static constexpr double kDeadThreshold = 8.0;     // kSuspect -> kDead.
  // kSuspect -> kHealthy requires score <= kSuspectThreshold *
  // kSuspectExitFraction (the hysteresis band) *and* kMinDwellNs in state.
  static constexpr double kSuspectExitFraction = 0.5;
  static constexpr double kSuccessCredit = 0.25;
  static constexpr SimDuration kEvidenceHalflifeNs = 100'000;
  // Probing of suspect/dead nodes: one keepalive per deadline, and
  // kRecoveryProbes consecutive OKs to leave kDead.
  static constexpr SimDuration kProbeIntervalNs = 25'000;
  static constexpr uint32_t kRecoveryProbes = 3;
  static constexpr SimDuration kMinDwellNs = 50'000;
  // Evidence weight of a failed keepalive probe. Heavier than a WQE error:
  // once requesters fail over away from a suspect node, probes are the only
  // evidence stream left, and they must still be able to push a genuinely
  // dark node past kDeadThreshold against the decay.
  static constexpr double kProbeFailWeight = 2.0;
  // Evidence weight of a verified-corrupt payload (docs/INTEGRITY.md).
  // Heavier than a plain WQE error: silent corruption means the node is
  // lying, not just slow, so a persistently-corrupting node must degrade to
  // suspect/dead after a handful of detections.
  static constexpr double kCorruptionWeight = 2.0;
  static_assert(kSuspectThreshold > 0.0 && kDeadThreshold >= kSuspectThreshold &&
                kEvidenceHalflifeNs > 0 && kProbeIntervalNs > 0);

  // Returns true when the probe of `node` succeeded.
  using ProbeFn = std::function<bool(uint32_t node, SimTime now)>;
  using StateChangeFn =
      std::function<void(uint32_t node, NodeHealth from, NodeHealth to)>;

  NodeHealthMonitor(Engine* engine, const ReplicationConfig& config);

  NodeHealthMonitor(const NodeHealthMonitor&) = delete;
  NodeHealthMonitor& operator=(const NodeHealthMonitor&) = delete;

  void set_probe_fn(ProbeFn fn) { probe_fn_ = std::move(fn); }
  void set_on_state_change(StateChangeFn fn) { on_state_change_ = std::move(fn); }

  NodeHealth StateOf(uint32_t node) const { return nodes_[node].health; }
  bool SuspectOrWorse(uint32_t node) const {
    const NodeHealth h = nodes_[node].health;
    return h == NodeHealth::kSuspect || h == NodeHealth::kDead;
  }
  bool IsDead(uint32_t node) const { return nodes_[node].health == NodeHealth::kDead; }

  // Completion evidence from requesters. A success on a healthy node with
  // no evidence changes nothing, and every settled op of a fault-free run is
  // one, so that case returns before any work.
  void ReportSuccess(uint32_t node) {
    if (nodes_[node].health != NodeHealth::kHealthy || nodes_[node].score > 0.0) {
      CreditSuccess(node);
    }
  }
  void ReportError(uint32_t node);
  void ReportTimeout(uint32_t node);
  // A checksum-verified fetch from `node` came back corrupt.
  void ReportCorruption(uint32_t node);

  // The re-silver pass finished for `node`; kResilvering -> kHealthy.
  // Ignored in any other state (e.g. the node relapsed to kDead mid-pass).
  void NotifyResilverDone(uint32_t node);

  // Decayed suspicion score as of `now` (exposed for tests).
  double EvidenceScore(uint32_t node, SimTime now) const;

  const ReplicationConfig& config() const { return config_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  uint64_t suspect_events() const { return suspect_events_; }
  uint64_t dead_events() const { return dead_events_; }
  uint64_t recoveries() const { return recoveries_; }

  // Publishes per-node health state (as the NodeHealth enum value) and the
  // transition counters as probes labeled {node=n}.
  void RegisterMetrics(MetricRegistry* registry);

 private:
  struct NodeState {
    NodeHealth health = NodeHealth::kHealthy;
    double score = 0.0;
    SimTime score_time = 0;   // When `score` was last brought current.
    SimTime entered_at = 0;   // When `health` was entered (dwell base).
    uint32_t ok_probes = 0;   // Consecutive probe successes while kDead.
    // Bumped on every state change; a probe event scheduled under an older
    // generation is stale and ignored, so exactly one probe chain is live.
    uint64_t generation = 0;
  };

  void CreditSuccess(uint32_t node);
  void Decay(NodeState& ns, SimTime now) const;
  void AddEvidence(uint32_t node, double weight);
  void Reassess(uint32_t node);
  void EnterState(uint32_t node, NodeHealth to);
  void ArmProbe(uint32_t node);
  void OnProbe(uint32_t node, uint64_t generation);

  Engine* engine_;
  ReplicationConfig config_;
  ProbeFn probe_fn_;
  StateChangeFn on_state_change_;
  std::vector<NodeState> nodes_;
  uint64_t suspect_events_ = 0;
  uint64_t dead_events_ = 0;
  uint64_t recoveries_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_NODE_HEALTH_H_
