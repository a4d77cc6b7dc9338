#include "src/rdma/node_health.h"

#include <cmath>

namespace adios {

NodeHealthMonitor::NodeHealthMonitor(Engine* engine, const ReplicationConfig& config)
    : engine_(engine), config_(config), nodes_(config.num_nodes) {
  ADIOS_CHECK(engine != nullptr);
  ADIOS_CHECK(config.num_nodes >= 1);
}

void NodeHealthMonitor::RegisterMetrics(MetricRegistry* registry) {
  for (uint32_t node = 0; node < num_nodes(); ++node) {
    registry->RegisterProbe("node.health", MetricLabels::Node(node), [this, node] {
      return static_cast<double>(static_cast<uint8_t>(StateOf(node)));
    });
  }
  registry->RegisterProbe("node.suspect_events", {},
                          [this] { return static_cast<double>(suspect_events_); });
  registry->RegisterProbe("node.dead_events", {},
                          [this] { return static_cast<double>(dead_events_); });
  registry->RegisterProbe("node.recoveries", {},
                          [this] { return static_cast<double>(recoveries_); });
}

void NodeHealthMonitor::Decay(NodeState& ns, SimTime now) const {
  if (ns.score_time == now) {
    return;
  }
  if (ns.score > 0.0) {
    const double dt = static_cast<double>(now - ns.score_time);
    ns.score *= std::exp2(-dt / static_cast<double>(kEvidenceHalflifeNs));
    if (ns.score < 1e-6) {
      ns.score = 0.0;
    }
  }
  ns.score_time = now;
}

double NodeHealthMonitor::EvidenceScore(uint32_t node, SimTime now) const {
  NodeState ns = nodes_[node];  // Copy: decay without mutating.
  Decay(ns, now);
  return ns.score;
}

void NodeHealthMonitor::CreditSuccess(uint32_t node) {
  NodeState& ns = nodes_[node];
  Decay(ns, engine_->now());
  ns.score -= kSuccessCredit;
  if (ns.score < 0.0) {
    ns.score = 0.0;
  }
  Reassess(node);
}

void NodeHealthMonitor::ReportError(uint32_t node) { AddEvidence(node, 1.0); }

void NodeHealthMonitor::ReportTimeout(uint32_t node) { AddEvidence(node, 1.0); }

void NodeHealthMonitor::ReportCorruption(uint32_t node) {
  AddEvidence(node, kCorruptionWeight);
}

void NodeHealthMonitor::AddEvidence(uint32_t node, double weight) {
  NodeState& ns = nodes_[node];
  Decay(ns, engine_->now());
  ns.score += weight;
  Reassess(node);
}

void NodeHealthMonitor::Reassess(uint32_t node) {
  NodeState& ns = nodes_[node];
  const SimTime now = engine_->now();
  switch (ns.health) {
    case NodeHealth::kHealthy:
      // The one-copy rule (header): no replica to fail over to, no suspicion.
      if (config_.replicas > 1 && ns.score >= kSuspectThreshold) {
        EnterState(node, NodeHealth::kSuspect);
      }
      break;
    case NodeHealth::kSuspect:
      // Worsening is immediate (no dwell: losing time on a dying node costs
      // goodput); recovering requires both the hysteresis band and a dwell
      // so a flapping node cannot oscillate faster than kMinDwellNs.
      if (ns.score >= kDeadThreshold) {
        EnterState(node, NodeHealth::kDead);
      } else if (ns.score <= kSuspectThreshold * kSuspectExitFraction &&
                 now - ns.entered_at >= kMinDwellNs) {
        ++recoveries_;
        EnterState(node, NodeHealth::kHealthy);
      }
      break;
    case NodeHealth::kDead:
      // Only probes resurrect a dead node (OnProbe handles it); requesters
      // stopped talking to it, so completion evidence dries up by design.
      break;
    case NodeHealth::kResilvering:
      if (ns.score >= kDeadThreshold) {
        EnterState(node, NodeHealth::kDead);
      }
      break;
  }
}

void NodeHealthMonitor::EnterState(uint32_t node, NodeHealth to) {
  NodeState& ns = nodes_[node];
  const NodeHealth from = ns.health;
  if (from == to) {
    return;
  }
  ns.health = to;
  ns.entered_at = engine_->now();
  ns.ok_probes = 0;
  ++ns.generation;
  switch (to) {
    case NodeHealth::kSuspect:
      ++suspect_events_;
      ArmProbe(node);
      break;
    case NodeHealth::kDead:
      ++dead_events_;
      ArmProbe(node);
      break;
    case NodeHealth::kResilvering:
      ns.score = 0.0;  // Fresh start: only new evidence can re-kill it.
      break;
    case NodeHealth::kHealthy:
      ns.score = 0.0;
      break;
  }
  if (on_state_change_) {
    on_state_change_(node, from, to);
  }
}

void NodeHealthMonitor::ArmProbe(uint32_t node) {
  const uint64_t generation = nodes_[node].generation;
  engine_->Schedule(kProbeIntervalNs,
                    [this, node, generation] { OnProbe(node, generation); });
}

void NodeHealthMonitor::OnProbe(uint32_t node, uint64_t generation) {
  NodeState& ns = nodes_[node];
  if (ns.generation != generation) {
    return;  // Stale: the state changed since this probe was armed.
  }
  if (ns.health != NodeHealth::kSuspect && ns.health != NodeHealth::kDead) {
    return;
  }
  const SimTime now = engine_->now();
  const bool ok = !probe_fn_ || probe_fn_(node, now);
  if (ns.health == NodeHealth::kSuspect) {
    // Probes feed the same evidence stream as real traffic, so a suspect
    // node with no requesters left still converges to dead or healthy.
    if (ok) {
      ReportSuccess(node);
    } else {
      AddEvidence(node, kProbeFailWeight);
    }
  } else {  // kDead
    if (ok) {
      ++ns.ok_probes;
      if (ns.ok_probes >= kRecoveryProbes &&
          now - ns.entered_at >= kMinDwellNs) {
        ++recoveries_;
        EnterState(node, NodeHealth::kResilvering);
      }
    } else {
      ns.ok_probes = 0;
    }
  }
  // Keep exactly one probe chain alive: if the handling above changed state,
  // the generation moved on and (for suspect/dead) EnterState armed a fresh
  // chain already.
  if (ns.generation == generation &&
      (ns.health == NodeHealth::kSuspect || ns.health == NodeHealth::kDead)) {
    ArmProbe(node);
  }
}

void NodeHealthMonitor::NotifyResilverDone(uint32_t node) {
  if (nodes_[node].health != NodeHealth::kResilvering) {
    return;
  }
  EnterState(node, NodeHealth::kHealthy);
}

}  // namespace adios
