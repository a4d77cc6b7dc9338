// NodeHealthMonitor: evidence scoring, hysteresis, probing, and recovery.

#include "src/rdma/node_health.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/engine.h"

namespace adios {
namespace {

ReplicationConfig TwoNodes() {
  ReplicationConfig c;
  c.num_nodes = 2;
  c.replicas = 2;
  return c;
}

TEST(NodeHealth, EvidenceEscalatesToSuspectThenDead) {
  Engine engine;
  NodeHealthMonitor mon(&engine, TwoNodes());
  mon.set_probe_fn([](uint32_t, SimTime) { return false; });

  EXPECT_EQ(mon.StateOf(0), NodeHealth::kHealthy);
  mon.ReportError(0);
  mon.ReportError(0);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kHealthy);  // Score 2.0 < 3.0.
  mon.ReportTimeout(0);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kSuspect);  // Score 3.0.
  EXPECT_EQ(mon.suspect_events(), 1u);

  for (int i = 0; i < 5; ++i) {
    mon.ReportError(0);  // 8.0 >= kDeadThreshold; no dwell when worsening.
  }
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kDead);
  EXPECT_EQ(mon.dead_events(), 1u);
  EXPECT_EQ(mon.StateOf(1), NodeHealth::kHealthy);  // Evidence is per node.
}

TEST(NodeHealth, NodeWithNoReplicaToFailOverToIsNeverSuspect) {
  Engine engine;
  NodeHealthMonitor mon(&engine, ReplicationConfig{});  // One node, one replica.
  mon.set_probe_fn([](uint32_t, SimTime) { return false; });
  for (int i = 0; i < 20; ++i) {
    mon.ReportError(0);
    mon.ReportCorruption(0);
  }
  EXPECT_GT(mon.EvidenceScore(0, engine.now()), NodeHealthMonitor::kDeadThreshold);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kHealthy);
  EXPECT_EQ(mon.suspect_events(), 0u);
  engine.Run();
  EXPECT_EQ(engine.now(), 0u);  // No probe was ever scheduled.
}

TEST(NodeHealth, EvidenceDecaysExponentially) {
  Engine engine;
  NodeHealthMonitor mon(&engine, TwoNodes());
  mon.ReportError(0);
  mon.ReportError(0);
  EXPECT_DOUBLE_EQ(mon.EvidenceScore(0, 0), 2.0);
  // Two halflives (default 100 us): 2.0 -> 0.5.
  EXPECT_NEAR(mon.EvidenceScore(0, 200'000), 0.5, 1e-9);
  // Stale evidence alone can never push a node to suspect.
  engine.RunUntil(200'000);
  mon.ReportError(0);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kHealthy);  // 1.5 < 3.0.
}

TEST(NodeHealth, SuccessesPullASuspectNodeBack) {
  Engine engine;
  NodeHealthMonitor mon(&engine, TwoNodes());
  mon.set_probe_fn([](uint32_t, SimTime) { return true; });
  for (int i = 0; i < 3; ++i) {
    mon.ReportError(0);
  }
  ASSERT_EQ(mon.StateOf(0), NodeHealth::kSuspect);
  // Recovery requires BOTH the hysteresis band (score <= 1.5) and the
  // minimum dwell, so an immediate burst of successes is not enough...
  for (int i = 0; i < 20; ++i) {
    mon.ReportSuccess(0);
  }
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kSuspect);  // Dwell not served yet.
  // ...but traffic successes after the dwell clear it without any probe.
  engine.RunUntil(60'000);
  mon.ReportSuccess(0);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kHealthy);
  EXPECT_EQ(mon.recoveries(), 1u);
}

TEST(NodeHealth, DeadNodeNeedsConsecutiveProbeSuccesses) {
  Engine engine;
  bool node_up = false;
  NodeHealthMonitor mon(&engine, TwoNodes());
  mon.set_probe_fn([&node_up](uint32_t, SimTime) { return node_up; });
  for (int i = 0; i < 8; ++i) {
    mon.ReportError(0);
  }
  ASSERT_EQ(mon.StateOf(0), NodeHealth::kDead);

  // Probes keep failing: stays dead no matter how long.
  engine.RunUntil(500'000);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kDead);

  // Node comes back: three consecutive OK probes (default 25 us apart)
  // promote it to kResilvering, and only the re-silver pass completes the
  // round trip to kHealthy.
  node_up = true;
  engine.RunUntil(700'000);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kResilvering);
  EXPECT_EQ(mon.recoveries(), 1u);
  mon.NotifyResilverDone(0);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kHealthy);
  // A stray second notification is a no-op.
  mon.NotifyResilverDone(0);
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kHealthy);
}

TEST(NodeHealth, ResilveringNodeRelapsesOnFreshEvidence) {
  Engine engine;
  bool node_up = false;
  NodeHealthMonitor mon(&engine, TwoNodes());
  mon.set_probe_fn([&node_up](uint32_t, SimTime) { return node_up; });
  for (int i = 0; i < 8; ++i) {
    mon.ReportError(0);
  }
  node_up = true;
  engine.RunUntil(200'000);
  ASSERT_EQ(mon.StateOf(0), NodeHealth::kResilvering);
  for (int i = 0; i < 8; ++i) {
    mon.ReportError(0);  // The node died again mid-pass.
  }
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kDead);
  mon.NotifyResilverDone(0);  // Stale pass completion is ignored.
  EXPECT_EQ(mon.StateOf(0), NodeHealth::kDead);
}

TEST(NodeHealth, FlappingNodeBoundedByMinDwell) {
  Engine engine;
  ReplicationConfig cfg = TwoNodes();
  NodeHealthMonitor mon(&engine, cfg);
  mon.set_probe_fn([](uint32_t, SimTime) { return true; });

  struct Transition {
    SimTime time;
    NodeHealth from;
    NodeHealth to;
  };
  std::vector<Transition> log;
  mon.set_on_state_change([&log, &engine](uint32_t, NodeHealth from, NodeHealth to) {
    log.push_back({engine.now(), from, to});
  });

  // Error bursts every 150 us: each drives the node suspect, then probes and
  // decay pull it back before the next burst.
  for (SimTime t = 0; t < 1'000'000; t += 150'000) {
    engine.Schedule(t, [&mon] {
      for (int i = 0; i < 4; ++i) {
        mon.ReportError(0);
      }
    });
  }
  engine.RunUntil(1'500'000);

  ASSERT_GE(mon.suspect_events(), 3u);
  EXPECT_EQ(mon.dead_events(), 0u);  // Bursts of 4 never reach 8.0.
  // Every recovery served the full dwell: the node can not oscillate
  // healthy<->suspect faster than kMinDwellNs.
  SimTime entered_suspect = 0;
  for (const Transition& tr : log) {
    if (tr.to == NodeHealth::kSuspect) {
      entered_suspect = tr.time;
    } else if (tr.to == NodeHealth::kHealthy) {
      EXPECT_GE(tr.time - entered_suspect, NodeHealthMonitor::kMinDwellNs);
    }
  }
}

}  // namespace
}  // namespace adios
