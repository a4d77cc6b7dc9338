#include "src/rdma/fabric.h"

#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"

namespace adios {
namespace {

FabricParams TestParams() {
  FabricParams p;  // Library defaults, calibrated in params.h.
  return p;
}

TEST(Fabric, UnloadedReadLatencyInPaperRange) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  ASSERT_TRUE(qp->PostRead(4096, 1));
  e.Run();
  ASSERT_EQ(cq->size(), 1u);
  Completion c;
  cq->Poll(1, &c);
  EXPECT_EQ(c.wr_id, 1u);
  EXPECT_EQ(c.type, WorkType::kRead);
  // The paper cites 2-3 us for a 4 KB fetch on 100 GbE RNICs.
  EXPECT_GE(c.completed_at, 2000u);
  EXPECT_LE(c.completed_at, 3500u);
}

TEST(Fabric, ReadCompletionsFifoPerQp) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(qp->PostRead(4096, i));
  }
  e.Run();
  ASSERT_EQ(cq->size(), 10u);
  std::vector<Completion> out(10);
  cq->Poll(10, out.begin());
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].wr_id, i);
  }
}

TEST(Fabric, QpDepthEnforced) {
  FabricParams p = TestParams();
  p.qp_depth = 4;
  Engine e;
  RdmaFabric fabric(&e, p);
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(qp->PostRead(4096, i));
  }
  EXPECT_TRUE(qp->full());
  EXPECT_FALSE(qp->PostRead(4096, 99));
  e.Run();
  EXPECT_EQ(qp->outstanding(), 0u);
  EXPECT_TRUE(qp->PostRead(4096, 100));  // Capacity returned.
  e.Run();
}

TEST(Fabric, OutstandingTracksInFlight) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  qp->PostRead(4096, 1);
  qp->PostRead(4096, 2);
  EXPECT_EQ(qp->outstanding(), 2u);
  EXPECT_EQ(fabric.TotalOutstanding(), 2u);
  e.Run();
  EXPECT_EQ(qp->outstanding(), 0u);
}

TEST(Fabric, WriteCompletesAndCountsUpstreamBytes) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  ASSERT_TRUE(qp->PostWrite(4096, 7));
  e.Run();
  Completion c;
  ASSERT_EQ(cq->Poll(1, &c), 1u);
  EXPECT_EQ(c.type, WorkType::kWrite);
  // Payload went compute -> memory node.
  EXPECT_GE(fabric.rdma_request_link().total_bytes(), 4096u);
}

TEST(Fabric, SendDeliversAndCompletes) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  SimTime delivered_at = 0;
  ASSERT_TRUE(qp->PostSend(1024, 5, [&] { delivered_at = e.now(); }));
  e.Run();
  Completion c;
  ASSERT_EQ(cq->Poll(1, &c), 1u);
  EXPECT_EQ(c.type, WorkType::kSend);
  EXPECT_GT(delivered_at, 0u);
  // Delivery happens one client-wire latency after the TX completes serializing.
  EXPECT_GE(delivered_at, kClientWireLatencyNs);
}

TEST(Fabric, CqSteeringRedirectsCompletions) {
  // The polling-delegation mechanism: one CQ serving another QP's sends.
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* own = fabric.CreateCq();
  CompletionQueue* delegated = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(own);
  qp->set_cq(delegated);
  qp->PostSend(512, 1);
  e.Run();
  EXPECT_TRUE(own->empty());
  EXPECT_EQ(delegated->size(), 1u);
}

TEST(Fabric, ClientInjectArrivesAfterLinkAndWire) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  SimTime arrived = 0;
  fabric.ClientInject(64, [&] { arrived = e.now(); });
  e.Run();
  EXPECT_GE(arrived, kClientWireLatencyNs);
  EXPECT_LT(arrived, 1000u);
}

TEST(Fabric, CqOnPushHookFires) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  int pushes = 0;
  cq->set_on_push([&] { ++pushes; });
  qp->PostRead(4096, 1);
  qp->PostRead(4096, 2);
  e.Run();
  EXPECT_EQ(pushes, 2);
}

TEST(Fabric, SharedLinkCongestionDelaysCompletions) {
  // Two QPs saturating the response link: completions take longer than the
  // unloaded latency, demonstrating queueing.
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* a = fabric.CreateQp(cq);
  QueuePair* b = fabric.CreateQp(cq);
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(a->PostRead(4096, i));
    ASSERT_TRUE(b->PostRead(4096, 100 + i));
  }
  e.Run();
  std::vector<Completion> out(100);
  ASSERT_EQ(cq->Poll(100, out.begin()), 100u);
  // The last completion waited behind ~99 serializations (~330 ns each).
  EXPECT_GT(out.back().completed_at, 30000u);
}

TEST(Fabric, WqeEngineCapsOperationRate) {
  // The NIC requester engine serializes WQE processing: N posted reads
  // cannot complete faster than N * wqe_process_ns (§5.2's NIC-bound
  // regime for Memcached).
  Engine e;
  FabricParams p;
  RdmaFabric fabric(&e, p);
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  const uint64_t n = 100;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(qp->PostRead(4096, i));
  }
  e.Run();
  ASSERT_EQ(cq->size(), n);
  std::vector<Completion> out(n);
  cq->Poll(n, out.begin());
  EXPECT_GE(out.back().completed_at, n * p.wqe_process_ns);
}

TEST(Fabric, PostReadBatchRetiresOneCqePerWqe) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  const ReadOp ops[] = {{10, 0}, {11, 0}, {12, 0}, {13, 0}};
  ASSERT_EQ(qp->PostReadBatch(4096, ops, 4), 4u);
  EXPECT_EQ(qp->outstanding(), 4u);
  // One doorbell for four WQEs.
  EXPECT_EQ(qp->doorbells_saved(), 3u);
  e.Run();
  ASSERT_EQ(cq->size(), 4u);
  std::vector<Completion> out(4);
  cq->Poll(4, out.begin());
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].wr_id, 10 + i);  // Per-op CQEs, posting order.
    EXPECT_EQ(out[i].type, WorkType::kRead);
  }
  EXPECT_EQ(qp->outstanding(), 0u);
  EXPECT_EQ(qp->posted_reads(), 4u);
}

TEST(Fabric, PostReadBatchRingsAtMostMaxBatchWqes) {
  // One doorbell takes at most kMaxReadBatch WQEs; the caller posts the rest.
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  std::vector<ReadOp> ops;
  for (uint64_t i = 0; i < QueuePair::kMaxReadBatch + 2; ++i) {
    ops.push_back(ReadOp{i, 0});
  }
  EXPECT_EQ(qp->PostReadBatch(4096, ops.data(), ops.size()), QueuePair::kMaxReadBatch);
  EXPECT_EQ(qp->doorbells_saved(), QueuePair::kMaxReadBatch - 1);
  e.Run();
  EXPECT_EQ(cq->size(), QueuePair::kMaxReadBatch);
}

TEST(Fabric, PostReadBatchAcceptsLongestPrefixAtDepth) {
  FabricParams p = TestParams();
  p.qp_depth = 4;
  Engine e;
  RdmaFabric fabric(&e, p);
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  ASSERT_TRUE(qp->PostRead(4096, 0));  // 3 slots left.
  const ReadOp ops[] = {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}};
  EXPECT_EQ(qp->PostReadBatch(4096, ops, 5), 3u);  // Prefix that fits.
  EXPECT_TRUE(qp->full());
  EXPECT_EQ(qp->doorbells_saved(), 2u);  // Saved only for accepted WQEs.
  // A full QP accepts nothing (and rings no doorbell).
  EXPECT_EQ(qp->PostReadBatch(4096, ops + 3, 2), 0u);
  e.Run();
  EXPECT_EQ(cq->size(), 4u);
  EXPECT_EQ(qp->posted_reads(), 4u);
}

TEST(Fabric, PostReadBatchSharesOneWqeEnginePass) {
  // The batch pays a single WQE-engine serialization: its last completion
  // lands earlier than the last of the same ops posted individually (which
  // pay one engine pass each). An exaggerated engine cost makes the engine
  // the bottleneck so the difference is unambiguous (at the calibrated cost
  // the m2c link dominates and hides it).
  FabricParams p;
  p.wqe_process_ns = 10000;
  SimTime batched_t = 0;
  SimTime individual_t = 0;
  {
    Engine e;
    RdmaFabric fabric(&e, p);
    CompletionQueue* cq = fabric.CreateCq();
    QueuePair* qp = fabric.CreateQp(cq);
    std::vector<ReadOp> ops;
    for (uint64_t i = 0; i < 8; ++i) {
      ops.push_back(ReadOp{i, 0});
    }
    ASSERT_EQ(qp->PostReadBatch(4096, ops.data(), ops.size()), 8u);
    e.Run();
    std::vector<Completion> out(8);
    ASSERT_EQ(cq->Poll(8, out.begin()), 8u);
    batched_t = out.back().completed_at;
  }
  {
    Engine e;
    RdmaFabric fabric(&e, p);
    CompletionQueue* cq = fabric.CreateCq();
    QueuePair* qp = fabric.CreateQp(cq);
    for (uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(qp->PostRead(4096, i));
    }
    e.Run();
    std::vector<Completion> out(8);
    ASSERT_EQ(cq->Poll(8, out.begin()), 8u);
    individual_t = out.back().completed_at;
  }
  EXPECT_LT(batched_t, individual_t);
}

TEST(Fabric, UtilizationWindowReflectsTraffic) {
  Engine e;
  RdmaFabric fabric(&e, TestParams());
  QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
  fabric.MarkUtilizationWindow();
  for (uint64_t i = 0; i < 20; ++i) {
    qp->PostRead(4096, i);
  }
  e.Run();
  EXPECT_GT(fabric.RdmaUtilization(), 0.0);
  EXPECT_LE(fabric.RdmaUtilization(), 1.0);
}

// Poisson 4 KiB READs over 8 QPs at offered load `rho` of the m2c link: the
// mean time each READ spends queued, i.e. its completion time minus the
// zero-load latency of a lone READ. The first 10% of the READs warm the
// queues up and are not counted.
double MeanReadQueueingNs(double rho, uint64_t reads) {
  constexpr uint64_t kBytes = 4096;
  constexpr uint32_t kQps = 8;
  Engine e;
  const FabricParams params = TestParams();
  RdmaFabric fabric(&e, params);
  CompletionQueue* cq = fabric.CreateCq();

  // The arrival chain: each READ posts on the next QP in turn and schedules
  // the following arrival one exponential gap later.
  struct Stream {
    Engine* e = nullptr;
    std::vector<QueuePair*> qps;
    Rng rng{42};
    double mean_gap_ns = 0;
    double next_at = 0;
    std::vector<SimTime> posted_at;  // By wr_id; sized to the READ count.
    uint64_t posted = 0;

    void Arrive() {
      posted_at[posted] = e->now();
      EXPECT_TRUE(qps[posted % qps.size()]->PostRead(kBytes, posted));
      if (++posted == posted_at.size()) {
        return;
      }
      next_at += rng.NextExponential(mean_gap_ns);
      e->ScheduleAt(static_cast<SimTime>(next_at), [this] { Arrive(); });
    }
  };
  Stream stream;
  stream.e = &e;
  for (uint32_t q = 0; q < kQps; ++q) {
    stream.qps.push_back(fabric.CreateQp(cq));
  }

  EXPECT_TRUE(stream.qps[0]->PostRead(kBytes, 0));
  e.Run();
  Completion lone;
  EXPECT_EQ(cq->Poll(1, &lone), 1u);
  const SimTime zero_load_ns = lone.completed_at;

  const double service_ns = static_cast<double>(
      FabricParams::SerializationNs(kBytes + kHeaderBytes, params.link_gbps));
  stream.mean_gap_ns = service_ns / rho;
  stream.next_at = static_cast<double>(e.now()) + stream.rng.NextExponential(stream.mean_gap_ns);
  stream.posted_at.resize(reads);

  const uint64_t warmup = reads / 10;
  double queued_ns = 0;
  uint64_t counted = 0;
  std::vector<Completion> batch(64);
  cq->set_on_push([&] {
    const size_t n = cq->Poll(batch.size(), batch.begin());
    for (size_t i = 0; i < n; ++i) {
      const Completion& c = batch[i];
      if (c.wr_id >= warmup) {
        queued_ns += static_cast<double>(c.completed_at - stream.posted_at[c.wr_id] - zero_load_ns);
        ++counted;
      }
    }
  });
  e.ScheduleAt(static_cast<SimTime>(stream.next_at), [&stream] { stream.Arrive(); });
  e.Run();
  EXPECT_EQ(counted, reads - warmup);
  return queued_ns / static_cast<double>(counted);
}

// The m2c link is a deterministic server fed by Poisson arrivals, so a READ
// queues as in M/D/1: Pollaczek-Khinchine gives W = rho * S / (2 (1 - rho)),
// with S the link's serialization of one 4 KiB payload plus its header. The
// WQE engine (195 ns per WQE) and the header's c2m hop sit in front of the
// link, yet add no wait: a tandem of deterministic servers waits like its
// slowest server alone.
TEST(Fabric, ReadQueueingMatchesMD1) {
  const FabricParams params = TestParams();
  const double service_ns = static_cast<double>(
      FabricParams::SerializationNs(4096 + kHeaderBytes, params.link_gbps));
  ASSERT_GT(service_ns, static_cast<double>(params.wqe_process_ns));
  for (const double rho : {0.3, 0.5, 0.7, 0.8, 0.9}) {
    const double measured = MeanReadQueueingNs(rho, 400000);
    const double md1 = rho * service_ns / (2 * (1 - rho));
    std::printf("rho %.1f: %.1f ns vs %.1f ns\n", rho, measured, md1);
    EXPECT_NEAR(measured, md1, 0.03 * md1) << "rho " << rho;
  }
}

}  // namespace
}  // namespace adios
