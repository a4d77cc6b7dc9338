#include "src/rdma/fabric.h"

#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace adios
