// Critical-chunk-first delivery and fabric edge cases (docs/QOS.md).
//
// Fabric level: a chunked demand READ surfaces one early partial completion
// and one final completion that alone retires the WQE; chunking never
// applies to non-demand classes or sub-chunk transfers; an injector
// duplicate duplicates only the final completion; a zero-op batch is a
// no-op; a mixed-class batch splits deterministically per class.
//
// Memory-manager level: ChunkReady pins the page, wakes only early-flagged
// waiters, is duplicate-safe, and both CompleteFetch and AbortFetch clear
// the partial bit and the pin.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <vector>

#include "src/mem/memory_manager.h"
#include "src/rdma/fabric.h"
#include "src/rdma/fault_injector.h"
#include "src/sim/engine.h"

namespace adios {
namespace {

FabricParams ChunkParams(uint32_t chunk_bytes = 1024) {
  FabricParams p;
  p.chunk_bytes = chunk_bytes;
  return p;
}

std::vector<Completion> DrainCq(CompletionQueue* cq) {
  std::vector<Completion> out;
  cq->Poll(64, std::back_inserter(out));
  return out;
}

TEST(ChunkFetch, ChunkedReadDeliversPartialThenFinal) {
  Engine e;
  RdmaFabric fabric(&e, ChunkParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  ASSERT_TRUE(qp->PostRead(4096, /*wr_id=*/7));
  e.Run();

  const std::vector<Completion> cs = DrainCq(cq);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_TRUE(cs[0].partial);
  EXPECT_FALSE(cs[1].partial);
  EXPECT_EQ(cs[0].wr_id, 7u);
  EXPECT_EQ(cs[1].wr_id, 7u);
  EXPECT_TRUE(cs[0].ok());
  EXPECT_TRUE(cs[1].ok());
  // The critical chunk lands strictly earlier than the tail.
  EXPECT_LT(cs[0].completed_at, cs[1].completed_at);
  // Only the final completion retires the WQE: conservation holds with the
  // partial bypassing the counters.
  EXPECT_EQ(qp->posted_reads(), 1u);
  EXPECT_EQ(qp->completions(), 1u);
  EXPECT_EQ(qp->outstanding(), 0u);
}

TEST(ChunkFetch, ChunkedPartialArrivesEarlierThanUnchunkedRead) {
  // The point of the split: the faulting unithread's wake-up moves earlier.
  // Compare the partial's arrival against the full page's single completion
  // on an identical unchunked fabric.
  SimTime unchunked_done = 0;
  {
    Engine e;
    RdmaFabric fabric(&e, FabricParams{});
    CompletionQueue* cq = fabric.CreateCq();
    QueuePair* qp = fabric.CreateQp(cq);
    ASSERT_TRUE(qp->PostRead(4096, 1));
    e.Run();
    const std::vector<Completion> cs = DrainCq(cq);
    ASSERT_EQ(cs.size(), 1u);
    unchunked_done = cs[0].completed_at;
  }
  Engine e;
  RdmaFabric fabric(&e, ChunkParams(512));
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  ASSERT_TRUE(qp->PostRead(4096, 1));
  e.Run();
  const std::vector<Completion> cs = DrainCq(cq);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_LT(cs[0].completed_at, unchunked_done);
  // The tail pays one extra header's serialization, so the fetch as a whole
  // settles no earlier than the unchunked read.
  EXPECT_GE(cs[1].completed_at, unchunked_done);
}

TEST(ChunkFetch, ChunkingSkipsNonDemandAndSmallReads) {
  Engine e;
  RdmaFabric fabric(&e, ChunkParams());
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  // Prefetch-class READ larger than the chunk: never split.
  ASSERT_TRUE(qp->PostRead(4096, 1, 0, TrafficClass::kPrefetch));
  // Background-class READ: never split.
  ASSERT_TRUE(qp->PostRead(4096, 2, 0, TrafficClass::kBackground));
  // Demand READ no larger than the chunk: nothing to split.
  ASSERT_TRUE(qp->PostRead(1024, 3, 0, TrafficClass::kDemand));
  e.Run();

  const std::vector<Completion> cs = DrainCq(cq);
  ASSERT_EQ(cs.size(), 3u);
  for (const Completion& c : cs) {
    EXPECT_FALSE(c.partial) << "wr " << c.wr_id;
  }
  EXPECT_EQ(qp->completions(), 3u);
}

TEST(ChunkFetch, DuplicatedChunkedReadDuplicatesOnlyTheFinalCompletion) {
  Engine e;
  RdmaFabric fabric(&e, ChunkParams());
  FaultInjector::Options fo;
  fo.duplicate_rate = 1.0;
  FaultInjector injector(fo);
  fabric.set_fault_injector(&injector);
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  ASSERT_TRUE(qp->PostRead(4096, 9));
  e.Run();

  const std::vector<Completion> cs = DrainCq(cq);
  // One partial + the final + the duplicated final. Were the partial also
  // duplicated, a second early wake could race the tail; the contract is
  // that retransmit races replay only the WQE-retiring completion.
  ASSERT_EQ(cs.size(), 3u);
  size_t partials = 0;
  size_t finals = 0;
  for (const Completion& c : cs) {
    EXPECT_EQ(c.wr_id, 9u);
    c.partial ? ++partials : ++finals;
  }
  EXPECT_EQ(partials, 1u);
  EXPECT_EQ(finals, 2u);
  EXPECT_EQ(injector.injected_duplicates(), 1u);
  // The duplicate and the partial both bypass the retirement counters.
  EXPECT_EQ(qp->posted_reads(), 1u);
  EXPECT_EQ(qp->completions(), 1u);
  EXPECT_EQ(qp->outstanding(), 0u);
}

TEST(ChunkFetch, ZeroOpBatchIsANoOp) {
  Engine e;
  RdmaFabric fabric(&e, FabricParams{});
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  EXPECT_EQ(qp->PostReadBatch(4096, nullptr, 0), 0u);
  e.Run();
  EXPECT_TRUE(cq->empty());
  EXPECT_EQ(qp->posted_reads(), 0u);
  EXPECT_EQ(qp->outstanding(), 0u);
  EXPECT_EQ(qp->doorbells_saved(), 0u);
}

TEST(ChunkFetch, BatchOnFullSendQueueAcceptsNothing) {
  FabricParams p;
  p.qp_depth = 2;
  Engine e;
  RdmaFabric fabric(&e, p);
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  ASSERT_TRUE(qp->PostRead(4096, 1));
  ASSERT_TRUE(qp->PostRead(4096, 2));
  ASSERT_TRUE(qp->full());
  const ReadOp ops[2] = {{10, 0, TrafficClass::kDemand}, {11, 0, TrafficClass::kDemand}};
  EXPECT_EQ(qp->PostReadBatch(4096, ops, 2), 0u);
  e.Run();
  EXPECT_EQ(DrainCq(cq).size(), 2u);  // Only the two individual posts.
}

std::vector<uint64_t> RunMixedBatch(uint32_t link_classes) {
  FabricParams p;
  p.link_classes = link_classes;
  Engine e;
  RdmaFabric fabric(&e, p);
  CompletionQueue* cq = fabric.CreateCq();
  QueuePair* qp = fabric.CreateQp(cq);
  const ReadOp ops[4] = {
      {0, 0, TrafficClass::kDemand},
      {1, 0, TrafficClass::kPrefetch},
      {2, 0, TrafficClass::kDemand},
      {3, 0, TrafficClass::kBackground},
  };
  EXPECT_EQ(qp->PostReadBatch(4096, ops, 4), 4u);
  EXPECT_EQ(qp->doorbells_saved(), 3u);
  e.Run();
  EXPECT_EQ(qp->completions(), 4u);
  EXPECT_EQ(qp->outstanding(), 0u);
  std::vector<uint64_t> order;
  for (const Completion& c : DrainCq(cq)) {
    EXPECT_TRUE(c.ok());
    order.push_back(c.wr_id);
  }
  return order;
}

TEST(ChunkFetch, MixedClassBatchSplitsDeterministically) {
  // One doorbell, four ops across three classes. With the class scheduler
  // on, the second demand op overtakes the earlier-posted prefetch op on
  // the request link (demand credit outlasts the first grant); background
  // goes last. With classes off, posting order is wire order. Both
  // schedules are deterministic.
  EXPECT_EQ(RunMixedBatch(3), (std::vector<uint64_t>{0, 2, 1, 3}));
  EXPECT_EQ(RunMixedBatch(3), (std::vector<uint64_t>{0, 2, 1, 3}));
  EXPECT_EQ(RunMixedBatch(0), (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(ChunkFetch, CompressionShrinksWirePayload) {
  auto response_bytes = [](bool compress) {
    FabricParams p;
    p.compress_gbps = compress ? 400.0 : 0.0;
    Engine e;
    RdmaFabric fabric(&e, p);
    CompletionQueue* cq = fabric.CreateCq();
    QueuePair* qp = fabric.CreateQp(cq);
    EXPECT_TRUE(qp->PostRead(4096, 1));
    e.Run();
    EXPECT_EQ(qp->completions(), 1u);
    return fabric.rdma_response_link().total_bytes();
  };
  const uint64_t plain = response_bytes(false);
  const uint64_t compressed = response_bytes(true);
  // Headers ride uncompressed; only the 4096-byte payload shrinks, to
  // kCompressRatio of its size.
  const auto payload = static_cast<uint64_t>(std::llround(4096 * FabricParams::kCompressRatio));
  EXPECT_EQ(plain - compressed, 4096u - payload);
}

// --- MemoryManager: the ChunkReady protocol ---

TEST(ChunkFetch, ChunkReadyWakesOnlyEarlyWaitersAndPins) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 64, 16);
  mm.BeginFetch(3);
  std::vector<int> ran;
  mm.AddFetchWaiter(3, [&](bool ok) {
    EXPECT_TRUE(ok);
    ran.push_back(1);  // Writer-style waiter: must wait for the tail.
  });
  mm.AddFetchWaiter(
      3,
      [&](bool ok) {
        EXPECT_TRUE(ok);
        ran.push_back(2);  // Reader: eligible for early resume.
      },
      /*early=*/true);

  mm.ChunkReady(3);
  EXPECT_EQ(ran, (std::vector<int>{2}));
  const PageInfo mid = mm.page_table().Info(3);
  EXPECT_EQ(mid.state, PageWordState::kFetching);
  EXPECT_TRUE(mid.partial);
  EXPECT_EQ(mid.pins, 1u);  // Held until the tail settles the fetch.
  EXPECT_EQ(mm.stats().chunk_partials, 1u);
  EXPECT_EQ(mm.stats().chunk_early_wakes, 1u);

  mm.CompleteFetch(3);
  EXPECT_EQ(ran, (std::vector<int>{2, 1}));
  const PageInfo done = mm.page_table().Info(3);
  EXPECT_EQ(done.state, PageWordState::kPresent);
  EXPECT_FALSE(done.partial);
  EXPECT_EQ(done.pins, 0u);
}

TEST(ChunkFetch, DuplicateChunkReadyIsIdempotent) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 64, 16);
  mm.BeginFetch(5);
  int early_wakes = 0;
  mm.AddFetchWaiter(5, [&](bool) { ++early_wakes; }, /*early=*/true);
  mm.ChunkReady(5);
  mm.ChunkReady(5);  // Injector-duplicated partial completion.
  EXPECT_EQ(early_wakes, 1);
  EXPECT_EQ(mm.page_table().Info(5).pins, 1u);
  EXPECT_EQ(mm.stats().chunk_partials, 1u);
  mm.CompleteFetch(5);
  EXPECT_EQ(mm.page_table().Info(5).pins, 0u);
}

TEST(ChunkFetch, ChunkReadyAfterSettleIsANoOp) {
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 64, 16);
  mm.BeginFetch(4);
  mm.CompleteFetch(4);
  mm.ChunkReady(4);  // Straggler partial after the tail already mapped.
  const PageInfo info = mm.page_table().Info(4);
  EXPECT_EQ(info.state, PageWordState::kPresent);
  EXPECT_FALSE(info.partial);
  EXPECT_EQ(info.pins, 0u);
  EXPECT_EQ(mm.stats().chunk_partials, 0u);
}

TEST(ChunkFetch, AbortAfterChunkReadyRollsBackWithoutLeaks) {
  // Retry exhaustion (or a failover reroute) can kill a fetch whose critical
  // chunk already landed: the rollback must drop the ChunkReady pin, clear
  // the partial bit, fail the still-registered waiters, and return the
  // frame — the state the invariant checker's "kPartial leaked past
  // transfer" audit guards.
  Engine e;
  MemoryManager mm(&e, PagingConfig{}, 64, 16);
  const uint64_t free_before = mm.free_frames();
  mm.BeginFetch(7);
  std::vector<bool> outcomes;
  mm.AddFetchWaiter(7, [&](bool ok) { outcomes.push_back(ok); });
  mm.AddFetchWaiter(7, [&](bool ok) { outcomes.push_back(ok); }, /*early=*/true);
  mm.ChunkReady(7);
  ASSERT_EQ(outcomes, (std::vector<bool>{true}));  // Early waiter resumed.

  mm.AbortFetch(7);
  EXPECT_EQ(outcomes, (std::vector<bool>{true, false}));
  const PageInfo info = mm.page_table().Info(7);
  EXPECT_EQ(info.state, PageWordState::kRemote);
  EXPECT_FALSE(info.partial);
  EXPECT_EQ(info.pins, 0u);
  EXPECT_EQ(mm.free_frames(), free_before);
  EXPECT_EQ(mm.stats().fetch_aborts, 1u);
  // The page is fetchable again afterwards.
  mm.BeginFetch(7);
  mm.CompleteFetch(7);
  EXPECT_EQ(mm.StateOf(7), PageState::kPresent);
}

}  // namespace
}  // namespace adios
