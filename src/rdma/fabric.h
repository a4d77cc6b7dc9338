// The simulated RDMA fabric: compute-node NIC, N memory-node NICs, and the
// 100 GbE links between compute node, memory nodes, and load generator.
//
// Pipeline for a one-sided READ (page fetch) posted on QP q toward node n:
//
//   post -> [WQE engine: RR over QPs, fixed cost]       (compute NIC)
//        -> wire entry: node n's fault verdict is drawn (kDeliver when ideal)
//        -> [node n c2m link: request header serialization]
//        -> wire latency + memory-node DMA read
//        -> [node n m2c link: RR over QPs, payload serialization]   <- the contended hop
//        -> wire latency + CQE delivery
//        -> completion appended to q's CQ
//
// Every op takes this one path; a doorbell batch shares the WQE-engine pass
// and a drop/NAK verdict ends the path after the c2m stage. Every memory node
// owns its own link pair, DMA engine timing, and (optional) fault injector,
// so a blackout or brownout on one node leaves the others ideal. The WQE
// engine and the client-facing links model the *compute* NIC and stay
// shared. WRITEs (page write-back) carry their payload on the c2m link and
// get a small ack back. Raw-Ethernet sends to the load generator use the
// client link; their transmit completions are steered to a selectable CQ,
// which is the mechanism behind polling delegation.

#ifndef ADIOS_SRC_RDMA_FABRIC_H_
#define ADIOS_SRC_RDMA_FABRIC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/rdma/completion.h"
#include "src/rdma/fair_link.h"
#include "src/rdma/fault_injector.h"
#include "src/rdma/params.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace adios {

class RdmaFabric;

// One READ of a doorbell-batched post (PostReadBatch): its completion
// identity, target memory node, and traffic class. Payload size is shared
// batch-wide (page fetches are uniform). A batch may span traffic classes
// (the doorbell is class-agnostic, like a real NIC's); the split is
// deterministic — each op serves its own class on every wire stage, in
// posting order within a class.
struct ReadOp {
  uint64_t wr_id = 0;
  uint32_t node = 0;
  TrafficClass cls = TrafficClass::kDemand;
};

// A queue pair. Owns nothing but its identity and counters; the fabric
// executes the datapath.
class QueuePair {
 public:
  QueuePair(RdmaFabric* fabric, uint32_t id, uint32_t flow_id, CompletionQueue* cq,
            uint32_t depth)
      : fabric_(fabric), id_(id), flow_id_(flow_id), cq_(cq), depth_(depth) {}

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  uint32_t id() const { return id_; }
  uint32_t flow_id() const { return flow_id_; }

  // The most READs one doorbell rings.
  static constexpr size_t kMaxReadBatch = 8;

  // One-sided READ of `bytes` from memory node `node`: a doorbell batch of
  // one. Returns false when the send queue is full (depth_ WQEs already
  // outstanding). `cls` tags the WQE's traffic class for the link scheduler
  // (docs/QOS.md).
  bool PostRead(uint64_t bytes, uint64_t wr_id, uint32_t node = 0,
                TrafficClass cls = TrafficClass::kDemand);

  // Doorbell-batched READs (DaeMon-style, docs/PREFETCH.md): up to
  // kMaxReadBatch WQEs posted with ONE doorbell ring — the batch pays a
  // single pass through the compute NIC's WQE engine, then each op runs the
  // READ wire stage in order and retires its own CQE. Accepts the longest
  // prefix of `ops[0, n)` that fits in the send queue and in one doorbell,
  // and returns its length (0 when full).
  size_t PostReadBatch(uint64_t bytes, const ReadOp* ops, size_t n);

  // One-sided WRITE of `bytes` to memory node `node` (page write-back).
  bool PostWrite(uint64_t bytes, uint64_t wr_id, uint32_t node = 0,
                 TrafficClass cls = TrafficClass::kDemand);

  // The absent `on_delivered` of PostSend: no delivery event is scheduled.
  struct NoDelivery {
    void operator()() const {}
  };

  // Raw-Ethernet transmit of `bytes` to the load generator. `on_delivered`
  // (optional; any callable invocable as on_delivered()) runs when the
  // load-generator side sees the packet, one wire latency after its last
  // bit leaves the NIC. A capture of up to 16 bytes keeps the whole send
  // allocation-free.
  template <typename F = NoDelivery>
  bool PostSend(uint64_t bytes, uint64_t wr_id, F&& on_delivered = {});

  uint32_t outstanding() const { return outstanding_; }
  uint32_t depth() const { return depth_; }
  bool full() const { return outstanding_ >= depth_; }

  CompletionQueue* cq() { return cq_; }
  // Re-steers future completions (polling delegation).
  void set_cq(CompletionQueue* cq) { cq_ = cq; }

  uint64_t posted_reads() const { return posted_reads_; }
  uint64_t posted_writes() const { return posted_writes_; }
  uint64_t posted_sends() const { return posted_sends_; }
  // Doorbell rings avoided by batching: sum over batches of (size - 1).
  uint64_t doorbells_saved() const { return doorbells_saved_; }
  // Completions that retired a WQE. The fault injector's duplicated
  // completions bypass this (and `outstanding`) by design, so
  //   posted_reads + posted_writes + posted_sends == completions + outstanding
  // holds even under injection (audited by src/check/invariant_checker.cc).
  uint64_t completions() const { return completions_; }

 private:
  friend class RdmaFabric;

  void Complete(uint64_t wr_id, WorkType type,
                CompletionStatus status = CompletionStatus::kSuccess,
                uint32_t node = 0);

  RdmaFabric* fabric_;
  uint32_t id_;
  uint32_t flow_id_;
  CompletionQueue* cq_;
  uint32_t depth_;
  uint32_t outstanding_ = 0;
  uint64_t posted_reads_ = 0;
  uint64_t posted_writes_ = 0;
  uint64_t posted_sends_ = 0;
  uint64_t completions_ = 0;
  uint64_t doorbells_saved_ = 0;
};

class RdmaFabric {
 public:
  RdmaFabric(Engine* engine, const FabricParams& params, uint32_t num_nodes = 1);

  RdmaFabric(const RdmaFabric&) = delete;
  RdmaFabric& operator=(const RdmaFabric&) = delete;

  Engine* engine() { return engine_; }
  const FabricParams& params() const { return params_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }

  CompletionQueue* CreateCq();
  // Creates a QP whose completions go to `cq`. The QP can reach every memory
  // node (one flow per per-node link, same flow id everywhere).
  QueuePair* CreateQp(CompletionQueue* cq);

  // Injects a request packet from the load generator toward the compute
  // node: client-link serialization + wire latency, then `deliver` runs
  // (the scheduler pushes into its RX ring there).
  void ClientInject(uint64_t bytes, std::function<void()> deliver);

  // The fetch-direction (memory node -> compute) RDMA link; its utilization
  // is what the paper plots in Figs. 2(e)/7(e).
  FairLink& rdma_response_link(uint32_t node = 0) { return nodes_[node]->m2c; }
  FairLink& rdma_request_link(uint32_t node = 0) { return nodes_[node]->c2m; }

  void MarkUtilizationWindow();
  // Combined RDMA traffic (both directions) relative to aggregate link
  // capacity; fetch-dominated workloads make this ~= response-link
  // utilization. With several nodes this is the mean over nodes of the
  // busier direction, so a 1-node fabric reports exactly what it used to.
  double RdmaUtilization() const;

  // Total outstanding one-sided operations across all QPs.
  uint32_t TotalOutstanding() const;
  // Work-conservation counters across all QPs (invariant checker).
  uint64_t TotalPosted() const;
  uint64_t TotalCompletions() const;

  // Installs (or clears) a fault injector on memory node `node`. Null = the
  // ideal fabric: every op on the node draws the default kDeliver verdict
  // (no RNG draw, no spike, no DMA penalty). One-sided READs/WRITEs consult
  // the target node's injector as they leave the WQE engine; the
  // client-facing Raw-Ethernet links stay ideal (the paper's fault surface
  // is the memory-node fabric).
  void set_node_fault_injector(uint32_t node, FaultInjector* injector) {
    nodes_[node]->injector = injector;
  }
  // Back-compat single-node aliases (node 0).
  void set_fault_injector(FaultInjector* injector) { set_node_fault_injector(0, injector); }
  FaultInjector* fault_injector(uint32_t node = 0) { return nodes_[node]->injector; }

  // Fires when an injector classifies a WQE kCorrupt: the operation runs the
  // normal success pipeline (no error, no extra latency) but its payload is
  // wrong. The integrity layer records the (wr_id, node, type) so the
  // completion's consumer can find out — the fabric itself never touches
  // payload bytes (RemoteRegion is the single ground-truth array).
  void set_corrupt_hook(std::function<void(uint64_t, uint32_t, WorkType)> hook) {
    corrupt_hook_ = std::move(hook);
  }

  // Records kClassDequeue events (request id 0, arg = class) for every
  // class-scheduler grant on the shared RDMA links. Installed only when
  // `link_classes` > 1: a one-queue link makes no class decision.
  void set_tracer(Tracer* tracer);

  // Per-class link accounting: one of FairLink's class_* counters summed
  // over the WQE engine and every node's link pair, keyed by each op's own
  // class (so exact with classes off). Backs the `link.class_*` metrics.
  using LinkClassCounter = uint64_t (FairLink::*)(uint32_t) const;
  uint64_t SumClassCounter(LinkClassCounter counter, TrafficClass cls) const;

 private:
  friend class QueuePair;

  // One memory node: its own link pair toward/from the compute NIC and an
  // optional fault injector. FairLink is non-copyable, so nodes live behind
  // unique_ptrs.
  struct MemNode {
    MemNode(Engine* engine, const FabricParams& params, uint32_t index);
    FairLink c2m;  // Compute -> this memory node.
    FairLink m2c;  // This memory node -> compute (fetch payloads).
    FaultInjector* injector = nullptr;
  };

  // A doorbell batch waiting for its WQE-engine pass. It lives in the
  // fabric's batch pool and the engine stage captures only its index, so
  // posting a batch allocates nothing once the pool is warm.
  struct ReadBatch {
    std::array<ReadOp, QueuePair::kMaxReadBatch> ops;
    uint32_t size = 0;
  };

  // A delivered READ's extra latency from its fault verdict, in one word: a
  // delay spike before the remote DMA, or the lag of a duplicated final
  // completion (the two verdicts are exclusive).
  struct ReadLag {
    uint64_t ns : 63 = 0;
    uint64_t duplicate : 1 = 0;
    SimDuration spike() const { return duplicate ? 0 : ns; }
    SimDuration dup_lag() const { return duplicate ? ns : 0; }
  };
  static_assert(sizeof(ReadLag) == 8, "a READ's verdict lag is one word");

  // Every stage of an op's pipeline keeps its capture within an engine
  // slot's inline storage, so an op allocates nothing.
  template <typename F>
  static F&& Stage(F&& fn) {
    static_assert(Engine::kFitsInline<std::decay_t<F>>, "fabric stage captures stay inline");
    return std::forward<F>(fn);
  }

  template <typename F>
  void IssueSend(QueuePair* qp, uint64_t bytes, uint64_t wr_id, F&& on_delivered);
  // READs: one WQE-engine pass for the whole batch `ops[0, size)`, then the
  // wire stage of each op in posting order.
  void IssueReadBatch(QueuePair* qp, uint64_t bytes, const ReadOp* ops, size_t size);
  // The READ wire stage (c2m onward), entered as the op leaves the WQE
  // engine: draws the node's verdict, then request header -> remote DMA ->
  // payload delivery, or the verdict's drop/NAK.
  void IssueReadWire(QueuePair* qp, uint64_t bytes, const ReadOp& op);
  // WRITEs: one WQE-engine pass, then the WRITE wire stage (verdict, payload
  // on c2m, remote DMA, ack on m2c).
  void IssueWrite(QueuePair* qp, uint64_t bytes, uint64_t wr_id, uint32_t node,
                  TrafficClass cls);
  void IssueWriteWire(QueuePair* qp, uint64_t bytes, uint64_t wr_id, uint32_t node,
                      TrafficClass cls);

  // The verdict for one op entering `node`'s wire: kDeliver on an ideal node,
  // else one injector draw (a kCorrupt verdict fires the corrupt hook).
  FaultInjector::Verdict DrawVerdict(WorkType type, uint64_t wr_id, uint32_t node);
  // Applies a kDrop or kNack verdict — the request's `wire_bytes` still
  // serialize on c2m, then an error completion — and returns true; returns
  // false for every verdict that delivers.
  bool FailOnWire(QueuePair* qp, const FaultInjector::Verdict& v, WorkType type,
                  uint64_t wire_bytes, uint64_t wr_id, uint32_t node, TrafficClass cls);
  // Remote DMA time for an op starting now on `node` (brownout-penalized).
  SimDuration DmaNs(uint32_t node) const;

  // READ payload delivery tail (m2c serialization -> wire -> CQE). When
  // critical-chunk-first applies, the payload splits into a demand-priority
  // critical chunk whose arrival pushes a *partial* completion (bypassing
  // the outstanding counter, like a duplicate) and a tail message at
  // prefetch priority whose arrival retires the WQE; `dup_lag` > 0
  // additionally duplicates the final completion (injector retransmit race).
  void DeliverReadPayload(QueuePair* qp, uint64_t bytes, uint64_t wr_id, uint32_t node,
                          TrafficClass cls, SimDuration dup_lag);

  // True when this READ is split for critical-chunk-first delivery.
  bool ChunkingApplies(uint64_t bytes, TrafficClass cls) const {
    return params_.chunk_bytes > 0 && cls == TrafficClass::kDemand &&
           bytes > params_.chunk_bytes;
  }
  // Payload bytes on the wire after optional link-level compression.
  uint64_t WireBytes(uint64_t payload) const {
    if (params_.compress_gbps <= 0.0) {
      return payload;
    }
    const auto compressed =
        static_cast<uint64_t>(static_cast<double>(payload) * FabricParams::kCompressRatio + 0.5);
    return compressed > 0 ? compressed : 1;
  }
  // (De)compression engine time for `payload` (0 while compression is off).
  SimDuration CompressNs(uint64_t payload) const {
    if (params_.compress_gbps <= 0.0) {
      return 0;
    }
    return FabricParams::SerializationNs(payload, params_.compress_gbps);
  }

  Engine* engine_;
  FabricParams params_;
  FairLink wqe_engine_;      // Compute-NIC requester engine (shared).
  std::vector<std::unique_ptr<MemNode>> nodes_;
  FairLink client_tx_link_;  // Compute -> load generator (replies).
  FairLink client_rx_link_;  // Load generator -> compute (requests).
  uint32_t client_rx_flow_;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::vector<ReadBatch> batch_pool_;    // Batches in their WQE-engine pass.
  std::vector<uint32_t> free_batches_;  // Free batch_pool_ indices.
  std::function<void(uint64_t, uint32_t, WorkType)> corrupt_hook_;
  Tracer* tracer_ = Tracer::Off();
};

template <typename F>
bool QueuePair::PostSend(uint64_t bytes, uint64_t wr_id, F&& on_delivered) {
  if (full()) {
    return false;
  }
  ++outstanding_;
  ++posted_sends_;
  fabric_->IssueSend(this, bytes, wr_id, std::forward<F>(on_delivered));
  return true;
}

template <typename F>
void RdmaFabric::IssueSend(QueuePair* qp, uint64_t bytes, uint64_t wr_id, F&& on_delivered) {
  using Fn = std::decay_t<F>;
  wqe_engine_.Enqueue(
      qp->flow_id(), 0,
      Stage([this, qp, bytes, wr_id, on_delivered = Fn(std::forward<F>(on_delivered))]() mutable {
        engine_->Schedule(kTxDmaNs, Stage([this, qp, bytes, wr_id,
                                           on_delivered = std::move(on_delivered)]() mutable {
          client_tx_link_.Enqueue(
              qp->flow_id(), bytes + kHeaderBytes,
              Stage([this, qp, wr_id, on_delivered = std::move(on_delivered)]() mutable {
                // TX completion: last bit left the NIC.
                engine_->Schedule(kCqeDeliverNs,
                                  [qp, wr_id] { qp->Complete(wr_id, WorkType::kSend); });
                // Receiver sees the packet one wire latency later.
                if constexpr (!std::is_same_v<Fn, QueuePair::NoDelivery>) {
                  engine_->Schedule(kClientWireLatencyNs, std::move(on_delivered));
                }
              }));
        }));
      }));
}

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_FABRIC_H_
