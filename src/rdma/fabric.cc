#include "src/rdma/fabric.h"

#include <algorithm>
#include <string>

namespace adios {

namespace {

FairLink::Discipline LinkDiscipline(const FabricParams& params) {
  return params.fifo_links ? FairLink::Discipline::kFifo
                           : FairLink::Discipline::kRoundRobin;
}

std::string NodeLinkName(const char* base, uint32_t index) {
  // Node 0 keeps the historical bare names so single-node debug output (and
  // anything keyed on link names) is unchanged.
  return index == 0 ? std::string(base) : std::string(base) + std::to_string(index);
}

}  // namespace

RdmaFabric::MemNode::MemNode(Engine* engine, const FabricParams& params, uint32_t index)
    : c2m(engine, NodeLinkName("c2m", index), params.link_gbps, 0, LinkDiscipline(params)),
      m2c(engine, NodeLinkName("m2c", index), params.link_gbps, 0, LinkDiscipline(params)) {}

RdmaFabric::RdmaFabric(Engine* engine, const FabricParams& params, uint32_t num_nodes)
    : engine_(engine),
      params_(params),
      wqe_engine_(engine, "wqe-engine", /*gbps=*/0.0, params.wqe_process_ns,
                  LinkDiscipline(params)),
      client_tx_link_(engine, "client-tx", kClientLinkGbps),
      client_rx_link_(engine, "client-rx", kClientLinkGbps) {
  ADIOS_CHECK(num_nodes >= 1);
  nodes_.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<MemNode>(engine, params, i));
  }
  client_rx_flow_ = client_rx_link_.AddFlow();
  // QoS scheduler (docs/QOS.md): the compute NIC's WQE engine and every node
  // link pair get `link_classes` prioritized WDRR queues (one when off). The
  // client-facing links carry exactly one kind of traffic each and keep one.
  wqe_engine_.EnableClasses(params_.link_classes, kClassWeights);
  for (auto& node : nodes_) {
    node->c2m.EnableClasses(params_.link_classes, kClassWeights);
    node->m2c.EnableClasses(params_.link_classes, kClassWeights);
  }
}

void RdmaFabric::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  if (params_.link_classes <= 1) {
    return;  // A one-queue link makes no class decision to trace.
  }
  auto hook = [this](uint32_t cls, uint64_t /*bytes*/) {
    tracer_->Record(engine_->now(), 0, TraceEvent::kClassDequeue, cls);
  };
  for (auto& node : nodes_) {
    node->c2m.set_dequeue_hook(hook);
    node->m2c.set_dequeue_hook(hook);
  }
}

uint64_t RdmaFabric::SumClassCounter(LinkClassCounter counter, TrafficClass cls) const {
  const auto c = static_cast<uint32_t>(cls);
  uint64_t n = (wqe_engine_.*counter)(c);
  for (const auto& node : nodes_) {
    n += (node->c2m.*counter)(c) + (node->m2c.*counter)(c);
  }
  return n;
}

CompletionQueue* RdmaFabric::CreateCq() {
  cqs_.push_back(std::make_unique<CompletionQueue>(static_cast<uint32_t>(cqs_.size())));
  return cqs_.back().get();
}

QueuePair* RdmaFabric::CreateQp(CompletionQueue* cq) {
  ADIOS_CHECK(cq != nullptr);
  const uint32_t id = static_cast<uint32_t>(qps_.size());
  // The same flow id indexes this QP on every RR stage it traverses,
  // including each memory node's link pair.
  const uint32_t flow = wqe_engine_.AddFlow();
  for (auto& node : nodes_) {
    const uint32_t f2 = node->c2m.AddFlow();
    const uint32_t f3 = node->m2c.AddFlow();
    ADIOS_CHECK(flow == f2 && flow == f3);
  }
  const uint32_t f4 = client_tx_link_.AddFlow();
  ADIOS_CHECK(flow == f4);
  qps_.push_back(std::make_unique<QueuePair>(this, id, flow, cq, params_.qp_depth));
  return qps_.back().get();
}

bool QueuePair::PostRead(uint64_t bytes, uint64_t wr_id, uint32_t node, TrafficClass cls) {
  const ReadOp op{wr_id, node, cls};
  return PostReadBatch(bytes, &op, 1) == 1;
}

size_t QueuePair::PostReadBatch(uint64_t bytes, const ReadOp* ops, size_t n) {
  size_t size = 0;
  while (size < n && size < kMaxReadBatch && !full()) {
    ADIOS_DCHECK(ops[size].node < fabric_->num_nodes());
    ++outstanding_;
    ++posted_reads_;
    ++size;
  }
  if (size == 0) {
    return 0;
  }
  doorbells_saved_ += size - 1;
  fabric_->IssueReadBatch(this, bytes, ops, size);
  return size;
}

bool QueuePair::PostWrite(uint64_t bytes, uint64_t wr_id, uint32_t node, TrafficClass cls) {
  if (full()) {
    return false;
  }
  ADIOS_DCHECK(node < fabric_->num_nodes());
  ++outstanding_;
  ++posted_writes_;
  fabric_->IssueWrite(this, bytes, wr_id, node, cls);
  return true;
}

void QueuePair::Complete(uint64_t wr_id, WorkType type, CompletionStatus status,
                         uint32_t node) {
  ADIOS_DCHECK(outstanding_ > 0);
  --outstanding_;
  ++completions_;
  cq_->Push(Completion{wr_id, id_, type, fabric_->engine()->now(), status, node});
}

FaultInjector::Verdict RdmaFabric::DrawVerdict(WorkType type, uint64_t wr_id,
                                               uint32_t node) {
  FaultInjector* injector = nodes_[node]->injector;
  if (injector == nullptr) {
    return {};  // Ideal node: deliver, with no RNG draw.
  }
  const FaultInjector::Verdict v = injector->Classify(type, engine_->now());
  if (v.action == FaultInjector::Action::kCorrupt && corrupt_hook_) {
    // Silent corruption: timing-wise a perfect delivery (a READ's payload or
    // a WRITE's stored page is wrong). Only the ledger, and an end-to-end
    // checksum, knows.
    corrupt_hook_(wr_id, node, type);
  }
  return v;
}

bool RdmaFabric::FailOnWire(QueuePair* qp, const FaultInjector::Verdict& v, WorkType type,
                            uint64_t wire_bytes, uint64_t wr_id, uint32_t node,
                            TrafficClass cls) {
  if (v.action != FaultInjector::Action::kDrop && v.action != FaultInjector::Action::kNack) {
    return false;
  }
  // Either way the request serializes on c2m.
  FairLink& c2m = nodes_[node]->c2m;
  if (v.action == FaultInjector::Action::kDrop) {
    // Lost on the wire or at a dead memory node: no response ever comes. The
    // transport layer gives up kDropDetectNs after wire entry and flushes
    // the WQE as a completion-with-error.
    c2m.Enqueue(qp->flow_id(), wire_bytes, [] {}, cls);
    engine_->Schedule(FaultInjector::kDropDetectNs, [qp, wr_id, type, node] {
      qp->Complete(wr_id, type, CompletionStatus::kRetryExceeded, node);
    });
    return true;
  }
  // The memory node answers receiver-not-ready: no DMA, no payload, just a
  // NAK surfacing one short RTT after the request serialized.
  c2m.Enqueue(qp->flow_id(), wire_bytes,
              [this, qp, wr_id, type, node] {
                engine_->Schedule(FaultInjector::kNackRttNs, [qp, wr_id, type, node] {
                  qp->Complete(wr_id, type, CompletionStatus::kRnrNak, node);
                });
              },
              cls);
  return true;
}

SimDuration RdmaFabric::DmaNs(uint32_t node) const {
  // Brownout: the DMA engine is rate-limited while the window is open.
  const FaultInjector* injector = nodes_[node]->injector;
  const SimDuration base = kRemoteDmaNs;
  return injector == nullptr ? base : base + injector->DmaPenaltyNs(engine_->now(), base);
}

void RdmaFabric::IssueReadWire(QueuePair* qp, uint64_t bytes, const ReadOp& op) {
  // Fault classification precedes chunking: a dropped or NAKed READ fails as
  // one unit regardless of chunk_bytes (the request header never produced a
  // response), so retry semantics are unchanged by QoS delivery.
  const FaultInjector::Verdict v = DrawVerdict(WorkType::kRead, op.wr_id, op.node);
  if (FailOnWire(qp, v, WorkType::kRead, kHeaderBytes, op.wr_id, op.node, op.cls)) {
    return;
  }
  ReadLag lag;
  if (v.action == FaultInjector::Action::kDelay ||
      v.action == FaultInjector::Action::kDuplicate) {
    lag.ns = v.extra_ns;
    lag.duplicate = v.action == FaultInjector::Action::kDuplicate;
  }
  nodes_[op.node]->c2m.Enqueue(qp->flow_id(), kHeaderBytes,
                               Stage([this, qp, bytes, op, lag] {
    // Compression (docs/QOS.md): the memory node compresses the payload
    // before it enters the wire, charged on the remote DMA timeline.
    engine_->Schedule(kWireLatencyNs + DmaNs(op.node) + lag.spike() + CompressNs(bytes),
                      Stage([this, qp, bytes, op, dup_lag = lag.dup_lag()] {
                        DeliverReadPayload(qp, bytes, op.wr_id, op.node, op.cls, dup_lag);
                      }));
  }), op.cls);
}

void RdmaFabric::DeliverReadPayload(QueuePair* qp, uint64_t bytes, uint64_t wr_id,
                                    uint32_t node, TrafficClass cls, SimDuration dup_lag) {
  const uint32_t flow = qp->flow_id();
  const uint64_t hdr = kHeaderBytes;
  auto final_done = Stage([this, qp, wr_id, dup_lag, node] {
    engine_->Schedule(kWireLatencyNs + kCqeDeliverNs,
                      Stage([this, qp, wr_id, dup_lag, node] {
                        qp->Complete(wr_id, WorkType::kRead, CompletionStatus::kSuccess,
                                     node);
                        if (dup_lag > 0) {
                          // Retransmit race: the same response lands twice. The
                          // duplicate bypasses the outstanding counter (the WQE
                          // already retired) — requesters must deduplicate. A
                          // chunked READ duplicates only its final completion.
                          engine_->Schedule(dup_lag, [this, qp, wr_id, node] {
                            qp->cq()->Push(Completion{wr_id, qp->id(), WorkType::kRead,
                                                      engine_->now(),
                                                      CompletionStatus::kSuccess, node});
                          });
                        }
                      }));
  });
  if (!ChunkingApplies(bytes, cls)) {
    nodes_[node]->m2c.Enqueue(flow, WireBytes(bytes) + hdr, final_done, cls);
    return;
  }
  // Critical-chunk-first (docs/QOS.md): the chunk holding the faulting
  // cacheline ships first at demand priority; its arrival pushes a *partial*
  // completion that bypasses the outstanding/completions counters (like a
  // duplicate) so the faulting unithread can resume early. The rest of the
  // page streams behind it at prefetch priority; only the tail's completion
  // retires the WQE. Each message pays its own header (it is a separate wire
  // transaction).
  const uint64_t chunk = params_.chunk_bytes;
  nodes_[node]->m2c.Enqueue(flow, WireBytes(chunk) + hdr, [this, qp, wr_id, node] {
    engine_->Schedule(kWireLatencyNs + kCqeDeliverNs,
                      [this, qp, wr_id, node] {
                        qp->cq()->Push(Completion{wr_id, qp->id(), WorkType::kRead,
                                                  engine_->now(), CompletionStatus::kSuccess,
                                                  node, /*partial=*/true});
                      });
  }, cls);
  nodes_[node]->m2c.Enqueue(flow, WireBytes(bytes - chunk) + hdr, final_done,
                            TrafficClass::kPrefetch);
}

void RdmaFabric::IssueReadBatch(QueuePair* qp, uint64_t bytes, const ReadOp* ops,
                                size_t size) {
  uint32_t batch = 0;
  if (free_batches_.empty()) {
    batch = static_cast<uint32_t>(batch_pool_.size());
    batch_pool_.emplace_back();
  } else {
    batch = free_batches_.back();
    free_batches_.pop_back();
  }
  std::copy(ops, ops + size, batch_pool_[batch].ops.begin());
  batch_pool_[batch].size = static_cast<uint32_t>(size);
  // One WQE-engine pass covers the whole batch (the doorbell amortization —
  // the doorbell itself is class-agnostic, so a mixed-class batch shares it);
  // the ops then enter the wire in posting order, demand READ first, each
  // paying its own link serialization, DMA, and CQE delivery on its own
  // traffic class.
  wqe_engine_.Enqueue(qp->flow_id(), 0, Stage([this, qp, bytes, batch] {
    // Copy the batch out and free its pool entry before the wire stages run.
    const ReadBatch b = batch_pool_[batch];
    free_batches_.push_back(batch);
    for (uint32_t i = 0; i < b.size; ++i) {
      IssueReadWire(qp, bytes, b.ops[i]);
    }
  }), ops[0].cls);
}

void RdmaFabric::IssueWrite(QueuePair* qp, uint64_t bytes, uint64_t wr_id, uint32_t node,
                            TrafficClass cls) {
  wqe_engine_.Enqueue(qp->flow_id(), 0, Stage([this, qp, bytes, wr_id, node, cls] {
    IssueWriteWire(qp, bytes, wr_id, node, cls);
  }), cls);
}

void RdmaFabric::IssueWriteWire(QueuePair* qp, uint64_t bytes, uint64_t wr_id,
                                uint32_t node, TrafficClass cls) {
  const FaultInjector::Verdict v = DrawVerdict(WorkType::kWrite, wr_id, node);
  // WRITE payload travels compute -> memory node (compressed on the wire
  // when link compression is on; the compute NIC compresses before the link,
  // the memory node decompresses on its DMA timeline). A lost WRITE still
  // burns its c2m bandwidth.
  const uint64_t wire_bytes = WireBytes(bytes) + kHeaderBytes;
  if (FailOnWire(qp, v, WorkType::kWrite, wire_bytes, wr_id, node, cls)) {
    return;
  }
  const SimDuration spike = v.action == FaultInjector::Action::kDelay ? v.extra_ns : 0;
  nodes_[node]->c2m.Enqueue(qp->flow_id(), wire_bytes,
                            Stage([this, qp, bytes, wr_id, node, cls, spike] {
    engine_->Schedule(kWireLatencyNs + DmaNs(node) + spike + CompressNs(bytes),
                      Stage([this, qp, wr_id, node, cls] {
                        // Small ack back to the requester.
                        nodes_[node]->m2c.Enqueue(qp->flow_id(), kHeaderBytes,
                                                  Stage([this, qp, wr_id, node] {
                          engine_->Schedule(kWireLatencyNs + kCqeDeliverNs, [qp, wr_id, node] {
                            qp->Complete(wr_id, WorkType::kWrite, CompletionStatus::kSuccess, node);
                          });
                        }), cls);
                      }));
  }), cls);
}

void RdmaFabric::ClientInject(uint64_t bytes, std::function<void()> deliver) {
  client_rx_link_.Enqueue(client_rx_flow_, bytes + kHeaderBytes,
                          Stage([this, deliver = std::move(deliver)]() mutable {
                            engine_->Schedule(kClientWireLatencyNs, std::move(deliver));
                          }));
}

void RdmaFabric::MarkUtilizationWindow() {
  for (auto& node : nodes_) {
    node->c2m.MarkWindow();
    node->m2c.MarkWindow();
  }
  client_tx_link_.MarkWindow();
  client_rx_link_.MarkWindow();
}

double RdmaFabric::RdmaUtilization() const {
  // Fetches dominate; report the busier direction, averaged over nodes so
  // the figure stays "fraction of per-link capacity" regardless of N.
  double up = 0.0;
  double down = 0.0;
  for (const auto& node : nodes_) {
    up += node->c2m.WindowUtilization();
    down += node->m2c.WindowUtilization();
  }
  up /= static_cast<double>(nodes_.size());
  down /= static_cast<double>(nodes_.size());
  return up > down ? up : down;
}

uint32_t RdmaFabric::TotalOutstanding() const {
  uint32_t n = 0;
  for (const auto& qp : qps_) {
    n += qp->outstanding();
  }
  return n;
}

uint64_t RdmaFabric::TotalPosted() const {
  uint64_t n = 0;
  for (const auto& qp : qps_) {
    n += qp->posted_reads() + qp->posted_writes() + qp->posted_sends();
  }
  return n;
}

uint64_t RdmaFabric::TotalCompletions() const {
  uint64_t n = 0;
  for (const auto& qp : qps_) {
    n += qp->completions();
  }
  return n;
}

}  // namespace adios
