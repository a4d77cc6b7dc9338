// Completion queues (CQs) and work completions.
//
// A CQ can serve multiple QPs — the property Adios' polling delegation
// exploits (§3.4): a worker's TX QP can steer its completions to the
// dispatcher's CQ so the worker never polls for transmit completions.

#ifndef ADIOS_SRC_RDMA_COMPLETION_H_
#define ADIOS_SRC_RDMA_COMPLETION_H_

#include <cstdint>
#include <functional>

#include "src/base/fifo.h"
#include "src/base/time.h"

namespace adios {

enum class WorkType : uint8_t {
  kRead = 0,   // One-sided READ (page fetch) completed.
  kWrite = 1,  // One-sided WRITE (page write-back) completed.
  kSend = 2,   // Raw-Ethernet transmit completed.
  kRecv = 3,   // Raw-Ethernet receive.
};

// Completion status. The ideal fabric only produces kSuccess; the fault
// injector surfaces lost/NAKed WQEs as completions-with-error, mirroring how
// an RC QP reports transport failures (ibv_wc_status).
enum class CompletionStatus : uint8_t {
  kSuccess = 0,
  kRnrNak = 1,         // Receiver-not-ready NAK (IBV_WC_RNR_RETRY_EXC_ERR).
  kRetryExceeded = 2,  // Transport retries exhausted (IBV_WC_RETRY_EXC_ERR).
};

struct Completion {
  uint64_t wr_id = 0;
  uint32_t qp_id = 0;
  WorkType type = WorkType::kRead;
  SimTime completed_at = 0;
  CompletionStatus status = CompletionStatus::kSuccess;
  // Memory node that served the one-sided WQE (always 0 for sends and on a
  // single-node fabric). Requesters feed this to the node-health monitor.
  uint32_t node = 0;
  // Critical-chunk-first delivery (docs/QOS.md): true for the early
  // completion announcing that a chunked READ's first chunk landed. Partial
  // completions bypass the outstanding/completions counters exactly like
  // the fault injector's duplicates — the WQE retires only when the tail's
  // (final, partial=false) completion arrives.
  bool partial = false;

  bool ok() const { return status == CompletionStatus::kSuccess; }
};

class CompletionQueue {
 public:
  explicit CompletionQueue(uint32_t id) : id_(id) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  uint32_t id() const { return id_; }

  void Push(const Completion& c) {
    entries_.push_back(c);
    if (on_push_) {
      on_push_();
    }
  }

  // Pops at most `max_n` completions into `out`; returns the number popped.
  // The *caller* charges CPU polling cost — the CQ itself is passive memory.
  template <typename OutIt>
  size_t Poll(size_t max_n, OutIt out) {
    size_t n = 0;
    while (n < max_n && !entries_.empty()) {
      *out++ = entries_.front();
      entries_.pop_front();
      ++n;
    }
    return n;
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Hook invoked on every push; the scheduler uses it to wake a sleeping
  // poller (simulation stand-in for "the poller would have seen it anyway").
  void set_on_push(std::function<void()> fn) { on_push_ = std::move(fn); }

 private:
  uint32_t id_;
  Fifo<Completion> entries_;
  std::function<void()> on_push_;
};

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_COMPLETION_H_
