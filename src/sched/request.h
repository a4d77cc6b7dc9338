// Networked request representation and per-request accounting.

#ifndef ADIOS_SRC_SCHED_REQUEST_H_
#define ADIOS_SRC_SCHED_REQUEST_H_

#include <cstdint>

#include "src/base/time.h"

namespace adios {

struct Request {
  uint64_t id = 0;
  // Originating tenant (client class), used by the admission controller's
  // per-tenant token buckets (docs/OVERLOAD.md). The load generator sends
  // every request as tenant 0.
  uint32_t tenant = 0;

  // Application payload (interpreted by the app's request handler).
  uint32_t op = 0;
  uint64_t key = 0;
  uint32_t scan_len = 0;
  uint64_t result = 0;  // Handler-computed answer, checked by the load generator.

  uint32_t request_bytes = 64;
  uint32_t reply_bytes = 64;

  // Timestamps (simulated ns). gen/reply are the load generator's TX/RX
  // hardware timestamps; e2e latency = reply_time - gen_time.
  SimTime gen_time = 0;
  SimTime arrive_time = 0;   // Entered the compute node's RX ring.
  SimTime start_time = 0;    // Unithread first ran.
  SimTime finish_time = 0;   // Handler finished (reply posted).
  SimTime reply_time = 0;

  // Server-side latency components (ns).
  uint64_t rdma_wait_ns = 0;  // Blocked on this request's own page fetches.
  uint64_t busy_wait_ns = 0;  // Portion of rdma_wait spent busy-waiting.
  uint64_t tx_wait_ns = 0;    // Synchronous reply-transmission wait.
  uint32_t faults = 0;
  uint32_t preemptions = 0;
  // Degraded mode: a page fetch this request depended on exhausted its retry
  // budget. The handler short-circuits and the reply goes out as an error
  // reply; the load generator counts it as failed and skips verification.
  bool failed = false;

  // Derived components.
  uint64_t QueueNs() const { return start_time - arrive_time; }
  uint64_t ServerNs() const { return finish_time - arrive_time; }
  uint64_t HandleNs() const { return finish_time - start_time; }
  uint64_t E2eNs() const { return reply_time - gen_time; }
};

}  // namespace adios

#endif  // ADIOS_SRC_SCHED_REQUEST_H_
