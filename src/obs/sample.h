// Compact per-request component record kept for breakdown analysis
// (Figs. 2(b,c), 7(c)) and the windowed time-series snapshots
// (src/obs/time_series.h).
//
// Lives in src/obs (not src/net, where the load generator fills it) so the
// observability layer — span reconciliation, time series — can consume
// samples without depending on the scheduler stack.

#ifndef ADIOS_SRC_OBS_SAMPLE_H_
#define ADIOS_SRC_OBS_SAMPLE_H_

#include <cstdint>

namespace adios {

struct RequestSample {
  uint64_t id = 0;         // Request id; joins the sample to its trace span.
  uint64_t finish_ns = 0;  // Simulated time the reply landed (timeline binning).
  uint64_t e2e_ns = 0;
  uint64_t server_ns = 0;  // arrive -> finish at the compute node.
  uint64_t queue_ns = 0;   // arrive -> handler start.
  uint64_t handle_ns = 0;  // handler start -> finish (includes rdma+tx waits).
  uint64_t rdma_ns = 0;    // blocked on own fetches.
  uint64_t busy_ns = 0;    // busy-waiting portion.
  uint64_t tx_ns = 0;      // synchronous TX wait.
  uint32_t op = 0;
  uint32_t faults = 0;
};
// Runs keep up to LoadGenerator's max_samples of these, so the two 32-bit
// fields share one word.
static_assert(sizeof(RequestSample) == 80, "RequestSample packs to 80 bytes");

}  // namespace adios

#endif  // ADIOS_SRC_OBS_SAMPLE_H_
