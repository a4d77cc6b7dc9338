// Parameterized property sweeps: conservation, sane latency ordering, and
// policy invariants must hold across the configuration space.

#include <tuple>

#include <gtest/gtest.h>

#include "src/apps/array_app.h"
#include "src/core/md_system.h"

namespace adios {
namespace {

enum SystemKind { kAdios, kDiLOS, kDiLOSP, kHermit };

SystemConfig MakeConfig(SystemKind kind) {
  switch (kind) {
    case kAdios:
      return SystemConfig::Adios();
    case kDiLOS:
      return SystemConfig::DiLOS();
    case kDiLOSP:
      return SystemConfig::DiLOSP();
    default:
      return SystemConfig::Hermit();
  }
}

const char* KindName(SystemKind k) {
  switch (k) {
    case kAdios:
      return "Adios";
    case kDiLOS:
      return "DiLOS";
    case kDiLOSP:
      return "DiLOS-P";
    default:
      return "Hermit";
  }
}

// (system, local ratio, offered kRPS, workers)
using ParamTuple = std::tuple<SystemKind, double, uint32_t, uint32_t>;

class SystemProperty : public ::testing::TestWithParam<ParamTuple> {};

TEST_P(SystemProperty, ConservationAndSanity) {
  const auto [kind, ratio, krps, workers] = GetParam();
  SystemConfig cfg = MakeConfig(kind);
  cfg.local_memory_ratio = ratio;
  cfg.num_workers = workers;
  ArrayApp::Options ao;
  ao.entries = 1 << 15;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(krps * 1000.0, Milliseconds(4), Milliseconds(8));

  // Conservation: every generated request was answered or dropped.
  EXPECT_EQ(r.sent, r.completed + r.dropped) << KindName(kind);
  EXPECT_GT(r.measured, 100u) << KindName(kind);

  // Latency ordering and sanity.
  EXPECT_LE(r.e2e.P50(), r.e2e.P99());
  EXPECT_LE(r.e2e.P99(), r.e2e.Percentile(99.9));
  EXPECT_GE(r.e2e.P50(), 1000u);  // Never below physics (two wire hops).

  // Component consistency on every sampled request.
  for (const auto& s : r.samples) {
    EXPECT_LE(s.queue_ns + s.handle_ns, s.server_ns + 1) << KindName(kind);
    EXPECT_LE(s.rdma_ns + s.tx_ns, s.handle_ns + 1) << KindName(kind);
  }

  // Utilizations are fractions.
  EXPECT_GE(r.rdma_utilization, 0.0);
  EXPECT_LE(r.rdma_utilization, 1.0);
  EXPECT_GE(r.worker_utilization, 0.0);
  EXPECT_LE(r.worker_utilization, 1.05);

  // Paging invariant: resident pages never exceed the local budget.
  EXPECT_LE(sys.memory_manager().page_table().resident_pages(),
            sys.memory_manager().local_pages());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SystemProperty,
    ::testing::Combine(::testing::Values(kAdios, kDiLOS, kDiLOSP, kHermit),
                       ::testing::Values(0.1, 0.2, 0.5),
                       ::testing::Values(100u, 600u),
                       ::testing::Values(4u, 8u)));

// Fault-policy invariant: yielding only ever happens under Adios.
class YieldProperty : public ::testing::TestWithParam<SystemKind> {};

TEST_P(YieldProperty, YieldCountMatchesPolicy) {
  const SystemKind kind = GetParam();
  SystemConfig cfg = MakeConfig(kind);
  ArrayApp::Options ao;
  ao.entries = 1 << 15;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(300000, Milliseconds(4), Milliseconds(8));
  if (kind == kAdios) {
    EXPECT_GT(r.worker_yields, 0u);
  } else {
    EXPECT_EQ(r.worker_yields, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, YieldProperty,
                         ::testing::Values(kAdios, kDiLOS, kDiLOSP, kHermit));

}  // namespace
}  // namespace adios
