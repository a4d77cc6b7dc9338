#include "src/core/system_config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace adios {
namespace {

TEST(SystemConfig, AdiosPresetMatchesPaper) {
  const SystemConfig c = SystemConfig::Adios();
  EXPECT_EQ(c.name, "Adios");
  EXPECT_EQ(c.sched.fault_policy, FaultPolicy::kYield);
  EXPECT_EQ(c.sched.dispatch_policy, DispatchPolicy::kPfAware);
  EXPECT_TRUE(c.sched.polling_delegation);
  EXPECT_FALSE(c.sched.preemption);
  EXPECT_EQ(c.reclaim.wakeup_delay_ns, 0u);
  EXPECT_EQ(c.num_workers, 8u);                        // Paper setup (§5).
  EXPECT_EQ(c.sched.ctx_switch_cycles, 40u);           // Table 1.
  EXPECT_DOUBLE_EQ(c.local_memory_ratio, 0.2);         // 20% of working set.
  EXPECT_DOUBLE_EQ(c.reclaim_low_watermark, 0.15);     // §3.3 threshold.
  EXPECT_EQ(c.clock.mhz(), 2000u);                     // Xeon Gold 6330.
}

TEST(SystemConfig, DiLosPresetIsBusyWaitingRunToCompletion) {
  const SystemConfig c = SystemConfig::DiLOS();
  EXPECT_EQ(c.sched.fault_policy, FaultPolicy::kBusyWait);
  EXPECT_EQ(c.sched.dispatch_policy, DispatchPolicy::kRoundRobin);
  EXPECT_FALSE(c.sched.polling_delegation);
  EXPECT_FALSE(c.sched.preemption);
  EXPECT_EQ(c.sched.yield_bookkeeping_cycles, 0u);  // No yield path.
}

TEST(SystemConfig, DiLosPPresetAddsFiveMicrosecondPreemption) {
  const SystemConfig c = SystemConfig::DiLOSP();
  EXPECT_EQ(c.sched.fault_policy, FaultPolicy::kBusyWait);
  EXPECT_TRUE(c.sched.preemption);
  EXPECT_EQ(c.sched.preempt_interval_ns, 5000u);  // Shinjuku/Concord default.
}

TEST(SystemConfig, HermitPresetPaysKernelCosts) {
  const SystemConfig c = SystemConfig::Hermit();
  EXPECT_EQ(c.sched.fault_policy, FaultPolicy::kKernelBusyWait);
  EXPECT_GT(c.sched.kernel_fault_extra_cycles, 0u);
  EXPECT_GT(c.sched.kernel_request_extra_cycles, 0u);
  EXPECT_GT(c.sched.kernel_jitter_prob, 0.0);
}

TEST(SystemConfig, DefaultPoolUsesUniversalStackBuffers) {
  const UnithreadPool::Options p = SystemConfig::DefaultPool();
  EXPECT_GT(p.count, 1000u);  // Pre-allocated for bursts (paper: 131072).
  EXPECT_GT(p.buffer_size, p.mtu + sizeof(UnithreadContext) + 4096);
}

TEST(SystemConfigValidate, PresetsAreValid) {
  for (const SystemConfig& c : {SystemConfig{}, SystemConfig::Adios(), SystemConfig::DiLOS(),
                                SystemConfig::DiLOSP(), SystemConfig::Infiniswap(),
                                SystemConfig::Hermit()}) {
    EXPECT_TRUE(c.Validate().empty()) << c.name;
  }
}

TEST(SystemConfigValidate, EachRuleReportsItself) {
  struct Case {
    const char* rule;
    void (*spoil)(SystemConfig&);
  };
  const Case cases[] = {
      {"replication.num_nodes >= 1", [](SystemConfig& c) { c.replication.num_nodes = 0; }},
      {"replication.replicas >= 1", [](SystemConfig& c) { c.replication.replicas = 0; }},
      {"replication.replicas <= replication.num_nodes",
       [](SystemConfig& c) { c.replication.replicas = 2; }},
      {"replication.resilver_bw_gbps > 0",
       [](SystemConfig& c) { c.replication.resilver_bw_gbps = 0.0; }},
      {"integrity.scrub_bw_gbps > 0", [](SystemConfig& c) { c.integrity.scrub_bw_gbps = -1.0; }},
      {"retry.timeout_ns > 0",
       [](SystemConfig& c) {
         c.retry.enabled = true;
         c.retry.timeout_ns = 0;
       }},
      {"fault.blackout_node < replication.num_nodes",
       [](SystemConfig& c) {
         c.fault.blackout_duration_ns = 1000;
         c.fault.blackout_node = 1;
       }},
  };
  for (const Case& k : cases) {
    SystemConfig c = SystemConfig::Adios();
    k.spoil(c);
    const std::vector<std::string> errors = c.Validate();
    const bool found = std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
      return e.rfind(k.rule, 0) == 0;
    });
    EXPECT_TRUE(found) << k.rule;
  }
}

TEST(SystemConfigValidate, ReportsEveryViolationAtOnce) {
  SystemConfig c = SystemConfig::Adios();
  c.replication.replicas = 0;
  c.replication.resilver_bw_gbps = std::nan("");
  c.integrity.scrub_bw_gbps = 0.0;
  c.integrity.verify = true;  // Turns retry on.
  c.retry.timeout_ns = 0;
  const std::vector<std::string> errors = c.Validate();
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors[0].rfind("replication.replicas >= 1", 0), 0u);
  EXPECT_EQ(errors[1].rfind("replication.resilver_bw_gbps > 0", 0), 0u);
  EXPECT_EQ(errors[2].rfind("integrity.scrub_bw_gbps > 0", 0), 0u);
  EXPECT_EQ(errors[3].rfind("retry.timeout_ns > 0", 0), 0u);
}

TEST(FabricDefaults, UnloadedFetchWithinPaperRange) {
  const FabricParams p;
  // Sum the unloaded pipeline for a 4 KB READ; must land in 2-3 us (§3).
  const SimDuration fetch = p.wqe_process_ns +
                            FabricParams::SerializationNs(p.header_bytes, p.link_gbps) +
                            p.wire_latency_ns + p.remote_dma_ns +
                            FabricParams::SerializationNs(4096 + p.header_bytes, p.link_gbps) +
                            p.wire_latency_ns + p.cqe_deliver_ns;
  EXPECT_GE(fetch, 2000u);
  EXPECT_LE(fetch, 3000u);
}

}  // namespace
}  // namespace adios
