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
  EXPECT_EQ(c.sched.preempt_interval_ns, 0u);  // No preemption.
  EXPECT_EQ(c.reclaim.wakeup_delay_ns, 0u);
  EXPECT_EQ(c.num_workers, 8u);                        // Paper setup (§5).
  EXPECT_EQ(kCtxSwitchCycles, 40u);                    // Table 1.
  EXPECT_EQ(CostsOf(c.sched.fault_policy).yield_bookkeeping_cycles, 50u);  // Fig. 8.
  EXPECT_DOUBLE_EQ(c.local_memory_ratio, 0.2);         // 20% of working set.
  EXPECT_DOUBLE_EQ(c.reclaim_low_watermark, 0.15);     // §3.3 threshold.
  EXPECT_EQ(kCpuClock.mhz(), 2000u);                   // Xeon Gold 6330.
}

TEST(SystemConfig, DiLosPresetIsBusyWaitingRunToCompletion) {
  const SystemConfig c = SystemConfig::DiLOS();
  EXPECT_EQ(c.sched.fault_policy, FaultPolicy::kBusyWait);
  EXPECT_EQ(c.sched.dispatch_policy, DispatchPolicy::kRoundRobin);
  EXPECT_FALSE(c.sched.polling_delegation);
  EXPECT_EQ(c.sched.preempt_interval_ns, 0u);  // No preemption.
  EXPECT_EQ(CostsOf(c.sched.fault_policy).yield_bookkeeping_cycles, 0u);  // No yield path.
}

TEST(SystemConfig, DiLosPPresetAddsFiveMicrosecondPreemption) {
  const SystemConfig c = SystemConfig::DiLOSP();
  EXPECT_EQ(c.sched.fault_policy, FaultPolicy::kBusyWait);
  EXPECT_EQ(c.sched.preempt_interval_ns, 5000u);  // Shinjuku/Concord default.
}

TEST(SystemConfig, HermitPresetPaysKernelCosts) {
  const SystemConfig c = SystemConfig::Hermit();
  EXPECT_EQ(c.sched.fault_policy, FaultPolicy::kKernelBusyWait);
  const PolicyCosts& k = CostsOf(c.sched.fault_policy);
  EXPECT_GT(k.kernel_fault_extra_cycles, 0u);
  EXPECT_GT(k.kernel_request_extra_cycles, 0u);
  EXPECT_GT(k.kernel_jitter_prob, 0.0);
  EXPECT_EQ(k.yield_bookkeeping_cycles, 0u);  // Busy-waits: no yield path.
}

TEST(SystemConfig, InfiniswapPresetPaysKernelSwitchesAndWakeups) {
  const SystemConfig c = SystemConfig::Infiniswap();
  EXPECT_EQ(c.sched.fault_policy, FaultPolicy::kKernelYield);
  const PolicyCosts& k = CostsOf(c.sched.fault_policy);
  EXPECT_GT(k.kernel_fault_extra_cycles, 0u);
  EXPECT_GT(k.kernel_request_extra_cycles, 0u);
  EXPECT_GT(k.kernel_jitter_prob, 0.0);
  EXPECT_EQ(k.kernel_ctx_switch_cycles, 8000u);  // ~4 us thread switch [40].
  EXPECT_GT(k.kernel_sched_delay_ns, 0u);
  EXPECT_EQ(k.yield_bookkeeping_cycles, 0u);  // The kernel scheduler's, not Adios'.
}

TEST(PolicyCosts, OnlyKernelPoliciesPayKernelCosts) {
  for (const FaultPolicy p : {FaultPolicy::kYield, FaultPolicy::kBusyWait}) {
    const PolicyCosts& k = CostsOf(p);
    EXPECT_EQ(k.kernel_fault_extra_cycles, 0u);
    EXPECT_EQ(k.kernel_request_extra_cycles, 0u);
    EXPECT_EQ(k.kernel_jitter_prob, 0.0);  // No jitter draw: the RNG stream is untouched.
    EXPECT_EQ(k.kernel_ctx_switch_cycles, 0u);
    EXPECT_EQ(k.kernel_sched_delay_ns, 0u);
  }
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
      {"num_workers >= 1", [](SystemConfig& c) { c.num_workers = 0; }},
      {"local_memory_ratio > 0", [](SystemConfig& c) { c.local_memory_ratio = 0.0; }},
      {"reclaim_low_watermark >= 0", [](SystemConfig& c) { c.reclaim_low_watermark = -0.1; }},
      {"reclaim_high_watermark >= reclaim_low_watermark",
       [](SystemConfig& c) { c.reclaim_high_watermark = 0.1; }},
      {"fabric.link_classes <= kNumTrafficClasses",
       [](SystemConfig& c) { c.fabric.link_classes = kNumTrafficClasses + 1; }},
      {"fabric.compress_gbps >= 0", [](SystemConfig& c) { c.fabric.compress_gbps = std::nan(""); }},
      {"replication.num_nodes >= 1", [](SystemConfig& c) { c.replication.num_nodes = 0; }},
      {"replication.replicas >= 1", [](SystemConfig& c) { c.replication.replicas = 0; }},
      {"replication.replicas <= replication.num_nodes",
       [](SystemConfig& c) { c.replication.replicas = 2; }},
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
      {"ctrl.admit_rate_rps > 0",
       [](SystemConfig& c) { c.ctrl.admission_enabled = true; }},
      {"ctrl.admit_burst >= 1",
       [](SystemConfig& c) {
         c.ctrl.admission_enabled = true;
         c.ctrl.admit_rate_rps = 1e6;
         c.ctrl.admit_burst = 0.5;
       }},
      {"ctrl.shed_pf_knee > 0",
       [](SystemConfig& c) {
         c.ctrl.shed_enabled = true;
         c.ctrl.shed_pf_knee = 0.0;
       }},
      {"ctrl.min_workers >= 1",
       [](SystemConfig& c) {
         c.ctrl.scale_enabled = true;
         c.ctrl.min_workers = 0;
       }},
      {"ctrl.min_workers <= num_workers",
       [](SystemConfig& c) {
         c.ctrl.scale_enabled = true;
         c.ctrl.min_workers = c.num_workers + 1;
       }},
      {"ctrl.scale_down_queue < ctrl.scale_up_queue",
       [](SystemConfig& c) {
         c.ctrl.scale_enabled = true;
         c.ctrl.scale_down_queue = c.ctrl.scale_up_queue;
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
  c.local_memory_ratio = std::nan("");
  c.replication.replicas = 0;
  c.integrity.scrub_bw_gbps = 0.0;
  c.integrity.verify = true;  // Turns retry on.
  c.retry.timeout_ns = 0;
  const std::vector<std::string> errors = c.Validate();
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors[0].rfind("local_memory_ratio > 0", 0), 0u);
  EXPECT_EQ(errors[1].rfind("replication.replicas >= 1", 0), 0u);
  EXPECT_EQ(errors[2].rfind("integrity.scrub_bw_gbps > 0", 0), 0u);
  EXPECT_EQ(errors[3].rfind("retry.timeout_ns > 0", 0), 0u);
}

TEST(SystemConfigRetryOn, AskedForOrImpliedByFaultsOrVerify) {
  SystemConfig c = SystemConfig::Adios();
  EXPECT_FALSE(c.RetryOn());
  c.retry.enabled = true;
  EXPECT_TRUE(c.RetryOn());

  c = SystemConfig::Adios();
  c.fault.read_loss_rate = 1e-3;
  EXPECT_TRUE(c.RetryOn());

  c = SystemConfig::Adios();
  c.integrity.verify = true;
  EXPECT_TRUE(c.RetryOn());

  // Scrub and the oracle do not retry: they read outside the fetch path.
  c = SystemConfig::Adios();
  c.integrity.scrub = true;
  c.integrity.oracle = true;
  EXPECT_FALSE(c.RetryOn());

  // Validate applies the same rule: a zero deadline is only an error while
  // retries run.
  c.retry.timeout_ns = 0;
  EXPECT_TRUE(c.Validate().empty());
  c.fault.read_loss_rate = 1e-3;
  ASSERT_EQ(c.Validate().size(), 1u);
  EXPECT_EQ(c.Validate()[0].rfind("retry.timeout_ns > 0", 0), 0u);
}

TEST(FabricDefaults, UnloadedFetchWithinPaperRange) {
  const FabricParams p;
  // Sum the unloaded pipeline for a 4 KB READ; must land in 2-3 us (§3).
  const SimDuration fetch = p.wqe_process_ns +
                            FabricParams::SerializationNs(kHeaderBytes, p.link_gbps) +
                            kWireLatencyNs + kRemoteDmaNs +
                            FabricParams::SerializationNs(4096 + kHeaderBytes, p.link_gbps) +
                            kWireLatencyNs + kCqeDeliverNs;
  EXPECT_GE(fetch, 2000u);
  EXPECT_LE(fetch, 3000u);
}

}  // namespace
}  // namespace adios
