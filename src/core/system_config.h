// System-level configuration and the four evaluated system presets (§5).
//
//   SystemConfig::Adios()  — yield-based fault handling, PF-aware dispatch,
//                            polling delegation, proactive reclaimer.
//   SystemConfig::DiLOS()  — busy-waiting fault handling, round-robin
//                            dispatch, synchronous TX.
//   SystemConfig::DiLOSP() — DiLOS + Concord-style cooperative preemption
//                            with a 5 us interval.
//   SystemConfig::Hermit() — kernel-based busy-waiting MD: extra trap and
//                            kernel network-stack costs plus background
//                            kernel interference that inflates the tail.

#ifndef ADIOS_SRC_CORE_SYSTEM_CONFIG_H_
#define ADIOS_SRC_CORE_SYSTEM_CONFIG_H_

#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/check/check_options.h"
#include "src/ctrl/ctrl_config.h"
#include "src/integrity/integrity_config.h"
#include "src/mem/paging_config.h"
#include "src/mem/reclaimer.h"
#include "src/rdma/fault_injector.h"
#include "src/rdma/node_health.h"
#include "src/rdma/params.h"
#include "src/sched/config.h"
#include "src/unithread/universal_stack.h"

namespace adios {

// The paging knobs (page size, reclaim watermarks and the lock-free
// datapath's settings) are the PagingConfig base's fields.
struct SystemConfig : PagingConfig {
  std::string name = "Adios";
  uint32_t num_workers = 8;  // Paper setup: 8 workers + dispatcher + reclaimer.

  SchedConfig sched;
  FabricParams fabric;
  Reclaimer::Options reclaim;

  // Fault injection (docs/FAULT_MODEL.md). All-zero by default: the fabric
  // stays ideal, and no injector is installed, so an ideal fabric draws no
  // random number per WQE. When any knob is set (fault.enabled()), MdSystem
  // installs the injector and switches on the deadline/retry pipeline below.
  FaultInjector::Options fault;
  // Timeout/retry/backoff policy shared by the workers' fetch path and the
  // reclaimer's write-back path. The pipeline runs when RetryOn(): set
  // `retry.enabled` to run it on an ideal fabric (e.g. in tests).
  RetryPolicy retry;

  // Memory-node replication (docs/FAILOVER.md). Defaults to the paper's
  // single memory node, the one-replica case of the same placement map and
  // health monitor. With replicas > 1, pages are placed primary+secondary
  // across nodes, reads fail over on retry exhaustion or node suspicion, and
  // recovered nodes are re-silvered in the background.
  ReplicationConfig replication;

  // SLO-aware overload control (docs/OVERLOAD.md). The controller is always
  // built; with its three loops off (the default) it admits every arrival,
  // keeps every worker active and schedules no tick. Enable any of
  // admission/shedding/scaling via its flag in CtrlConfig.
  CtrlConfig ctrl;

  // End-to-end data integrity (docs/INTEGRITY.md). Default-off and
  // bit-identical to the pre-integrity system: no checksum map is built, no
  // verify cycles are charged, and no scrub events enter the engine. Enable
  // `verify` for checksum-verified fetches (turns RetryOn() on so detected
  // corruption can retry/fail over), `scrub` for the background scrubber,
  // or `oracle` to count silently-served corruption without changing the
  // datapath.
  IntegrityConfig integrity;

  // Local DRAM cache size as a fraction of the working set (paper default
  // 20%).
  double local_memory_ratio = 0.2;

  UnithreadPool::Options pool;

  // Runtime invariant checking (src/check/). MdSystem also enables this
  // when the ADIOS_CHECKS=1 environment variable is set.
  CheckOptions check;

  uint64_t seed = 1;

  // Whether the deadline/retry pipeline runs: when asked for, and always
  // with fault injection (a lossy fabric without retries wedges workers on
  // fetches that never complete) or verify-on-fetch (a detected corruption
  // is handled like a failed fetch: retry, then fail over). MdSystem runs
  // with retry.enabled = RetryOn().
  bool RetryOn() const { return retry.enabled || fault.enabled() || integrity.verify; }

  // Every violated constraint, one message each (empty when the config is
  // valid). Each message starts with the rule it breaks, e.g.
  // "retry.timeout_ns > 0". MdSystem aborts on a non-empty result.
  std::vector<std::string> Validate() const;

  // The presets' pool: UnithreadPool::Options' defaults.
  static UnithreadPool::Options DefaultPool() { return {}; }

  static SystemConfig Adios() {
    SystemConfig c;
    c.name = "Adios";
    c.sched.fault_policy = FaultPolicy::kYield;
    c.sched.dispatch_policy = DispatchPolicy::kPfAware;
    c.sched.polling_delegation = true;
    return c;
  }

  static SystemConfig DiLOS() {
    SystemConfig c;
    c.name = "DiLOS";
    c.sched.fault_policy = FaultPolicy::kBusyWait;
    c.sched.dispatch_policy = DispatchPolicy::kRoundRobin;
    c.sched.polling_delegation = false;
    return c;
  }

  static SystemConfig DiLOSP() {
    SystemConfig c = DiLOS();
    c.name = "DiLOS-P";
    c.sched.preempt_interval_ns = 5000;
    return c;
  }

  // Infiniswap-class baseline (§7, [21]): paging MD with yield-based fault
  // handling through the *kernel* scheduler — heavyweight thread switches
  // (~4 us, [40]) and scheduler wake-up delays swallow the fetch-overlap
  // benefit. The kernel costs come with the policy (kPolicyCosts).
  static SystemConfig Infiniswap() {
    SystemConfig c;
    c.name = "Infiniswap";
    c.sched.fault_policy = FaultPolicy::kKernelYield;
    c.sched.dispatch_policy = DispatchPolicy::kRoundRobin;
    c.sched.polling_delegation = false;
    return c;
  }

  // Kernel-based busy-waiting: the fault trap, the kernel network stack and
  // background interference come with the policy (kPolicyCosts).
  static SystemConfig Hermit() {
    SystemConfig c;
    c.name = "Hermit";
    c.sched.fault_policy = FaultPolicy::kKernelBusyWait;
    c.sched.dispatch_policy = DispatchPolicy::kRoundRobin;
    c.sched.polling_delegation = false;
    return c;
  }
};

}  // namespace adios

#endif  // ADIOS_SRC_CORE_SYSTEM_CONFIG_H_
