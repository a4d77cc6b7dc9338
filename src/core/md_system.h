// MdSystem: assembles a complete memory-disaggregation testbed — compute
// node (dispatcher + workers + reclaimer on simulated cores), memory node,
// RDMA fabric, paging, and load generator — from a SystemConfig and an
// Application, and runs offered-load experiments on it.

#ifndef ADIOS_SRC_CORE_MD_SYSTEM_H_
#define ADIOS_SRC_CORE_MD_SYSTEM_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/apps/application.h"
#include "src/check/invariant_checker.h"
#include "src/core/run_result.h"
#include "src/core/system_config.h"
#include "src/ctrl/overload_control.h"
#include "src/integrity/integrity.h"
#include "src/mem/memory_manager.h"
#include "src/mem/reclaimer.h"
#include "src/net/load_generator.h"
#include "src/rdma/fabric.h"
#include "src/rdma/node_health.h"
#include "src/sched/dispatcher.h"
#include "src/sched/worker.h"
#include "src/sim/cpu_core.h"
#include "src/sim/engine.h"

namespace adios {

class MdSystem {
 public:
  MdSystem(const SystemConfig& config, Application* app);
  ~MdSystem();

  MdSystem(const MdSystem&) = delete;
  MdSystem& operator=(const MdSystem&) = delete;

  // Runs one offered-load point: warmup (fills the cache, excluded from
  // stats), then a measurement window; returns once all in-flight requests
  // drain. A fresh MdSystem is needed per run.
  RunResult Run(double offered_rps, SimDuration warmup_ns, SimDuration measure_ns,
                const LoadGenerator::Options* opt_override = nullptr);

  // --- Introspection for tests ---
  Engine& engine() { return engine_; }
  // Per-request event tracing (call tracer().Enable(cap) before Run()).
  Tracer& tracer() { return tracer_; }
  // Metric registry: the one home of every run counter; Run() snapshots it
  // into RunResult::metrics.
  MetricRegistry& metrics() { return metrics_; }
  MemoryManager& memory_manager() { return *mm_; }
  RdmaFabric& fabric() { return *fabric_; }
  Dispatcher& dispatcher() { return *dispatcher_; }
  Reclaimer& reclaimer() { return *reclaimer_; }
  // Node 0's injector; null unless config.fault.enabled().
  FaultInjector* fault_injector() { return node_fault_injector(0); }
  // Per-node injectors (one per memory node when fault injection is on).
  FaultInjector* node_fault_injector(uint32_t node) {
    return node < injectors_.size() ? injectors_[node].get() : nullptr;
  }
  // Always built; a single memory node is the one-replica placement.
  PlacementMap* placement() { return placement_.get(); }
  NodeHealthMonitor* node_health() { return health_.get(); }
  // Null unless config.check.enabled or the ADIOS_CHECKS=1 env var is set.
  InvariantChecker* invariant_checker() { return checker_.get(); }
  // Always built; with its loops off it is a pass-through (docs/OVERLOAD.md).
  OverloadController* overload_controller() { return ctrl_.get(); }
  // Null unless config.integrity.enabled() (docs/INTEGRITY.md).
  IntegrityLayer* integrity() { return integrity_.get(); }
  std::vector<std::unique_ptr<Worker>>& workers() { return workers_; }
  RemoteRegion& region() { return *region_; }
  const SystemConfig& config() const { return config_; }

 private:
  SystemConfig config_;
  Application* app_;
  Engine engine_;
  Tracer tracer_;
  MetricRegistry metrics_;
  std::unique_ptr<RemoteRegion> region_;
  std::unique_ptr<RemoteHeap> heap_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;  // One per node.
  std::unique_ptr<RdmaFabric> fabric_;
  std::unique_ptr<PlacementMap> placement_;
  std::unique_ptr<NodeHealthMonitor> health_;
  std::unique_ptr<IntegrityLayer> integrity_;
  std::unique_ptr<MemoryManager> mm_;
  std::vector<std::unique_ptr<CpuCore>> worker_cores_;
  std::unique_ptr<CpuCore> dispatcher_core_;
  std::unique_ptr<CpuCore> reclaimer_core_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<UnithreadPool> pool_;
  std::unique_ptr<OverloadController> ctrl_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<Reclaimer> reclaimer_;
  std::unique_ptr<LoadGenerator> loadgen_;
  std::unique_ptr<InvariantChecker> checker_;
  std::function<void(Request*)> reply_sink_;
  std::function<void(Request*)> drop_sink_;
  bool ran_ = false;
};

// Convenience: sweep helper used by the figure benches.
RunResult RunOnce(const SystemConfig& config, Application* app, double offered_rps,
                  SimDuration warmup_ns, SimDuration measure_ns);

}  // namespace adios

#endif  // ADIOS_SRC_CORE_MD_SYSTEM_H_
