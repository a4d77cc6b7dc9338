#include "src/core/md_system.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/base/stats.h"

namespace adios {

MdSystem::MdSystem(const SystemConfig& config, Application* app) : config_(config), app_(app) {
  if (const std::vector<std::string> errors = config_.Validate(); !errors.empty()) {
    std::string details = "invalid SystemConfig:";
    for (const std::string& e : errors) {
      details += "\n    " + e;
    }
    CheckFailed("config.Validate().empty()", __FILE__, __LINE__, details.c_str());
  }
  // The one retry rule: every layer below reads the derived policy.
  config_.retry.enabled = config_.RetryOn();
  // --- Memory node + remote working set ---
  uint64_t ws_bytes = app->WorkingSetBytes();
  ws_bytes = (ws_bytes + kPageSize - 1) / kPageSize * kPageSize;
  region_ = std::make_unique<RemoteRegion>(ws_bytes);
  heap_ = std::make_unique<RemoteHeap>(region_.get());
  app->Setup(*heap_);

  // --- Paging ---
  const uint64_t page_bytes = 1ull << config_.page_shift;
  const uint64_t total_pages = (region_->size() + page_bytes - 1) / page_bytes;
  uint64_t local_pages;
  if (config_.local_memory_ratio >= 1.0) {
    // "Unlimited" local memory (Fig. 8's 100% point): the testbed machines
    // have far more DRAM than the working set, so the reclaim watermark
    // never binds. Give the cache enough headroom to make that true here.
    local_pages = total_pages * 5 / 4 + 64;
  } else {
    local_pages = std::max<uint64_t>(
        1, static_cast<uint64_t>(config_.local_memory_ratio * static_cast<double>(total_pages)));
  }
  mm_ = std::make_unique<MemoryManager>(&engine_, config_, total_pages, local_pages);
  mm_->set_tracer(&tracer_);

  // --- Fabric ---
  // Provisioning invariant from the paper's testbed: outstanding page
  // fetches (workers x QP depth) must stay well below the frame budget —
  // 8 GB of local DRAM vs <=1K outstanding there. Scaled-down working sets
  // would otherwise let in-flight fetches pin every frame and wedge paging,
  // so the QP depth is clamped to half the frames per worker.
  FabricParams fabric_params = config_.fabric;
  const uint64_t safe_depth =
      std::max<uint64_t>(1, local_pages / (2 * std::max(1u, config_.num_workers)));
  if (safe_depth < fabric_params.qp_depth) {
    fabric_params.qp_depth = static_cast<uint32_t>(safe_depth);
  }
  const uint32_t num_nodes = config_.replication.num_nodes;
  fabric_ = std::make_unique<RdmaFabric>(&engine_, fabric_params, num_nodes);
  // Class grants are traced only on multi-class links (link_classes > 1).
  fabric_->set_tracer(&tracer_);
  const std::pair<const char*, RdmaFabric::LinkClassCounter> link_probes[] = {
      {"link.class_enqueued_bytes", &FairLink::class_enqueued_bytes},
      {"link.class_delivered_bytes", &FairLink::class_delivered_bytes},
      {"link.class_delivered_items", &FairLink::class_delivered_items},
  };
  for (uint32_t c = 0; c < kNumTrafficClasses; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    const MetricLabels labels{{"class", TrafficClassName(cls)}};
    for (const auto& [name, counter] : link_probes) {
      metrics_.RegisterProbe(name, labels, [this, cls, counter = counter] {
        return static_cast<double>(fabric_->SumClassCounter(counter, cls));
      });
    }
  }
  // The injector stays gated: an ideal node then draws no random number per
  // WQE.
  if (config_.fault.enabled()) {
    for (uint32_t node = 0; node < num_nodes; ++node) {
      FaultInjector::Options fopts = config_.fault;
      if (node > 0) {
        // Independent loss draws per node, deterministically derived from
        // the run seed. Node 0 keeps the exact configured options, so a
        // single-node run draws the configured seed's stream.
        fopts.seed = config_.fault.seed + 0x9e3779b9ull * node;
      }
      if (node != config_.fault.blackout_node) {
        // The blackout window targets exactly one node; the others keep
        // only the statistical faults.
        fopts.blackout_start_ns = 0;
        fopts.blackout_duration_ns = 0;
      }
      auto inj = std::make_unique<FaultInjector>(fopts);
      fabric_->set_node_fault_injector(node, inj.get());
      metrics_.RegisterProbe("fault.degraded_ns", MetricLabels::Node(node),
                             [this, inj = inj.get()] {
                               return static_cast<double>(inj->DegradedNs(engine_.now()));
                             });
      injectors_.push_back(std::move(inj));
    }
  }

  // --- Data integrity (docs/INTEGRITY.md) ---
  // Gated: the layer stamps every region write and keeps per-page ledgers.
  if (config_.integrity.enabled()) {
    integrity_ = std::make_unique<IntegrityLayer>(config_.integrity, region_.get(),
                                                  total_pages, page_bytes, num_nodes,
                                                  config_.replication.replicas);
    fabric_->set_corrupt_hook([this](uint64_t wr_id, uint32_t /*node*/, WorkType type) {
      integrity_->OnWireCorrupt(wr_id, type == WorkType::kWrite);
    });
    integrity_->RegisterMetrics(&metrics_);
  }

  // --- Replication (docs/FAILOVER.md) ---
  // Always built: a single memory node is the one-replica placement, whose
  // rules (PlacementMap, NodeHealthMonitor) keep it from ever diverging or
  // turning suspect.
  placement_ = std::make_unique<PlacementMap>(total_pages, num_nodes,
                                              config_.replication.replicas);
  health_ = std::make_unique<NodeHealthMonitor>(&engine_, config_.replication);
  // Probe outcome: a node answers its keepalive unless it is inside its
  // injector's blackout window.
  health_->set_probe_fn([this](uint32_t node, SimTime now) {
    const FaultInjector* inj = node < injectors_.size() ? injectors_[node].get() : nullptr;
    return inj == nullptr || !inj->InBlackout(now);
  });
  health_->RegisterMetrics(&metrics_);
  // Per-node divergence counters: a node that keeps diverging (dropped
  // write-backs, corrupt payloads) stands out where the global total would
  // hide it.
  for (uint32_t node = 0; node < num_nodes; ++node) {
    metrics_.RegisterProbe("placement.divergence_events", MetricLabels::Node(node), [this, node] {
      return static_cast<double>(placement_->divergence_events_for(node));
    });
  }

  // --- Cores ---
  dispatcher_core_ = std::make_unique<CpuCore>(&engine_, kCpuClock, "dispatcher");
  reclaimer_core_ = std::make_unique<CpuCore>(&engine_, kCpuClock, "reclaimer");
  for (uint32_t i = 0; i < config_.num_workers; ++i) {
    worker_cores_.push_back(
        std::make_unique<CpuCore>(&engine_, kCpuClock, "worker-" + std::to_string(i)));
  }

  // --- Buffers & CQs/QPs ---
  pool_ = std::make_unique<UnithreadPool>(config_.pool);
  CompletionQueue* dispatcher_cq = fabric_->CreateCq();

  reply_sink_ = [](Request*) { ADIOS_CHECK(false); };  // Bound in Run().
  drop_sink_ = [](Request*) { ADIOS_CHECK(false); };

  Worker::HandlerFn handler = [app](Request* req, WorkerApi& api) { app->Handle(req, api); };
  Worker::ReplyFn on_reply = [this](Request* req) { reply_sink_(req); };

  std::vector<Worker*> worker_ptrs;
  for (uint32_t i = 0; i < config_.num_workers; ++i) {
    CompletionQueue* mem_cq = fabric_->CreateCq();
    QueuePair* mem_qp = fabric_->CreateQp(mem_cq);
    // Polling delegation steers the client QP's completions to the
    // dispatcher's CQ; otherwise the worker polls its own client CQ.
    CompletionQueue* client_cq =
        config_.sched.polling_delegation ? dispatcher_cq : fabric_->CreateCq();
    QueuePair* client_qp = fabric_->CreateQp(client_cq);
    auto worker = std::make_unique<Worker>(i, &engine_, worker_cores_[i].get(), mm_.get(),
                                           pool_.get(), mem_qp, client_qp, placement_.get(),
                                           health_.get(), config_.sched, config_.seed, handler,
                                           on_reply);
    worker->set_region(region_.get());
    worker->set_retry(config_.retry);
    worker_ptrs.push_back(worker.get());
    workers_.push_back(std::move(worker));
  }

  // --- Overload control (docs/OVERLOAD.md) ---
  // Always built; with its loops off it admits everything and schedules no
  // tick. Its shed/scale ticks read dispatcher.queue_depth and
  // worker.outstanding_faults through the registry, which the dispatcher and
  // workers register below, before Run() starts the first tick.
  ctrl_ = std::make_unique<OverloadController>(&engine_, config_.ctrl, config_.num_workers,
                                               &metrics_);
  ctrl_->set_tracer(&tracer_);
  ctrl_->RegisterMetrics(&metrics_);

  dispatcher_ = std::make_unique<Dispatcher>(&engine_, dispatcher_core_.get(), pool_.get(),
                                             dispatcher_cq, worker_ptrs, ctrl_.get(), config_.sched,
                                             [this](Request* req) { drop_sink_(req); });
  dispatcher_->set_tracer(&tracer_);
  dispatcher_->RegisterMetrics(&metrics_);
  for (auto& w : workers_) {
    w->set_dispatcher(dispatcher_.get());
    w->set_peers(worker_ptrs);
    w->set_tracer(&tracer_);
    w->RegisterMetrics(&metrics_);
    if (integrity_ != nullptr) {
      w->set_integrity(integrity_.get());
    }
    if (fabric_params.compress_gbps > 0.0) {
      // Decompressing a fetched page costs the same engine time the memory
      // node paid to compress it, charged on the faulting worker's core.
      w->set_decompress_ns(
          FabricParams::SerializationNs(page_bytes, fabric_params.compress_gbps));
    }
  }
  // Paging counters the memory manager already keeps, published by probe so
  // the hot paths stay untouched.
  for (const auto& [name, stat] : kMemStatNames) {
    metrics_.RegisterProbe(name, {}, [this, stat = stat] {
      return static_cast<double>(mm_->stats().*stat);
    });
  }
  metrics_.RegisterProbe("mem.free_frames", {},
                         [this] { return static_cast<double>(mm_->free_frames()); });

  // --- Reclaimer ---
  CompletionQueue* reclaim_cq = fabric_->CreateCq();
  QueuePair* reclaim_qp = fabric_->CreateQp(reclaim_cq);
  reclaimer_ = std::make_unique<Reclaimer>(&engine_, reclaimer_core_.get(), mm_.get(),
                                           reclaim_qp, placement_.get(), health_.get(),
                                           config_.reclaim, config_.retry, &tracer_);
  if (integrity_ != nullptr) {
    reclaimer_->set_integrity(integrity_.get());
    if (placement_->replicas() > 1) {
      // With a second copy, detections queue a repair through the re-silver
      // machinery; a single copy has none, so they count as unrepairable.
      integrity_->set_repair_fn([this](uint64_t vpage, uint32_t node) {
        reclaimer_->copier().RequestRepair(vpage, node);
      });
    }
  }
  // Counters the reclaimer, its copier, the placement map and the tracer
  // keep, published once by probe.
  const std::pair<const char*, std::function<uint64_t()>> counter_probes[] = {
      {"reclaimer.writeback_retries", [this] { return reclaimer_->writeback_retries(); }},
      {"reclaimer.writeback_timeouts", [this] { return reclaimer_->writeback_timeouts(); }},
      {"reclaimer.writeback_aborts", [this] { return reclaimer_->writeback_aborts(); }},
      {"copier.pages_resilvered", [this] { return reclaimer_->copier().pages_resilvered(); }},
      {"copier.resilver_failures", [this] { return reclaimer_->copier().resilver_failures(); }},
      {"placement.divergent_slots", [this] { return placement_->divergent_slots(); }},
      {"trace.dropped", [this] { return tracer_.dropped(); }},
  };
  for (const auto& [name, read] : counter_probes) {
    metrics_.RegisterProbe(name, {}, [read = read] { return static_cast<double>(read()); });
  }
  // Installed after the reclaimer exists: health transitions are traced, and
  // a node probed back from kDead triggers the re-silver pass.
  health_->set_on_state_change([this](uint32_t node, NodeHealth from, NodeHealth to) {
    if (to == NodeHealth::kSuspect) {
      tracer_.Record(engine_.now(), 0, TraceEvent::kNodeSuspect, node);
    } else if (to == NodeHealth::kDead) {
      tracer_.Record(engine_.now(), 0, TraceEvent::kNodeDead, node);
    } else if (to == NodeHealth::kResilvering) {
      reclaimer_->copier().BeginResilver(node);
    } else if (from == NodeHealth::kResilvering && to == NodeHealth::kHealthy) {
      tracer_.Record(engine_.now(), 0, TraceEvent::kResilverDone, node);
    }
  });

  // --- Invariant checker (src/check/) ---
  // Gated: its periodic audits cost host time.
  CheckOptions check_opts = config_.check;
  if (const char* env = std::getenv("ADIOS_CHECKS"); env != nullptr && env[0] == '1') {
    check_opts.enabled = true;
  }
  if (check_opts.enabled) {
    InvariantChecker::Deps deps;
    deps.engine = &engine_;
    deps.mm = mm_.get();
    deps.region = region_.get();
    deps.reclaimer = reclaimer_.get();
    deps.fabric = fabric_.get();
    deps.pool = pool_.get();
    deps.tracer = &tracer_;
    deps.integrity = integrity_.get();
    deps.placement = placement_.get();
    deps.rx_dropped = [this] { return dispatcher_->stats().dropped; };
    checker_ = std::make_unique<InvariantChecker>(check_opts, deps);
    checker_->Install();
    if (integrity_ != nullptr && check_opts.poison_evicted_pages) {
      // Poison-on-evict deliberately scrambles evicted pages' region bytes;
      // teach the layer to skip its digest recompute there, or every fetch
      // of a poisoned page would read as corrupt.
      integrity_->set_recompute_filter(
          [this](uint64_t vpage) { return checker_->PageIsPoisoned(vpage); });
    }
  }
}

MdSystem::~MdSystem() = default;

RunResult MdSystem::Run(double offered_rps, SimDuration warmup_ns, SimDuration measure_ns,
                        const LoadGenerator::Options* opt_override) {
  ADIOS_CHECK(!ran_);  // One measurement per system instance.
  ran_ = true;

  loadgen_ = std::make_unique<LoadGenerator>(
      &engine_, fabric_.get(), dispatcher_.get(), app_, offered_rps, warmup_ns, measure_ns,
      config_.seed * 1315423911u + 7,
      opt_override != nullptr ? *opt_override : LoadGenerator::Options{});
  loadgen_->RegisterMetrics(&metrics_);
  reply_sink_ = [this](Request* req) { loadgen_->OnReply(req); };
  drop_sink_ = [this](Request* req) { loadgen_->OnDrop(req); };

  // Boot the compute node, then start offering load.
  dispatcher_->Start();
  for (auto& w : workers_) {
    w->Start();
  }
  reclaimer_->Start();
  loadgen_->Start();
  // Shed/scale ticks stop rescheduling at the window end, like the checker's
  // audits, so the drain phase terminates.
  ctrl_->Start(warmup_ns + measure_ns);
  if (checker_ != nullptr) {
    // Audits stop rescheduling at the planned window end so the drain phase
    // (Engine::Run runs until the queue empties) can terminate; a final
    // AuditNow() below covers the drained state.
    checker_->SchedulePeriodicAudits(warmup_ns + measure_ns);
  }
  if (integrity_ != nullptr && config_.integrity.scrub) {
    // Scrub ticks stop at the planned window end like the controller's, so
    // the drain phase terminates.
    reclaimer_->copier().StartScrub(warmup_ns + measure_ns);
  }

  // Warmup: fill the local cache, then open the measurement window.
  engine_.RunUntil(warmup_ns);
  fabric_->MarkUtilizationWindow();
  for (auto& c : worker_cores_) {
    c->MarkWindow();
  }
  dispatcher_core_->MarkWindow();
  const SimTime window_start = engine_.now();

  // Periodic telemetry: per-QP outstanding-fetch imbalance (the PF-aware
  // congestion signal) and the active-worker level, every 50 us of the
  // window.
  RunningStats pf_mean_stats;
  RunningStats pf_stddev_stats;
  std::vector<PfPoint> pf_points;  // Same cadence, kept for the timeline.
  RunningStats active_worker_stats;       // Scaling controller (docs/OVERLOAD.md).
  std::vector<PfPoint> active_points;     // Active-worker level, same cadence.
  const SimTime window_end_plan = warmup_ns + measure_ns;
  std::function<void()> sample = [&]() {
    if (engine_.now() >= window_end_plan) {
      return;
    }
    RunningStats per_worker;
    for (auto& w : workers_) {
      per_worker.Add(static_cast<double>(w->OutstandingFaults()));
    }
    pf_mean_stats.Add(per_worker.mean());
    pf_stddev_stats.Add(per_worker.StdDev());
    pf_points.push_back(PfPoint{engine_.now(), per_worker.mean()});
    const double active = static_cast<double>(ctrl_->active_workers());
    active_worker_stats.Add(active);
    active_points.push_back(PfPoint{engine_.now(), active});
    engine_.Schedule(Microseconds(50), sample);
  };
  engine_.Schedule(Microseconds(50), sample);

  // Run the measurement window and drain all in-flight requests.
  engine_.Run();

  if (checker_ != nullptr) {
    checker_->AuditNow();
    // Drained state: every traced arrival must have terminated by now.
    checker_->AuditTraceTermination();
    checker_->UnpoisonAll();
  }

  RunResult r;
  r.system = config_.name;
  r.offered_rps = offered_rps;
  r.throughput_rps = loadgen_->ThroughputRps();
  r.sent = loadgen_->sent();
  r.completed = loadgen_->completed();
  r.dropped = loadgen_->dropped();
  r.measured = loadgen_->measured_completed();
  r.requests_failed = loadgen_->failed();
  r.goodput_rps = loadgen_->GoodputRps();
  r.e2e = loadgen_->e2e_all();
  r.server = loadgen_->server();
  r.queue = loadgen_->queue();
  for (uint32_t op = 0; op < app_->NumOpTypes(); ++op) {
    r.ops.push_back(OpResult{app_->OpName(op), loadgen_->e2e_of(op)});
  }
  // RdmaUtilization() averages over [window_start, now] including the
  // drained tail; rescale the denominator to the configured measurement
  // window (bytes / capacity / measure_ns).
  r.rdma_utilization = fabric_->RdmaUtilization() *
                       (static_cast<double>(engine_.now() - window_start) /
                        static_cast<double>(measure_ns == 0 ? 1 : measure_ns));
  if (r.rdma_utilization > 1.0) {
    r.rdma_utilization = 1.0;
  }
  double wu = 0.0;
  for (auto& c : worker_cores_) {
    wu += c->Utilization(window_start);
  }
  r.worker_utilization = wu / static_cast<double>(worker_cores_.size());
  r.dispatcher_utilization = dispatcher_core_->Utilization(window_start);
  r.mean_outstanding_pf = pf_mean_stats.mean();
  r.pf_imbalance_stddev = pf_stddev_stats.mean();
  uint64_t busy_ns = 0;
  uint64_t busy_wait_ns = 0;
  for (auto& c : worker_cores_) {
    busy_ns += c->window_busy_ns();
    busy_wait_ns += c->window_busy_wait_ns();
  }
  if (r.measured > 0) {
    r.worker_cycles_per_request = static_cast<double>(kCpuClock.ToCycles(busy_ns)) /
                                  static_cast<double>(r.measured);
  }
  if (busy_ns > 0) {
    r.busy_wait_fraction = static_cast<double>(busy_wait_ns) / static_cast<double>(busy_ns);
  }
  r.mean_active_workers = active_worker_stats.mean();
  r.samples = loadgen_->TakeSamples();
  r.metrics = metrics_.Snapshot();
  r.FillCounters(integrity_ != nullptr);
  r.timeline = BuildTimeSeries(r.samples, pf_points, active_points, warmup_ns, measure_ns,
                               Microseconds(100));
  return r;
}

std::vector<RunCounterField> RunResult::CounterFields(bool integrity_on) {
  std::vector<RunCounterField> fields = {
      {"worker.yields", &worker_yields},
      {"worker.qp_full_stalls", &qp_full_stalls},
      {"worker.doorbells_saved", &doorbells_saved},
      {"worker.fetch_retries", &fetch_retries},
      {"worker.fetch_timeouts", &fetch_timeouts},
      {"worker.failovers", &failovers},
      {"reclaimer.writeback_retries", &writeback_retries},
      {"node.suspect_events", &node_suspect_events},
  };
  for (const auto& [name, stat] : kMemStatNames) {
    fields.push_back({name, &(mem.*stat)});
  }
  if (integrity_on) {
    fields.insert(fields.end(), {{"integrity.detected", &integrity.detected},
                                 {"integrity.repaired", &integrity.repaired},
                                 {"integrity.scrub_pages", &integrity.scrub_pages}});
  }
  return fields;
}

void RunResult::FillCounters(bool integrity_on) {
  for (const RunCounterField& f : CounterFields(integrity_on)) {
    *f.field = metrics.Count(f.name);
  }
}

std::vector<BreakdownRow> RunResult::Breakdown(const std::vector<double>& percentiles) const {
  std::vector<BreakdownRow> rows;
  if (samples.empty()) {
    return rows;
  }
  std::vector<const RequestSample*> sorted;
  sorted.reserve(samples.size());
  for (const auto& s : samples) {
    sorted.push_back(&s);
  }
  std::sort(sorted.begin(), sorted.end(), [](const RequestSample* a, const RequestSample* b) {
    return a->server_ns < b->server_ns;
  });
  for (double p : percentiles) {
    size_t idx = static_cast<size_t>(p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
    if (idx >= sorted.size()) {
      idx = sorted.size() - 1;
    }
    const RequestSample& s = *sorted[idx];
    BreakdownRow row;
    row.percentile = p;
    row.total_ns = s.server_ns;
    row.queue_ns = s.queue_ns;
    row.handle_ns = s.handle_ns;
    row.rdma_ns = s.rdma_ns;
    row.busy_wait_ns = s.busy_ns;
    row.tx_wait_ns = s.tx_ns;
    rows.push_back(row);
  }
  return rows;
}

RunResult RunOnce(const SystemConfig& config, Application* app, double offered_rps,
                  SimDuration warmup_ns, SimDuration measure_ns) {
  MdSystem system(config, app);
  return system.Run(offered_rps, warmup_ns, measure_ns);
}

}  // namespace adios
