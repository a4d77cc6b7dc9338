#include "src/net/load_generator.h"

#include <sanitizer/asan_interface.h>

namespace adios {

LoadGenerator::LoadGenerator(Engine* engine, RdmaFabric* fabric, Dispatcher* dispatcher,
                             Application* app, double rate_rps, SimDuration warmup_ns,
                             SimDuration measure_ns, uint64_t seed, const Options& options)
    : engine_(engine),
      fabric_(fabric),
      dispatcher_(dispatcher),
      app_(app),
      rate_rps_(rate_rps),
      warmup_ns_(warmup_ns),
      measure_ns_(measure_ns),
      options_(options),
      arrival_rng_(seed),
      workload_rng_(seed ^ 0x9e3779b97f4a7c15ull) {
  ADIOS_CHECK(rate_rps > 0.0);
  samples_.reserve(1024);
}

void LoadGenerator::Start() {
  ADIOS_CHECK(op_latency_.size() == app_->NumOpTypes());  // RegisterMetrics ran.
  end_time_ = engine_->now() + warmup_ns_ + measure_ns_;
  ScheduleNextArrival();
}

void LoadGenerator::RegisterMetrics(MetricRegistry* registry) {
  for (uint32_t op = 0; op < app_->NumOpTypes(); ++op) {
    const MetricLabels labels = MetricLabels::Op(app_->OpName(op));
    HistogramMetric* latency = registry->GetHistogram("loadgen.e2e_ns", labels);
    op_latency_.push_back(latency);
    registry->RegisterProbe("loadgen.completed", labels, [latency] {
      return static_cast<double>(latency->histogram().count());
    });
  }
  registry->RegisterProbe("loadgen.sent", {},
                          [this] { return static_cast<double>(sent_); });
  registry->RegisterProbe("loadgen.failed", {},
                          [this] { return static_cast<double>(failed_); });
  registry->RegisterProbe("loadgen.dropped", {},
                          [this] { return static_cast<double>(dropped_); });
}

double LoadGenerator::RateMultiplierAt(SimTime now) const {
  SimDuration total = 0;
  for (const RatePhase& p : options_.rate_schedule) {
    total += p.duration_ns;
  }
  if (total == 0) {
    return 1.0;
  }
  SimDuration offset = now % total;
  for (const RatePhase& p : options_.rate_schedule) {
    if (offset < p.duration_ns) {
      return p.multiplier;
    }
    offset -= p.duration_ns;
  }
  return options_.rate_schedule.back().multiplier;
}

void LoadGenerator::ScheduleNextArrival() {
  const double mult = RateMultiplierAt(engine_->now());
  const double mean_gap_ns = 1e9 / (rate_rps_ * (mult > 0.0 ? mult : 1e-6));
  const SimDuration gap =
      static_cast<SimDuration>(arrival_rng_.NextExponential(mean_gap_ns)) + 1;
  engine_->Schedule(gap, [this] {
    if (engine_->now() >= end_time_) {
      return;  // Generation window over; in-flight requests drain.
    }
    EmitRequest();
    ScheduleNextArrival();
  });
}

Request* LoadGenerator::AcquireRequest() {
  if (free_requests_.empty()) {
    return new Request();
  }
  Request* req = free_requests_.back().release();
  free_requests_.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(req, sizeof(Request));
  *req = Request{};
  return req;
}

void LoadGenerator::RecycleRequest(Request* req) {
  // Poisoned while parked, so a use after reply or drop still trips ASan.
  ASAN_POISON_MEMORY_REGION(req, sizeof(Request));
  free_requests_.emplace_back(req);
}

void LoadGenerator::EmitRequest() {
  Request* req = AcquireRequest();
  req->id = next_id_++;
  app_->FillRequest(workload_rng_, req);
  req->gen_time = engine_->now();
  ++sent_;
  Dispatcher* dispatcher = dispatcher_;
  fabric_->ClientInject(req->request_bytes, [dispatcher, req] { dispatcher->OnRx(req); });
}

void LoadGenerator::OnReply(Request* req) {
  req->reply_time = engine_->now();
  ++completed_;
  if (req->failed) {
    ++failed_;
  }
  const SimTime measure_start = warmup_ns_;
  if (req->gen_time >= measure_start) {
    ++measured_completed_;
    last_measured_reply_ = req->reply_time;
    if (req->failed) {
      // Error reply: the latency of a failed request is not a service-time
      // sample (it is dominated by the retry window), and its payload is
      // garbage — exclude it from the histograms and skip verification.
      ++measured_failed_;
      RecycleRequest(req);
      return;
    }
    ADIOS_CHECK(req->op < op_latency_.size());
    op_latency_[req->op]->Observe(req->E2eNs());
    server_.Add(req->ServerNs());
    queue_.Add(req->QueueNs());
    if (samples_.size() < options_.max_samples) {
      RequestSample s;
      s.id = req->id;
      s.op = req->op;
      s.finish_ns = req->reply_time;
      s.e2e_ns = req->E2eNs();
      s.server_ns = req->ServerNs();
      s.queue_ns = req->QueueNs();
      s.handle_ns = req->HandleNs();
      s.rdma_ns = req->rdma_wait_ns;
      s.busy_ns = req->busy_wait_ns;
      s.tx_ns = req->tx_wait_ns;
      s.faults = req->faults;
      samples_.push_back(s);
    }
    if (options_.verify_every > 0 && completed_ % options_.verify_every == 0) {
      ADIOS_CHECK(app_->Verify(*req));
    }
  }
  RecycleRequest(req);
}

void LoadGenerator::OnDrop(Request* req) {
  ++dropped_;
  RecycleRequest(req);
}

Histogram LoadGenerator::e2e_all() const {
  Histogram all;
  for (const HistogramMetric* op : op_latency_) {
    all.Merge(op->histogram());
  }
  return all;
}

double LoadGenerator::ThroughputRps() const {
  if (measured_completed_ == 0) {
    return 0.0;
  }
  // Completions of measured requests over the measurement window. Use the
  // configured window; replies landing after generation stopped still
  // belong to offered load within the window.
  const double seconds = static_cast<double>(measure_ns_) * 1e-9;
  return static_cast<double>(measured_completed_) / seconds;
}

double LoadGenerator::GoodputRps() const {
  if (measured_completed_ <= measured_failed_) {
    return 0.0;
  }
  const double seconds = static_cast<double>(measure_ns_) * 1e-9;
  return static_cast<double>(measured_completed_ - measured_failed_) / seconds;
}

}  // namespace adios
