// Seed-determinism regression matrix (docs/OBSERVABILITY.md).
//
// The simulator's core contract is bit-exact determinism under a fixed seed:
// same config, same seed, same binary => the same event stream, event for
// event. Every subsystem added since the seed commit (prefetching, fault
// injection, replication, tracing itself) must preserve it. This test runs
// the full matrix — four systems x {prefetch on/off} x {fault injection
// on/off} — twice each and requires the two trace streams to be identical,
// which subsumes equality of every derived statistic.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/array_app.h"
#include "src/base/table_printer.h"
#include "src/core/md_system.h"
#include "src/sim/trace.h"

namespace adios {
namespace {

SystemConfig BaseConfig(const std::string& system) {
  if (system == "Hermit") {
    return SystemConfig::Hermit();
  }
  if (system == "DiLOS") {
    return SystemConfig::DiLOS();
  }
  if (system == "DiLOS-P") {
    return SystemConfig::DiLOSP();
  }
  return SystemConfig::Adios();
}

struct Cell {
  std::string system;
  bool prefetch = false;
  bool fault = false;
  bool ctrl = false;  // Overload control: admission + shedding + scaling.
  bool integrity = false;  // Checksummed fetches + scrubber on a corrupting
                           // replicated fabric.
  bool qos = false;  // WDRR link classes + chunked demand READs + compression
                     // (docs/QOS.md).

  std::string Name() const {
    return StrFormat("%s/prefetch=%d/fault=%d/ctrl=%d/integrity=%d/qos=%d", system.c_str(),
                     prefetch ? 1 : 0, fault ? 1 : 0, ctrl ? 1 : 0, integrity ? 1 : 0,
                     qos ? 1 : 0);
  }
};

struct Outcome {
  std::vector<TraceRecord> records;
  uint64_t dropped = 0;
  uint64_t sent = 0;
  uint64_t completed = 0;
};

Outcome RunCell(const Cell& cell) {
  SystemConfig cfg = BaseConfig(cell.system);
  cfg.seed = 1234;
  if (cell.prefetch) {
    cfg.sched.prefetch_window = 8;
  }
  if (cell.fault) {
    cfg.fault.read_loss_rate = 0.002;
    cfg.fault.nack_rate = 0.001;
    cfg.fault.delay_rate = 0.002;
  }
  if (cell.ctrl) {
    // All three controllers on, with admission set below the offered rate so
    // drop decisions are actually part of the compared streams.
    cfg.ctrl.admission_enabled = true;
    cfg.ctrl.admit_rate_rps = 150000;
    cfg.ctrl.shed_enabled = true;
    cfg.ctrl.shed_pf_knee = 4.0;
    cfg.ctrl.scale_enabled = true;
    cfg.ctrl.min_workers = 2;
  }
  if (cell.qos) {
    // The full QoS surface at once: prioritized link classes (kClassDequeue
    // events join the stream), critical-chunk-first delivery (partial
    // completions, early wakes, kChunkReady events when retry is on), the
    // compression cost model, and the background retry sub-budget.
    cfg.fabric.link_classes = kNumTrafficClasses;
    cfg.fabric.chunk_bytes = 1024;
    cfg.fabric.compress_gbps = 200.0;
    cfg.retry.enabled = true;
    cfg.retry.background_max_retries = 2;
  }
  if (cell.integrity) {
    // Verified fetches, the background scrubber, and repair-from-replica on
    // a fabric that corrupts both READ payloads and WRITE landings: the
    // detections, failovers, repairs, and scrub passes must all replay
    // bit-exactly.
    cfg.replication.num_nodes = 2;
    cfg.replication.replicas = 2;
    cfg.integrity.verify = true;
    cfg.integrity.scrub = true;
    cfg.fault.corrupt_rate = 1e-3;
    cfg.fault.write_poison_rate = 1e-3;
  }
  ArrayApp::Options ao;
  ao.entries = 1 << 14;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  sys.tracer().Enable(1 << 21);
  RunResult r = sys.Run(250000, Milliseconds(1), Milliseconds(3));
  Outcome out;
  out.records = sys.tracer().records();
  out.dropped = sys.tracer().dropped();
  out.sent = r.sent;
  out.completed = r.completed;
  return out;
}

void ExpectIdenticalRuns(const Cell& cell) {
  SCOPED_TRACE(cell.Name());
  const Outcome a = RunCell(cell);
  const Outcome b = RunCell(cell);
  ASSERT_GT(a.sent, 0u);
  ASSERT_GT(a.completed, 0u);
  EXPECT_EQ(a.dropped, 0u) << "raise the tracer capacity: a truncated "
                              "stream weakens the comparison";
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.records.size(), b.records.size());
  // Event-for-event identity; report the first divergence precisely
  // instead of dumping both streams.
  for (size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i] != b.records[i]) {
      FAIL() << "first divergence at record " << i << ": run A {t="
             << a.records[i].time << " req=" << a.records[i].request_id
             << " ev=" << TraceEventName(a.records[i].event)
             << " arg=" << a.records[i].arg << "} vs run B {t="
             << b.records[i].time << " req=" << b.records[i].request_id
             << " ev=" << TraceEventName(b.records[i].event)
             << " arg=" << b.records[i].arg << "}";
    }
  }
}

TEST(DeterminismMatrix, IdenticalTraceStreamsAcrossTheFullMatrix) {
  const std::vector<std::string> systems = {"Adios", "DiLOS", "DiLOS-P", "Hermit"};
  for (const std::string& system : systems) {
    for (const bool prefetch : {false, true}) {
      for (const bool fault : {false, true}) {
        ExpectIdenticalRuns(Cell{system, prefetch, fault, /*ctrl=*/false});
      }
    }
  }
}

TEST(DeterminismMatrix, IdenticalTraceStreamsWithIntegrity) {
  // Integrity cells on Adios (the preset the integrity bench drives), with
  // and without the loss/nack/delay faults riding along — corruption plus
  // retries plus failover plus scrubbing, replayed event for event.
  for (const bool fault : {false, true}) {
    ExpectIdenticalRuns(
        Cell{"Adios", /*prefetch=*/false, fault, /*ctrl=*/false, /*integrity=*/true});
  }
}

TEST(DeterminismMatrix, IdenticalTraceStreamsWithQos) {
  // QoS cells on Adios (the preset bench_qos drives), crossed with
  // prefetching (classed prefetch READs sharing the link with chunked
  // demand fetches) and fault injection (retries, duplicated chunked
  // completions, timeouts mid-partial) — all of it must replay bit-exactly.
  for (const bool prefetch : {false, true}) {
    for (const bool fault : {false, true}) {
      ExpectIdenticalRuns(Cell{"Adios", prefetch, fault, /*ctrl=*/false,
                               /*integrity=*/false, /*qos=*/true});
    }
  }
}

TEST(DeterminismMatrix, IdenticalTraceStreamsWithOverloadControl) {
  // Overload control adds drop decisions, shed ticks, and scale steps to the
  // event stream; the decisions themselves must replay bit-exactly. Run the
  // ctrl-on cells on Adios (the preset the overload bench drives), with and
  // without fault injection riding along.
  for (const bool fault : {false, true}) {
    ExpectIdenticalRuns(Cell{"Adios", /*prefetch=*/false, fault, /*ctrl=*/true});
  }
}

}  // namespace
}  // namespace adios
