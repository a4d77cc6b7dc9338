// Runtime invariant-checker configuration (src/check/invariant_checker.h).
//
// Kept dependency-free so core/system_config.h can embed it without pulling
// the checker's implementation headers into every translation unit.

#ifndef ADIOS_SRC_CHECK_CHECK_OPTIONS_H_
#define ADIOS_SRC_CHECK_CHECK_OPTIONS_H_

#include <cstdint>

namespace adios {

struct CheckOptions {
  // Master switch. MdSystem also honours the ADIOS_CHECKS=1 environment
  // variable so CI can turn checking on without touching configs.
  bool enabled = false;

  // XOR-scramble the remote-region bytes of a page while it is evicted, and
  // unscramble on re-map: a handler reading through a non-resident page then
  // sees garbage deterministically instead of silently-correct stale bytes.
  // Off by default even when `enabled`: the simulator's contract is that
  // residency affects timing, never data — handlers may legitimately read a
  // multi-page object after one of its pages lost residency mid-handler.
  // Targeted tests (checker_test) turn it on to pin down true use-after-evict.
  bool poison_evicted_pages = false;

  // Abort on any context switch that touches an engine-tracked context
  // without going through Engine::RawSwitch.
  bool check_switch_discipline = true;

  // Simulated nanoseconds between periodic audits; 0 = only the final audit.
  // Each audit runs every check: fiber and universal-stack canaries; frame
  // conservation (resident + fetching + write-backs in flight == used
  // frames) and the page table's own counters; the tracer's per-request
  // event grammar, plus a termination check at the final audit; and the
  // integrity layer's checksum ledger on replicated runs.
  uint64_t audit_interval_ns = 100'000;

  // Abort on violation (production checking). False = count violations and
  // keep going, for tests that assert on the counters.
  bool fatal = true;
};

}  // namespace adios

#endif  // ADIOS_SRC_CHECK_CHECK_OPTIONS_H_
