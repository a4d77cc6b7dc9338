// End-to-end integrity knobs (docs/INTEGRITY.md).
//
// All features default off: with `verify`, `scrub` and `oracle` all false no
// IntegrityLayer is constructed, so region writes are not stamped, and no
// verify cycles are charged (the determinism matrix pins this).

#ifndef ADIOS_SRC_INTEGRITY_INTEGRITY_CONFIG_H_
#define ADIOS_SRC_INTEGRITY_INTEGRITY_CONFIG_H_

#include <cstdint>

#include "src/base/time.h"

namespace adios {

struct IntegrityConfig {
  // Verify-on-fetch: after a demand/prefetch READ completes, recompute the
  // page checksum before mapping the frame; a mismatch is handled like a
  // failed read (failover to an in-sync replica, or abort at R1).
  bool verify = false;

  // Background scrubber: paced bounce-frame reads of cold remote pages that
  // find latent corruption before a demand fault does. Runs on the
  // BackgroundCopier's paced lane beside re-silver; see the scrub_* knobs
  // below.
  bool scrub = false;

  // Poison oracle: construct the integrity ledger (so the invariant checker
  // and RunResult can count corrupted payloads that were served to the app)
  // WITHOUT verifying or repairing anything. This is how a verify-off run
  // demonstrably serves corrupted bytes in bench_integrity.
  bool oracle = false;

  // Scrub pacing: per-page interval is SerializationNs(page, scrub_bw_gbps),
  // i.e. the scrubber consumes at most this fraction of link bandwidth.
  double scrub_bw_gbps = 1.0;
  // Pages issued per scrub pass (one kScrubStart/kScrubDone bracket).
  uint32_t scrub_batch_pages = 32;
  // Idle gap between the end of one scrub pass and the start of the next.
  SimDuration scrub_pass_gap_ns = 1'000'000;

  bool enabled() const { return verify || scrub || oracle; }
};

}  // namespace adios

#endif  // ADIOS_SRC_INTEGRITY_INTEGRITY_CONFIG_H_
