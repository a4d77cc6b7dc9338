#include "src/core/system_config.h"

#include <sstream>

namespace adios {

std::vector<std::string> SystemConfig::Validate() const {
  std::vector<std::string> errors;
  const auto require = [&errors](bool ok, const char* rule, double got) {
    if (!ok) {
      std::ostringstream os;
      os << rule << " (got " << got << ")";
      errors.push_back(os.str());
    }
  };
  require(num_workers >= 1, "num_workers >= 1", num_workers);
  // A ratio <= 0 or NaN reaches an undefined float-to-integer cast when the
  // local frame count is derived from it.
  require(local_memory_ratio > 0.0, "local_memory_ratio > 0", local_memory_ratio);
  require(reclaim_low_watermark >= 0.0, "reclaim_low_watermark >= 0", reclaim_low_watermark);
  require(reclaim_high_watermark >= reclaim_low_watermark,
          "reclaim_high_watermark >= reclaim_low_watermark", reclaim_high_watermark);
  require(fabric.link_classes <= kNumTrafficClasses, "fabric.link_classes <= kNumTrafficClasses",
          fabric.link_classes);
  // Compression is off at 0. A NaN would pass the fabric's `<= 0` off-tests
  // and shrink wire bytes while charging no engine time.
  require(fabric.compress_gbps >= 0.0, "fabric.compress_gbps >= 0", fabric.compress_gbps);
  require(replication.num_nodes >= 1, "replication.num_nodes >= 1", replication.num_nodes);
  require(replication.replicas >= 1, "replication.replicas >= 1", replication.replicas);
  require(replication.replicas <= replication.num_nodes,
          "replication.replicas <= replication.num_nodes", replication.replicas);
  // Op-lifecycle values that would fail late otherwise: a pacing bandwidth
  // <= 0 or NaN divides by zero in SerializationNs, and a zero deadline fires
  // before any completion can land, so every op burns its budget and fails.
  require(integrity.scrub_bw_gbps > 0.0, "integrity.scrub_bw_gbps > 0", integrity.scrub_bw_gbps);
  require(!RetryOn() || retry.timeout_ns > 0,
          "retry.timeout_ns > 0 while retry is on (retry.enabled, fault injection or "
          "integrity.verify)",
          static_cast<double>(retry.timeout_ns));
  require(!fault.enabled() || fault.blackout_node < replication.num_nodes,
          "fault.blackout_node < replication.num_nodes", fault.blackout_node);
  // Overload-control loops check their own parameters only while on.
  require(!ctrl.admission_enabled || ctrl.admit_rate_rps > 0.0,
          "ctrl.admit_rate_rps > 0 while admission is on", ctrl.admit_rate_rps);
  require(!ctrl.admission_enabled || ctrl.admit_burst >= 1.0,
          "ctrl.admit_burst >= 1 while admission is on", ctrl.admit_burst);
  require(!ctrl.shed_enabled || ctrl.shed_pf_knee > 0.0,
          "ctrl.shed_pf_knee > 0 while shedding is on", ctrl.shed_pf_knee);
  require(!ctrl.scale_enabled || ctrl.min_workers >= 1,
          "ctrl.min_workers >= 1 while scaling is on", ctrl.min_workers);
  require(!ctrl.scale_enabled || ctrl.min_workers <= num_workers,
          "ctrl.min_workers <= num_workers while scaling is on", ctrl.min_workers);
  require(!ctrl.scale_enabled || ctrl.scale_down_queue < ctrl.scale_up_queue,
          "ctrl.scale_down_queue < ctrl.scale_up_queue while scaling is on",
          ctrl.scale_down_queue);
  return errors;
}

}  // namespace adios
