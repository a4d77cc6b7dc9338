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
  require(replication.num_nodes >= 1, "replication.num_nodes >= 1", replication.num_nodes);
  require(replication.replicas >= 1, "replication.replicas >= 1", replication.replicas);
  require(replication.replicas <= replication.num_nodes,
          "replication.replicas <= replication.num_nodes", replication.replicas);
  // Op-lifecycle values that would fail late otherwise: a pacing bandwidth
  // <= 0 or NaN divides by zero in SerializationNs, and a zero deadline fires
  // before any completion can land, so every op burns its budget and fails.
  require(replication.resilver_bw_gbps > 0.0, "replication.resilver_bw_gbps > 0",
          replication.resilver_bw_gbps);
  require(integrity.scrub_bw_gbps > 0.0, "integrity.scrub_bw_gbps > 0", integrity.scrub_bw_gbps);
  require(!RetryOn() || retry.timeout_ns > 0,
          "retry.timeout_ns > 0 while retry is on (retry.enabled, fault injection or "
          "integrity.verify)",
          static_cast<double>(retry.timeout_ns));
  require(!fault.enabled() || fault.blackout_node < replication.num_nodes,
          "fault.blackout_node < replication.num_nodes", fault.blackout_node);
  return errors;
}

}  // namespace adios
