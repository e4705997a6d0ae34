// Named topology catalog for partitioned deployments.
//
// Every tart-node process must build the *identical* global topology —
// wire ids are assigned in creation order and double as the deterministic
// tie-break, so the graph is part of the application's deterministic
// specification. Shipping a serialized graph would work, but a catalog of
// named builders is simpler and sidesteps serializing component factories:
// the deployment file names a catalog entry plus parameters, and every
// process reconstructs the same graph from them (the HELLO fingerprint
// check guards against catalog/param skew between binaries).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/topology.h"
#include "net/partition_config.h"

namespace tart::net {

/// A built topology plus name->id maps so deployment files and HTTP
/// clients can speak in names.
struct BuiltTopology {
  core::Topology topology;
  std::map<std::string, ComponentId> components;
  std::map<std::string, WireId> inputs;   ///< external inputs, by name
  std::map<std::string, WireId> outputs;  ///< external outputs, by name
};

/// Builds a catalog topology. Known names:
///   - "wordcount": param senders = N (default 2). Components sender1..N
///     (external input named after each sender) fanning into "merger";
///     external output "total".
///   - "chain": param stages = N (default 3). External input "in" ->
///     stage1..N passthroughs -> external output "out".
/// Throws ConfigError for unknown names or bad params.
[[nodiscard]] BuiltTopology build_topology(
    const std::string& name, const std::map<std::string, std::string>& params);

[[nodiscard]] std::vector<std::string> topology_names();

}  // namespace tart::net
