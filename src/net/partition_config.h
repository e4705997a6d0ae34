// Deployment description for multi-process (partitioned) runs.
//
// A deployment file names a topology from the catalog (src/net/topologies),
// declares the partitions (one OS process each, with a data address the
// socket transport listens on), and places every component onto a
// partition. The format is line-oriented:
//
//   # comment
//   topology = wordcount
//   param senders = 2
//   partition left  = 127.0.0.1:7101
//   partition right = 127.0.0.1:7102
//   http     right  = 127.0.0.1:7302   # optional: advertised gateway addr
//   place sender1 = left
//   place sender2 = left
//   place merger  = right
//
// Operators reach a node only through its HTTP gateway (tart-node --http).
// `control NAME = ADDR` lines, which named the retired binary control
// protocol's listen address, are accepted and ignored so older deployment
// files keep working.
//
// Addresses may be numeric IPv4, bracketed IPv6 ("[fe80::1]:7101"), or
// hostnames ("db-2.rack1:7101") — hostnames resolve via getaddrinfo when
// the node listens or dials (net/socket.h), so one config file can name
// machines symbolically across a cluster.
//
// Every process parses the SAME file and builds the SAME global topology;
// only construction is restricted to the local partition. Engine ids are
// assigned by sorted partition name — a pure function of the file — so
// placement (and therefore wire routing) is identical in every process.
// The deployment fingerprint hashes the canonical form of the file; peers
// exchange it in the HELLO handshake and refuse mismatched connections,
// catching the "two nodes run different configs" operator error early.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.h"

namespace tart::net {

class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PartitionSpec {
  std::string name;
  std::string data_addr;  ///< host:port the ConnectionManager listens on
  std::string http_addr;  ///< advertised HTTP gateway (for 307 redirects)
  EngineId engine;        ///< index in sorted-name order
};

struct DeploymentConfig {
  std::string topology;
  std::map<std::string, std::string> params;
  std::vector<PartitionSpec> partitions;  ///< sorted by name
  std::map<std::string, std::string> placement;  ///< component -> partition

  [[nodiscard]] const PartitionSpec* find_partition(
      const std::string& name) const;
  [[nodiscard]] const PartitionSpec* partition_of_engine(EngineId id) const;

  /// FNV-1a over the canonical serialization (sorted, whitespace-free);
  /// identical files — and only identical deployments — agree.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Topology-only fingerprint: topology + params + partition names/data
  /// addresses, with placement EXCLUDED. Wire and engine ids are a pure
  /// function of this subset, so two nodes that agree on it can exchange
  /// frames safely even when their placement views have drifted apart
  /// (live migration moves components without touching the config file).
  /// This is the fingerprint the HELLO handshake enforces and the one
  /// durable checkpoints are stamped with.
  [[nodiscard]] std::uint64_t topology_fingerprint() const;

  /// Placement-only fingerprint (component -> partition map). Informational:
  /// carried for diagnostics, never a connection gate — see
  /// docs/PLACEMENT.md for the epoch rules that reconcile drift.
  [[nodiscard]] std::uint64_t placement_fingerprint() const;

  /// Parses the format above. Throws ConfigError with a line number on any
  /// malformed or inconsistent input (unknown directive, duplicate
  /// partition, placement onto an undeclared partition, ...).
  [[nodiscard]] static DeploymentConfig parse(const std::string& text);
  [[nodiscard]] static DeploymentConfig parse_file(const std::string& path);
};

}  // namespace tart::net
