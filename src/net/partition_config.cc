#include "net/partition_config.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "net/socket.h"
#include "serde/archive.h"

namespace tart::net {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw ConfigError("deployment config line " + std::to_string(line) + ": " +
                    what);
}

}  // namespace

const PartitionSpec* DeploymentConfig::find_partition(
    const std::string& name) const {
  for (const auto& p : partitions)
    if (p.name == name) return &p;
  return nullptr;
}

const PartitionSpec* DeploymentConfig::partition_of_engine(EngineId id) const {
  for (const auto& p : partitions)
    if (p.engine == id) return &p;
  return nullptr;
}

std::uint64_t DeploymentConfig::fingerprint() const {
  // Combined form kept for operator-facing diagnostics; protocol checks use
  // the topology/placement split below.
  return topology_fingerprint() ^ (placement_fingerprint() * 0x9E3779B97F4A7C15ull);
}

std::uint64_t DeploymentConfig::topology_fingerprint() const {
  serde::Writer w;
  w.write_string(topology);
  w.write_varint(params.size());
  for (const auto& [k, v] : params) {
    w.write_string(k);
    w.write_string(v);
  }
  w.write_varint(partitions.size());
  for (const auto& p : partitions) {
    w.write_string(p.name);
    w.write_string(p.data_addr);
    // http_addr deliberately excluded: node-operator
    // plumbing, not part of the distributed protocol two peers must agree
    // on. Placement is excluded too — it drifts under live migration.
  }
  return serde::fingerprint(w.bytes());
}

std::uint64_t DeploymentConfig::placement_fingerprint() const {
  serde::Writer w;
  w.write_varint(placement.size());
  for (const auto& [c, p] : placement) {
    w.write_string(c);
    w.write_string(p);
  }
  return serde::fingerprint(w.bytes());
}

DeploymentConfig DeploymentConfig::parse(const std::string& text) {
  DeploymentConfig cfg;
  std::map<std::string, std::string> https;     // partition -> http addr
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    if (const auto hash = raw.find('#'); hash != std::string::npos)
      raw.resize(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(lineno, "expected 'directive = value'");
    const std::string value = trim(line.substr(eq + 1));
    std::istringstream head(line.substr(0, eq));
    std::string directive, name;
    head >> directive >> name;
    if (value.empty()) fail(lineno, "empty value");

    if (directive == "topology") {
      if (!name.empty()) fail(lineno, "'topology' takes no name");
      if (!cfg.topology.empty()) fail(lineno, "duplicate 'topology'");
      cfg.topology = value;
    } else if (directive == "param") {
      if (name.empty()) fail(lineno, "'param' needs a key");
      if (!cfg.params.emplace(name, value).second)
        fail(lineno, "duplicate param '" + name + "'");
    } else if (directive == "partition") {
      if (name.empty()) fail(lineno, "'partition' needs a name");
      if (cfg.find_partition(name) != nullptr)
        fail(lineno, "duplicate partition '" + name + "'");
      if (!SockAddr::parse(value))
        fail(lineno, "bad address '" + value + "' (want host:port)");
      cfg.partitions.push_back(
          PartitionSpec{name, value, "", EngineId::invalid()});
    } else if (directive == "control") {
      // Accepted and ignored: nodes are operated over HTTP only, but
      // deployment files written for the retired binary control protocol
      // (perfbench/workload.cc writes them for fanin-2node) must keep
      // parsing.
    } else if (directive == "http") {
      if (name.empty()) fail(lineno, "'http' needs a partition name");
      if (!SockAddr::parse(value))
        fail(lineno, "bad address '" + value + "' (want host:port)");
      if (!https.emplace(name, value).second)
        fail(lineno, "duplicate http for '" + name + "'");
    } else if (directive == "place") {
      if (name.empty()) fail(lineno, "'place' needs a component name");
      if (!cfg.placement.emplace(name, value).second)
        fail(lineno, "component '" + name + "' placed twice");
    } else {
      fail(lineno, "unknown directive '" + directive + "'");
    }
  }

  if (cfg.topology.empty()) throw ConfigError("missing 'topology' directive");
  if (cfg.partitions.empty())
    throw ConfigError("no 'partition' declarations");
  std::sort(cfg.partitions.begin(), cfg.partitions.end(),
            [](const PartitionSpec& a, const PartitionSpec& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 0; i < cfg.partitions.size(); ++i) {
    cfg.partitions[i].engine = EngineId(static_cast<std::uint32_t>(i));
    if (const auto it = https.find(cfg.partitions[i].name);
        it != https.end()) {
      cfg.partitions[i].http_addr = it->second;
      https.erase(it);
    }
  }
  if (!https.empty())
    throw ConfigError("http declared for unknown partition '" +
                      https.begin()->first + "'");
  for (const auto& [component, partition] : cfg.placement)
    if (cfg.find_partition(partition) == nullptr)
      throw ConfigError("component '" + component +
                        "' placed on unknown partition '" + partition + "'");
  return cfg;
}

DeploymentConfig DeploymentConfig::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open deployment config: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

}  // namespace tart::net
