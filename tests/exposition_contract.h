// The GET /metrics families perfbench's per-layer rows read
// (perfbench/workload.cc), with the TYPE each is served as. A page that
// renamed or retyped one of them would silently zero a benchmark row, so
// the gateway and node tests pin them here.
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "obs/exposition.h"

namespace tart::testing {

inline constexpr std::pair<std::string_view, std::string_view>
    kBenchmarkFamilies[] = {
        {"tart_net_frames_in_total", "counter"},
        {"tart_net_frames_out_total", "counter"},
        {"tart_gw_commit_batches_total", "counter"},
        {"tart_gw_commit_records_total", "counter"},
        {"tart_pessimism_wait_seconds_total", "counter"},
        {"tart_pessimism_events_total", "counter"},
        {"tart_probes_sent_total", "counter"},
        {"tart_duplicates_discarded_total", "counter"},
        {"tart_messages_processed_total", "counter"},
        {"tart_gw_ack_latency_seconds", "summary"},
        {"tart_store_flushes_total", "counter"},
        {"tart_log_disk_bytes", "gauge"},
};

/// Checks a scraped page: it lints clean, names no family twice, and serves
/// every benchmark family with its TYPE — all but the tart_net_* ones when
/// `with_peer_transport` is false (only a node's peer transport registers
/// those).
inline void expect_serves_benchmark_families(const std::string& page,
                                             bool with_peer_transport) {
  const auto lint = obs::lint_exposition(page);
  EXPECT_FALSE(lint.has_value()) << *lint;
  std::set<std::string> typed;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string family = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(typed.insert(family).second) << "family twice: " << family;
  }
  for (const auto& [family, type] : kBenchmarkFamilies) {
    if (!with_peer_transport && family.starts_with("tart_net_")) continue;
    const std::string want =
        "# TYPE " + std::string(family) + " " + std::string(type) + "\n";
    EXPECT_NE(page.find(want), std::string::npos)
        << "page does not serve " << family << " as a " << type;
  }
}

}  // namespace tart::testing
