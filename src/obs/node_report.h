// One node's full telemetry in one binary document: the GET /obs body.
//
// Everything an aggregator needs to merge a fleet exactly — the merged
// MetricsSnapshot, every registry sample with its full histogram (so
// percentiles merge bucketwise across nodes, which the summary quantiles
// in GET /metrics cannot do), and the silence wavefront with placement —
// attributed to the node that produced it. tart-obs polls it
// (GET /obs) and receives it (POST /obs, `tart-node --push`) in the same
// shape, so polled and pushed nodes aggregate identically.
//
// Layout (serde varints, docs/OBSERVABILITY.md): node name, the snapshot
// scalars in TART_METRICS_SCALAR_FIELDS order, the sample set
// (obs::encode_samples), then the status report — components with their
// input wires, placement epoch, placement entries, in-flight migrations.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/status.h"
#include "obs/registry.h"

namespace tart::obs {

/// Media type of an encoded NodeReport on the HTTP surface.
inline constexpr const char* kNodeReportContentType =
    "application/x-tart-obs";

struct NodeReport {
  std::string node;  ///< partition name ("" for a single-process gateway)
  core::MetricsSnapshot metrics;
  std::vector<Sample> samples;
  core::StatusReport status;

  [[nodiscard]] std::vector<std::byte> encode() const;
  /// Throws serde::DecodeError on malformed input (trailing bytes too).
  [[nodiscard]] static NodeReport decode(const std::byte* data,
                                         std::size_t size);
  [[nodiscard]] static NodeReport decode(const std::string& body) {
    return decode(reinterpret_cast<const std::byte*>(body.data()),
                  body.size());
  }
};

}  // namespace tart::obs
