// Prometheus text exposition (format 0.0.4) — the ONE rendering routine
// behind the gateway's GET /metrics and bench printouts. Hand-rolled
// renderings used to drift apart; now they can't.
//
// Conventions enforced here and checked by lint_exposition (which runs in
// scripts/check.sh against a live scrape):
//   - every family name starts with `tart_`
//   - counters end in `_total`; time is exposed in `_seconds` base units
//   - every family gets # HELP and # TYPE lines before its samples
//   - registry histograms render as summaries (quantile="0.5"/"0.99",
//     _sum, _count) plus a separate `<name>_max` gauge family
//   - with exemplars requested (OpenMetrics mode, off by default), a
//     histogram sample carrying exemplars additionally renders
//     `<name>_bucket{...,le="X"} N # {episode=...} value` lines, one per
//     bucket with a captured exemplar (the newest in its ring)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace tart::core {
struct MetricsSnapshot;
struct StatusReport;
}  // namespace tart::core

namespace tart::obs {

/// Content type a conforming scrape endpoint must serve.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4";

/// Renders a full exposition page: the snapshot's process-wide scalar
/// fields plus every registered series (labelled per-component counters,
/// stall/estimator/gateway histograms). The snapshot's per-component
/// fields are skipped — the registry carries them as labelled families,
/// and emitting both would be the two-divergent-counting-paths bug this
/// module exists to kill.
[[nodiscard]] std::string render_prometheus(const core::MetricsSnapshot& snap,
                                            const Registry& registry,
                                            bool with_exemplars = false);

/// Renders pre-collected samples only (tart-obs --series, cross-node
/// merged views where no single MetricsSnapshot applies). Exemplar
/// rendering is opt-in: plain Prometheus 0.0.4 consumers do not expect
/// `# {...}` suffixes, so the default output never carries them.
[[nodiscard]] std::string render_prometheus_samples(
    const std::vector<Sample>& samples, bool with_exemplars = false);

/// Checks an exposition page against the conventions above. Returns
/// std::nullopt when clean, otherwise a one-line description of the first
/// violation (unknown family, counter without _total, sample before
/// HELP/TYPE, unparseable value, name without tart_ prefix...).
[[nodiscard]] std::optional<std::string> lint_exposition(
    const std::string& text);

/// GET /status body: the silence wavefront as JSON, then the placement
/// epoch, placement table and in-flight migrations. Infinite silence
/// horizons render as the string "inf". When `samples` is non-null, a
/// "stall_exemplars" section links histogram buckets to the stall episode
/// ids the flight recorder knows about.
[[nodiscard]] std::string render_status_json(
    const core::StatusReport& report,
    const std::vector<Sample>* samples = nullptr);

/// One JSONL time-series line ("{"ts_ms":..,"metrics":{..},"series":[..]}"
/// plus a newline): the snapshot's scalar fields and every sample, with
/// histograms reduced to count/p50/p99/max/sum. `tart-obs --series=FILE`
/// appends one per poll round of GET /obs.
[[nodiscard]] std::string render_series_line(
    std::int64_t ts_ms, const core::MetricsSnapshot& snap,
    const std::vector<Sample>& series);

}  // namespace tart::obs
