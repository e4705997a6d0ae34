#include "obs/exposition.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <unordered_map>

#include "core/status.h"

namespace tart::obs {

namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

std::string escape_help(const std::string& h) {
  std::string out;
  out.reserve(h.size());
  for (const char c : h) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

void append_header(std::string& out, const std::string& name,
                   const std::string& help, const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += escape_help(help);
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// Renders `{k="v",...}`; `extra` appends one more pair (quantile).
void append_labels(std::string& out, const Labels& labels,
                   const char* extra_key = nullptr,
                   const char* extra_val = nullptr) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const Label& l : labels) {
    if (!first) out += ',';
    first = false;
    out += l.key;
    out += "=\"";
    out += escape_label(l.value);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_val;
    out += '"';
  }
  out += '}';
}

void append_sample_line(std::string& out, const std::string& name,
                        const Labels& labels, double value,
                        const char* extra_key = nullptr,
                        const char* extra_val = nullptr) {
  out += name;
  append_labels(out, labels, extra_key, extra_val);
  out += ' ';
  append_double(out, value);
  out += '\n';
}

/// One OpenMetrics exemplar'd bucket line:
///   name_bucket{labels,le="U"} N # {episode="E",component="C",wire="W"} v
/// Only buckets that actually captured an exemplar are rendered (the
/// summary quantiles above already carry the full distribution); `cum` is
/// the cumulative count through the bucket, `le` its upper bound ("+Inf"
/// for the overflow bucket).
void append_exemplar_bucket_line(std::string& out, const std::string& name,
                                 const Labels& labels, const std::string& le,
                                 std::uint64_t cum, const BucketExemplar& be,
                                 double scale) {
  out += name;
  out += "_bucket";
  out += '{';
  for (const Label& l : labels) {
    out += l.key;
    out += "=\"";
    out += escape_label(l.value);
    out += "\",";
  }
  out += "le=\"";
  out += le;
  out += "\"} ";
  out += std::to_string(cum);
  out += " # {episode=\"";
  out += std::to_string(be.ex.episode);
  out += "\",component=\"";
  out += std::to_string(be.ex.component);
  out += "\",wire=\"";
  out += std::to_string(be.ex.wire);
  out += "\"} ";
  append_double(out, be.ex.value * scale);
  out += '\n';
}

}  // namespace

std::string render_prometheus_samples(const std::vector<Sample>& samples,
                                      bool with_exemplars) {
  std::string out;
  // Samples arrive sorted by (name, labels); each run of equal names is
  // one family.
  for (std::size_t i = 0; i < samples.size();) {
    std::size_t j = i;
    while (j < samples.size() && samples[j].name == samples[i].name) ++j;
    const Sample& head = samples[i];
    switch (head.kind) {
      case Kind::kCounter:
        append_header(out, head.name, head.help, "counter");
        for (std::size_t k = i; k < j; ++k) {
          const Sample& s = samples[k];
          out += s.name;
          append_labels(out, s.labels);
          out += ' ';
          if (s.scale == 1.0)
            out += std::to_string(s.counter_value);
          else
            append_double(out,
                          static_cast<double>(s.counter_value) * s.scale);
          out += '\n';
        }
        break;
      case Kind::kGauge:
        append_header(out, head.name, head.help, "gauge");
        for (std::size_t k = i; k < j; ++k) {
          const Sample& s = samples[k];
          out += s.name;
          append_labels(out, s.labels);
          out += ' ';
          out += std::to_string(s.gauge_value);
          out += '\n';
        }
        break;
      case Kind::kHistogram: {
        append_header(out, head.name, head.help, "summary");
        for (std::size_t k = i; k < j; ++k) {
          const Sample& s = samples[k];
          if (!s.hist) continue;
          const stats::Histogram& h = *s.hist;
          append_sample_line(out, s.name, s.labels,
                            h.percentile(50.0) * s.scale, "quantile", "0.5");
          append_sample_line(out, s.name, s.labels,
                            h.percentile(99.0) * s.scale, "quantile", "0.99");
          append_sample_line(out, s.name + "_sum", s.labels,
                            h.sum() * s.scale);
          out += s.name + "_count";
          append_labels(out, s.labels);
          out += ' ';
          out += std::to_string(h.count());
          out += '\n';
        }
        if (with_exemplars) {
          // OpenMetrics mode: bucket lines carrying `# {...}` exemplars,
          // rendered only for buckets that captured one (newest per
          // bucket). The lint accepts these as _bucket children of the
          // summary family.
          for (std::size_t k = i; k < j; ++k) {
            const Sample& s = samples[k];
            if (!s.hist || s.exemplars.empty()) continue;
            const auto& buckets = s.hist->buckets();
            // Newest exemplar per bucket: the snapshot is oldest-first
            // within each ring, so a forward scan keeps the last seen.
            std::unordered_map<std::uint32_t, const BucketExemplar*> newest;
            for (const BucketExemplar& be : s.exemplars) newest[be.bucket] = &be;
            std::vector<std::uint32_t> order;
            order.reserve(newest.size());
            for (const auto& [b, be] : newest) order.push_back(b);
            std::sort(order.begin(), order.end());
            for (const std::uint32_t b : order) {
              if (b >= buckets.size()) continue;
              std::uint64_t cum = 0;
              for (std::uint32_t x = 0; x <= b; ++x) cum += buckets[x];
              std::string le;
              if (b + 1 == buckets.size()) {
                le = "+Inf";
              } else {
                le.clear();
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.9g",
                              static_cast<double>(b + 1) *
                                  s.hist->bucket_width() * s.scale);
                le = buf;
              }
              append_exemplar_bucket_line(out, s.name, s.labels, le, cum,
                                          *newest[b], s.scale);
            }
          }
        }
        // Summaries cannot carry a max; expose it as a sibling gauge family.
        const std::string max_name = head.name + "_max";
        append_header(out, max_name, "Largest single observation of " +
                                          head.name + ".",
                      "gauge");
        for (std::size_t k = i; k < j; ++k) {
          const Sample& s = samples[k];
          if (!s.hist) continue;
          append_sample_line(out, max_name, s.labels,
                            s.hist->max_seen() * s.scale);
        }
        break;
      }
    }
    i = j;
  }
  return out;
}

std::string render_prometheus(const Registry& registry, bool with_exemplars) {
  return render_prometheus_samples(registry.samples(), with_exemplars);
}

// --- Lint -------------------------------------------------------------------

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_' ||
        name[0] == ':'))
    return false;
  for (const char c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':'))
      return false;
  return true;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool parse_value(const std::string& token) {
  if (token == "+Inf" || token == "-Inf" || token == "NaN") return true;
  const char* begin = token.c_str();
  char* end = nullptr;
  std::strtod(begin, &end);
  return end != begin && *end == '\0';
}

}  // namespace

std::optional<std::string> lint_exposition(const std::string& text) {
  std::unordered_map<std::string, std::string> type_of;
  std::set<std::string> helped;
  std::size_t lineno = 0;
  std::size_t pos = 0;
  auto fail = [&](const std::string& what) {
    return "exposition line " + std::to_string(lineno) + ": " + what;
  };
  while (pos < text.size()) {
    ++lineno;
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type"; other comments pass.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_help = line[2] == 'H';
        const std::size_t name_begin = 7;
        const std::size_t name_end = line.find(' ', name_begin);
        if (name_end == std::string::npos)
          return fail("truncated HELP/TYPE line");
        const std::string family = line.substr(name_begin, name_end - name_begin);
        if (!valid_metric_name(family)) return fail("bad family name");
        if (family.rfind("tart_", 0) != 0)
          return fail("family '" + family + "' lacks the tart_ prefix");
        if (is_help) {
          if (!helped.insert(family).second)
            return fail("duplicate HELP for family '" + family + "'");
        } else {
          const std::string type = line.substr(name_end + 1);
          if (type != "counter" && type != "gauge" && type != "summary" &&
              type != "histogram" && type != "untyped")
            return fail("unknown TYPE '" + type + "'");
          if ((type == "counter") != ends_with(family, "_total"))
            return fail(type == "counter"
                            ? "counter family '" + family +
                                  "' does not end in _total"
                            : type + " family '" + family +
                                  "' ends in _total, which is for counters");
          if (!type_of.emplace(family, type).second)
            return fail("duplicate TYPE for family '" + family + "'");
        }
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t name_end = 0;
    while (name_end < line.size() && line[name_end] != '{' &&
           line[name_end] != ' ')
      ++name_end;
    const std::string name = line.substr(0, name_end);
    if (!valid_metric_name(name)) return fail("bad sample name");
    if (name.rfind("tart_", 0) != 0)
      return fail("sample '" + name + "' lacks the tart_ prefix");
    std::size_t cursor = name_end;
    if (cursor < line.size() && line[cursor] == '{') {
      // Scan past the label set, respecting quoted values.
      ++cursor;
      bool in_quotes = false;
      for (; cursor < line.size(); ++cursor) {
        const char c = line[cursor];
        if (in_quotes) {
          if (c == '\\')
            ++cursor;
          else if (c == '"')
            in_quotes = false;
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == '}') {
          break;
        }
      }
      if (cursor >= line.size()) return fail("unterminated label set");
      ++cursor;
    }
    if (cursor >= line.size() || line[cursor] != ' ')
      return fail("sample '" + name + "' has no value");
    std::string value = line.substr(cursor + 1);
    // OpenMetrics exemplar suffix: "<value> # {labels} <exemplar-value>".
    // Only legal on _bucket samples (and counters, which we never emit
    // exemplars on); plain Prometheus mode never produces one.
    if (const std::size_t ex = value.find(" # "); ex != std::string::npos) {
      const std::string exemplar = value.substr(ex + 3);
      value = value.substr(0, ex);
      if (!ends_with(name, "_bucket"))
        return fail("exemplar on non-bucket sample '" + name + "'");
      if (exemplar.empty() || exemplar[0] != '{')
        return fail("malformed exemplar on '" + name + "'");
      std::size_t ec = 1;
      bool in_quotes = false;
      for (; ec < exemplar.size(); ++ec) {
        const char c = exemplar[ec];
        if (in_quotes) {
          if (c == '\\')
            ++ec;
          else if (c == '"')
            in_quotes = false;
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == '}') {
          break;
        }
      }
      if (ec >= exemplar.size())
        return fail("unterminated exemplar label set on '" + name + "'");
      ++ec;
      if (ec >= exemplar.size() || exemplar[ec] != ' ' ||
          !parse_value(exemplar.substr(ec + 1)))
        return fail("exemplar on '" + name + "' has no parseable value");
    }
    if (!parse_value(value))
      return fail("unparseable value '" + value + "' for '" + name + "'");
    // Resolve the owning family: exact, or a _sum/_count/_bucket child of
    // a summary/histogram family.
    std::string family;
    if (type_of.count(name) != 0) {
      family = name;
    } else {
      for (const char* suffix : {"_sum", "_count", "_bucket"}) {
        if (!ends_with(name, suffix)) continue;
        const std::string base =
            name.substr(0, name.size() - std::strlen(suffix));
        const auto it = type_of.find(base);
        if (it != type_of.end() &&
            (it->second == "summary" || it->second == "histogram")) {
          family = base;
          break;
        }
      }
    }
    if (family.empty())
      return fail("sample '" + name + "' appears before its TYPE line");
    if (helped.count(family) == 0)
      return fail("family '" + family + "' has TYPE but no HELP");
  }
  return std::nullopt;
}

// --- Status JSON ------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_horizon(std::string& out, std::int64_t ticks) {
  if (ticks == std::numeric_limits<std::int64_t>::max())
    out += "\"inf\"";
  else
    out += std::to_string(ticks);
}

}  // namespace

std::string render_status_json(const core::StatusReport& report,
                               const std::vector<Sample>* samples) {
  std::string out = "{\"components\":[";
  bool first_comp = true;
  for (const core::ComponentStatus& c : report.components) {
    if (!first_comp) out += ',';
    first_comp = false;
    out += "{\"id\":" + std::to_string(c.id.value());
    out += ",\"name\":\"" + json_escape(c.name) + '"';
    out += ",\"crashed\":";
    out += c.crashed ? "true" : "false";
    out += ",\"vt\":" + std::to_string(c.vt_ticks);
    out += ",\"pending\":" + std::to_string(c.pending);
    out += ",\"exhausted\":";
    out += c.exhausted ? "true" : "false";
    out += ",\"held\":";
    out += c.held ? "true" : "false";
    if (c.held) {
      out += ",\"held_vt\":" + std::to_string(c.held_vt);
      out += ",\"held_wire\":" + std::to_string(c.held_wire.value());
    }
    out += ",\"inputs\":[";
    bool first_wire = true;
    for (const core::WireStatus& w : c.inputs) {
      if (!first_wire) out += ',';
      first_wire = false;
      out += "{\"wire\":" + std::to_string(w.wire.value());
      out += ",\"sender\":\"" + json_escape(w.sender) + '"';
      out += ",\"horizon\":";
      append_horizon(out, w.horizon_ticks);
      out += ",\"pending\":" + std::to_string(w.pending);
      out += ",\"blocking\":";
      out += w.blocking ? "true" : "false";
      out += '}';
    }
    out += "]}";
  }
  out += "],\"placement_epoch\":" + std::to_string(report.placement_epoch);
  out += ",\"placement\":[";
  for (std::size_t i = 0; i < report.placement.size(); ++i) {
    const core::PlacementEntry& e = report.placement[i];
    if (i != 0) out += ',';
    out += "{\"component\":" + std::to_string(e.component);
    out += ",\"engine\":" + std::to_string(e.engine);
    out += ",\"epoch\":" + std::to_string(e.epoch) + '}';
  }
  out += "],\"migrations\":[";
  for (std::size_t i = 0; i < report.migrations.size(); ++i) {
    const core::MigrationStatus& m = report.migrations[i];
    if (i != 0) out += ',';
    out += "{\"epoch\":" + std::to_string(m.epoch);
    out += ",\"component\":" + std::to_string(m.component);
    out += ",\"from_engine\":" + std::to_string(m.from_engine);
    out += ",\"to_engine\":" + std::to_string(m.to_engine);
    out += ",\"stage\":\"" + json_escape(m.stage) + "\"}";
  }
  out += ']';
  if (samples != nullptr) {
    // Stall exemplars: the bridge from a histogram bucket to the flight
    // recorder (`tart-trace explain --episode <id>`).
    out += ",\"stall_exemplars\":[";
    bool first_ex = true;
    for (const Sample& s : *samples) {
      for (const BucketExemplar& be : s.exemplars) {
        if (!first_ex) out += ',';
        first_ex = false;
        out += "{\"metric\":\"" + json_escape(s.name) + '"';
        out += ",\"labels\":{";
        bool first_label = true;
        for (const Label& l : s.labels) {
          if (!first_label) out += ',';
          first_label = false;
          out += '"' + json_escape(l.key) + "\":\"" + json_escape(l.value) +
                 '"';
        }
        out += '}';
        out += ",\"bucket\":" + std::to_string(be.bucket);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", be.ex.value * s.scale);
        out += ",\"value\":";
        out += buf;
        out += ",\"episode\":" + std::to_string(be.ex.episode);
        out += ",\"component\":" + std::to_string(be.ex.component);
        out += ",\"wire\":" + std::to_string(be.ex.wire);
        out += '}';
      }
    }
    out += ']';
  }
  out += '}';
  return out;
}

// --- JSONL series line --------------------------------------------------------

std::string render_series_line(std::int64_t ts_ms,
                               const std::vector<Sample>& series) {
  std::string out = "{\"ts_ms\":" + std::to_string(ts_ms) + ",\"series\":[";
  bool first = true;
  for (const Sample& s : series) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"labels\":{";
    bool first_label = true;
    for (const Label& l : s.labels) {
      if (!first_label) out += ',';
      first_label = false;
      out += '"' + json_escape(l.key) + "\":\"" + json_escape(l.value) + '"';
    }
    out += '}';
    switch (s.kind) {
      case Kind::kCounter:
        out += ",\"value\":" + std::to_string(s.counter_value);
        break;
      case Kind::kGauge:
        out += ",\"value\":" + std::to_string(s.gauge_value);
        break;
      case Kind::kHistogram:
        if (s.hist) {
          const stats::Histogram& h = *s.hist;
          out += ",\"count\":" + std::to_string(h.count());
          out += ",\"p50\":";
          append_double(out, h.percentile(50.0));
          out += ",\"p99\":";
          append_double(out, h.percentile(99.0));
          out += ",\"max\":";
          append_double(out, h.max_seen());
          out += ",\"sum\":";
          append_double(out, h.sum());
        }
        break;
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

}  // namespace tart::obs
