// Message payloads.
//
// TART components exchange values, not references (no shared memory between
// components). Payload is a closed sum of the value shapes the examples and
// experiments need; it is deterministic to copy, compare, and serialize,
// which the recovery machinery relies on (duplicate-elimination by
// timestamp, checkpoint fingerprints, cross-engine framing).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "serde/archive.h"

namespace tart {

class Payload {
 public:
  using Variant = std::variant<std::monostate, std::int64_t, double,
                               std::string, std::vector<std::int64_t>,
                               std::vector<std::string>,
                               std::vector<std::byte>>;

  Payload() = default;
  Payload(std::int64_t v) : value_(v) {}                      // NOLINT
  Payload(double v) : value_(v) {}                            // NOLINT
  Payload(std::string v) : value_(std::move(v)) {}            // NOLINT
  Payload(const char* v) : value_(std::string(v)) {}          // NOLINT
  Payload(std::vector<std::int64_t> v) : value_(std::move(v)) {}  // NOLINT
  Payload(std::vector<std::string> v) : value_(std::move(v)) {}   // NOLINT
  Payload(std::vector<std::byte> v) : value_(std::move(v)) {}     // NOLINT

  [[nodiscard]] bool empty() const {
    return std::holds_alternative<std::monostate>(value_);
  }

  [[nodiscard]] std::int64_t as_int() const {
    return std::get<std::int64_t>(value_);
  }
  [[nodiscard]] double as_double() const { return std::get<double>(value_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const std::vector<std::int64_t>& as_ints() const {
    return std::get<std::vector<std::int64_t>>(value_);
  }
  [[nodiscard]] const std::vector<std::string>& as_strings() const {
    return std::get<std::vector<std::string>>(value_);
  }
  [[nodiscard]] const std::vector<std::byte>& as_bytes() const {
    return std::get<std::vector<std::byte>>(value_);
  }

  [[nodiscard]] const Variant& value() const { return value_; }

  /// Approximate heap + inline footprint in bytes. Used by the profiler's
  /// retention-buffer accounting (observational; never fed to scheduling).
  [[nodiscard]] std::size_t approx_bytes() const {
    struct Sizer {
      std::size_t operator()(std::monostate) const { return 0; }
      std::size_t operator()(std::int64_t) const { return sizeof(std::int64_t); }
      std::size_t operator()(double) const { return sizeof(double); }
      std::size_t operator()(const std::string& s) const { return s.size(); }
      std::size_t operator()(const std::vector<std::int64_t>& v) const {
        return v.size() * sizeof(std::int64_t);
      }
      std::size_t operator()(const std::vector<std::string>& v) const {
        std::size_t n = 0;
        for (const auto& s : v) n += s.size() + sizeof(std::string);
        return n;
      }
      std::size_t operator()(const std::vector<std::byte>& v) const {
        return v.size();
      }
    };
    return std::visit(Sizer{}, value_);
  }

  bool operator==(const Payload& other) const = default;

  void encode(serde::Writer& w) const;
  [[nodiscard]] static Payload decode(serde::Reader& r);
  /// Reads past one encoded payload with the same Reader calls as
  /// decode(), building nothing: accepts and refuses exactly what decode()
  /// does.
  static void skip(serde::Reader& r);

 private:
  Variant value_;
};

}  // namespace tart
