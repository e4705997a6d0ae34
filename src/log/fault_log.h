// Determinism-fault log.
//
// Recalibrating an estimator reacts to *measured* (non-deterministic)
// execution times, so it would break replay unless recorded: "we must log
// these events synchronously ... During replay, the component must be
// careful to use the old estimator until reaching [the logged virtual
// time], and only then using the new estimator" (§II.G.4).
//
// Each record binds: the component, the new estimator coefficients, the
// virtual time at which they take effect, and a version number. Appends
// are synchronous (stable before the recalibration is applied).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/ids.h"
#include "common/virtual_time.h"
#include "log/stable_store.h"
#include "serde/archive.h"

namespace tart::log {

struct FaultRecord {
  ComponentId component;
  std::uint64_t version = 0;        ///< estimator version this installs
  VirtualTime effective_vt;         ///< first vt computed under the new betas
  std::vector<double> coefficients; ///< [beta0, beta1, ...]

  void encode(serde::Writer& w) const;
  [[nodiscard]] static FaultRecord decode(serde::Reader& r);
};

class DeterminismFaultLog {
 public:
  /// Synchronously appends a record. Versions per component must be
  /// contiguous and effective_vt nondecreasing.
  void append(const FaultRecord& record);

  /// All records for a component with version > `after_version`, in order —
  /// what replay must re-apply on top of a checkpoint's estimator version.
  [[nodiscard]] std::vector<FaultRecord> records_after(
      ComponentId component, std::uint64_t after_version) const;

  /// Latest version recorded for a component (0 when none).
  [[nodiscard]] std::uint64_t latest_version(ComponentId component) const;

  [[nodiscard]] std::uint64_t total_records() const;

  /// Write-through persistence to one file (<log_dir>/faults.log) and its
  /// reload at restart.
  void attach_store(FileStableStore* store);
  void load_from(const std::string& path);

 private:
  mutable std::mutex mutex_;
  std::map<ComponentId, std::vector<FaultRecord>> records_;
  FileStableStore* store_ = nullptr;
};

}  // namespace tart::log
