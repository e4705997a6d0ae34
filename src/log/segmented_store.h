// Rotated-segment stable storage: the external log of every runtime with
// a log_dir (there is no other on-disk log format).
//
// One FileStableStore would grow one file forever, so the only way to
// reclaim space would be to rewrite it in place — unsafe under the
// log-before-ack contract. SegmentedStore keeps the same framing and
// group-commit semantics but rotates to a fresh file once the active segment exceeds
// `segment_bytes`. Sealed segments are immutable; checkpoint-gated
// compaction (src/durability) deletes a sealed segment only when every
// record in it lies below the newest durable checkpoint's covered offset —
// the gating invariant documented in docs/RECOVERY.md. Records carry
// global indices (append order across all segments); a segment file is
// named `<base>.<first_index>.seg` so the index of every surviving record
// follows from the names alone after any number of deletions.
//
// Opening reads only the active (highest) segment, to cut a torn tail
// before any append: a sealed segment's record count is the gap to the
// next segment's first index and its size comes from stat. A restart then
// reads only the log suffix past its checkpoint with read_from, one bulk
// read per segment it needs, each delivered record checksummed once.
//
// A legacy single-file `<base>.log` (the unsegmented messages.log that
// older builds wrote without durable checkpoints) is adopted on open by
// renaming it to the index-0 segment: the upgrade path for such
// directories.
//
// Thread-safe: appends (gateway group commit), truncation (checkpoint
// manager) and size queries (gauge sweeps) race by design.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "log/stable_store.h"

namespace tart::log {

/// A segment holds fewer intact records than its file-name range says: the
/// log lost records, and every later index would shift if a reader went on.
class CorruptSegmentError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SegmentedStore {
 public:
  struct Options {
    /// Seal the active segment and rotate once it reaches this many bytes.
    std::uint64_t segment_bytes = 4ull << 20;
  };

  /// Opens (creating if needed) the segment set `<dir>/<base>.*.seg`. The
  /// highest-index segment becomes the active one; if its tail is torn
  /// (crash mid-write) the file is truncated back to the intact prefix so
  /// later appends stay scannable.
  SegmentedStore(std::string dir, std::string base, Options options);
  SegmentedStore(std::string dir, std::string base);

  bool append(const std::vector<std::byte>& record);
  bool append_batch(std::span<const std::vector<std::byte>> records);
  [[nodiscard]] std::uint64_t records_written() const;
  [[nodiscard]] std::uint64_t flushes() const;

  /// Calls `visit` once per record with global index >= `from`, in index
  /// order. Sealed segments wholly below `from` are not opened; each other
  /// segment is read with one bulk read. In the segment that straddles
  /// `from`, the frames below it are skipped by their headers (marker and
  /// bounds checked, checksum not); every delivered record's checksum is
  /// verified. Throws CorruptSegmentError when a segment yields fewer
  /// intact records than its index range (as it would for a segment that a
  /// concurrent truncate_below deletes: read before compaction runs);
  /// exceptions from `visit` pass through.
  void read_from(std::uint64_t from, const RecordVisitor& visit) const;

  /// Deletes every sealed segment whose records all have index < `index`
  /// (the active segment is never deleted). Returns records reclaimed.
  std::uint64_t truncate_below(std::uint64_t index);

  /// Global index of the earliest record still on disk.
  [[nodiscard]] std::uint64_t first_retained_index() const;
  /// Global index the next appended record will get.
  [[nodiscard]] std::uint64_t next_index() const;
  [[nodiscard]] std::uint64_t segment_count() const;
  [[nodiscard]] std::uint64_t bytes_on_disk() const;
  [[nodiscard]] std::uint64_t segments_deleted() const;
  [[nodiscard]] std::uint64_t records_reclaimed() const;

 private:
  struct Segment {
    std::uint64_t first_index = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::string path;
  };

  [[nodiscard]] std::string segment_path(std::uint64_t first_index) const;
  /// Seals the active segment and opens a fresh one. Requires mu_.
  void rotate_locked();
  void open_active_locked(std::uint64_t first_index);

  const std::string dir_;
  const std::string base_;
  const Options options_;

  mutable std::mutex mu_;
  std::vector<Segment> sealed_;
  Segment active_meta_;
  std::unique_ptr<FileStableStore> active_;

  std::uint64_t written_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t segments_deleted_ = 0;
  std::uint64_t records_reclaimed_ = 0;
};

}  // namespace tart::log
