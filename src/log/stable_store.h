// Append-only file-backed stable storage.
//
// The paper gives two durability options for external input (§II.C/§II.E):
// a passive replica on another machine (ReplicaStore / in-memory logs) or
// "a stable storage device for holding checkpoints". This is the stable
// storage device: length-and-checksum framed records appended to a file,
// synced on every append, and scanned back on recovery. A torn final
// record (crash mid-write) is detected by the checksum and dropped —
// everything before it is intact.
//
// Durability granularity is the *flush*, not the record: append() writes
// and fsyncs one record; append_batch() frames N records into one write
// and one fsync — the group-commit primitive the HTTP ingress gateway
// uses so durability does not cost one fsync per request. A crash during
// a batched write tears at a record boundary exactly like a single
// append: scan() recovers the intact prefix of the batch.
//
// SegmentedStore (segmented_store.h) builds the compactable external log
// from one of these per segment; DeterminismFaultLog writes through to one
// and reloads from it after a process restart.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace tart::log {

class FileStableStore {
 public:
  /// Opens (creating if absent) the store for appending.
  explicit FileStableStore(std::string path);
  ~FileStableStore();

  FileStableStore(const FileStableStore&) = delete;
  FileStableStore& operator=(const FileStableStore&) = delete;

  /// Appends one record durably (framed + checksummed + fsynced). Returns
  /// false on I/O failure.
  bool append(const std::vector<std::byte>& record);

  /// Appends N records with ONE write and ONE fsync: the records become
  /// durable together, for the cost of a single flush. Returns false on
  /// I/O failure (no record of the batch should then be trusted durable,
  /// though an intact prefix may still survive a scan). An empty batch is
  /// a no-op that succeeds without flushing.
  bool append_batch(std::span<const std::vector<std::byte>> records);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t records_written() const {
    return written_.load(std::memory_order_relaxed);
  }
  /// Durability flushes issued (fsync calls): one per append(), one per
  /// non-empty append_batch(). records_written / flushes is the achieved
  /// group-commit factor.
  [[nodiscard]] std::uint64_t flushes() const {
    return flushes_.load(std::memory_order_relaxed);
  }

  /// Reads every intact record from a store file, stopping at the first
  /// torn or corrupted frame. Missing file yields an empty list.
  [[nodiscard]] static std::vector<std::vector<std::byte>> scan(
      const std::string& path);

 private:
  std::string path_;
  int fd_ = -1;
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> flushes_{0};
};

/// On-disk frame overhead per record (magic + size + fingerprint).
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Called once per delivered record with a span into the caller's buffer,
/// valid only for the duration of the call.
using RecordVisitor = std::function<void(std::span<const std::byte>)>;

/// How far walk_frames got: frames passed and the bytes they span.
struct FrameWalk {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

/// Walks the frames at the front of `bytes` (a store file's content). The
/// first `skip` frames are checked only for the frame marker and for lying
/// inside `bytes`; every later frame must also match its checksum and is
/// passed to `visit` (when set). Stops at the first frame that fails, or
/// after `limit` frames in all.
FrameWalk walk_frames(std::span<const std::byte> bytes, std::uint64_t skip,
                      std::uint64_t limit, const RecordVisitor& visit);

/// The first `max_bytes` of a file (all of it by default), read with one
/// buffer allocation. A missing file reads as empty.
[[nodiscard]] std::vector<std::byte> read_file_prefix(
    const std::string& path, std::uint64_t max_bytes = UINT64_MAX);

}  // namespace tart::log
