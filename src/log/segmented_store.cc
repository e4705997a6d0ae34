#include "log/segmented_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>

#include "common/logging.h"

namespace tart::log {

namespace {

std::uint64_t framed_size(std::span<const std::span<const std::byte>> records) {
  std::uint64_t n = 0;
  for (const auto& r : records) n += kFrameHeaderBytes + r.size();
  return n;
}

}  // namespace

SegmentedStore::SegmentedStore(std::string dir, std::string base)
    : SegmentedStore(std::move(dir), std::move(base), Options()) {}

SegmentedStore::SegmentedStore(std::string dir, std::string base,
                               Options options)
    : dir_(std::move(dir)), base_(std::move(base)), options_(options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);

  // Adopt a legacy single-file log as the index-0 segment.
  const std::string legacy = dir_ + "/" + base_ + ".log";
  if (fs::exists(legacy, ec)) {
    bool have_segments = false;
    const std::string prefix = base_ + ".";
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0 && name.size() > 4 &&
          name.compare(name.size() - 4, 4, ".seg") == 0) {
        have_segments = true;
        break;
      }
    }
    if (!have_segments) {
      std::rename(legacy.c_str(), segment_path(0).c_str());
    }
  }

  // Discover surviving segments, sorted by first index.
  std::vector<std::uint64_t> firsts;
  const std::string prefix = base_ + ".";
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + 4 ||
        name.compare(name.size() - 4, 4, ".seg") != 0)
      continue;
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - 4);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    firsts.push_back(std::stoull(digits));
  }
  std::sort(firsts.begin(), firsts.end());

  const std::lock_guard<std::mutex> lk(mu_);
  if (firsts.empty()) {
    open_active_locked(0);
    return;
  }
  // Sealed segments are known from their names and sizes alone.
  for (std::size_t i = 0; i + 1 < firsts.size(); ++i) {
    Segment seg;
    seg.first_index = firsts[i];
    seg.records = firsts[i + 1] - firsts[i];
    seg.path = segment_path(firsts[i]);
    struct stat st{};
    if (::stat(seg.path.c_str(), &st) == 0)
      seg.bytes = static_cast<std::uint64_t>(st.st_size);
    sealed_.push_back(seg);
  }
  // The highest segment is the writable one. A torn tail (crash mid-write)
  // is cut off so frames appended by this incarnation stay reachable by
  // readers (which stop at the first bad frame).
  active_meta_.first_index = firsts.back();
  active_meta_.path = segment_path(firsts.back());
  const std::vector<std::byte> content = read_file_prefix(active_meta_.path);
  const FrameWalk intact = walk_frames(content, 0, UINT64_MAX, nullptr);
  active_meta_.records = intact.frames;
  active_meta_.bytes = intact.bytes;
  if (content.size() != intact.bytes) {
    TART_ERROR << "segmented store: truncating torn tail of "
               << active_meta_.path << " (" << content.size() << " -> "
               << intact.bytes << " bytes)";
    if (::truncate(active_meta_.path.c_str(),
                   static_cast<off_t>(intact.bytes)) != 0) {
      TART_ERROR << "segmented store: truncate failed: " << errno;
    }
  }
  active_ = std::make_unique<FileStableStore>(active_meta_.path);
}

std::string SegmentedStore::segment_path(std::uint64_t first_index) const {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%020llu",
                static_cast<unsigned long long>(first_index));
  return dir_ + "/" + base_ + "." + digits + ".seg";
}

void SegmentedStore::open_active_locked(std::uint64_t first_index) {
  active_meta_ = Segment{};
  active_meta_.first_index = first_index;
  active_meta_.path = segment_path(first_index);
  active_ = std::make_unique<FileStableStore>(active_meta_.path);
}

void SegmentedStore::rotate_locked() {
  active_.reset();  // closes the fd; the segment is now sealed
  const std::uint64_t next = active_meta_.first_index + active_meta_.records;
  sealed_.push_back(active_meta_);
  open_active_locked(next);
}

bool SegmentedStore::append(std::span<const std::byte> record) {
  return append_batch({&record, 1});
}

bool SegmentedStore::append_batch(
    std::span<const std::span<const std::byte>> records) {
  if (records.empty()) return true;
  const std::lock_guard<std::mutex> lk(mu_);
  // Rotation happens between batches only: one batch = one durability
  // point = one segment, so a torn batch tears inside a single file.
  if (active_meta_.records > 0 && active_meta_.bytes >= options_.segment_bytes)
    rotate_locked();
  if (!active_->append_batch(records)) return false;
  active_meta_.records += records.size();
  active_meta_.bytes += framed_size(records);
  written_ += records.size();
  ++flushes_;
  return true;
}

std::uint64_t SegmentedStore::records_written() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return written_;
}

std::uint64_t SegmentedStore::flushes() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return flushes_;
}

void SegmentedStore::read_from(std::uint64_t from,
                               const RecordVisitor& visit) const {
  std::vector<Segment> segments;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    segments = sealed_;
    segments.push_back(active_meta_);
  }
  for (const Segment& seg : segments) {
    if (seg.first_index + seg.records <= from) continue;  // wholly covered
    const std::uint64_t skip =
        from > seg.first_index ? from - seg.first_index : 0;
    // The active segment may grow meanwhile: read only what was counted.
    const std::vector<std::byte> content =
        read_file_prefix(seg.path, seg.bytes);
    const FrameWalk walk = walk_frames(content, skip, seg.records, visit);
    if (walk.frames < seg.records)
      throw CorruptSegmentError(
          "segment " + seg.path + " holds " + std::to_string(walk.frames) +
          " intact records of " + std::to_string(seg.records));
  }
}

std::uint64_t SegmentedStore::truncate_below(std::uint64_t index) {
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t reclaimed = 0;
  auto it = sealed_.begin();
  while (it != sealed_.end() && it->first_index + it->records <= index) {
    if (::unlink(it->path.c_str()) != 0 && errno != ENOENT) {
      TART_ERROR << "segmented store: unlink " << it->path
                 << " failed: " << errno;
      break;  // keep the segment; retry at the next checkpoint
    }
    reclaimed += it->records;
    ++segments_deleted_;
    it = sealed_.erase(it);
  }
  records_reclaimed_ += reclaimed;
  return reclaimed;
}

std::uint64_t SegmentedStore::first_retained_index() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return sealed_.empty() ? active_meta_.first_index
                         : sealed_.front().first_index;
}

std::uint64_t SegmentedStore::next_index() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return active_meta_.first_index + active_meta_.records;
}

std::uint64_t SegmentedStore::segment_count() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return sealed_.size() + 1;
}

std::uint64_t SegmentedStore::bytes_on_disk() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = active_meta_.bytes;
  for (const Segment& seg : sealed_) n += seg.bytes;
  return n;
}

std::uint64_t SegmentedStore::segments_deleted() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return segments_deleted_;
}

std::uint64_t SegmentedStore::records_reclaimed() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return records_reclaimed_;
}

}  // namespace tart::log
