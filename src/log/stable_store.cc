#include "log/stable_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "serde/archive.h"

namespace tart::log {

namespace {
constexpr std::uint32_t kMagic = 0x54A27106;  // frame marker

void frame_record(serde::Writer& out, const std::vector<std::byte>& record) {
  out.write_u32(kMagic);
  out.write_u32(static_cast<std::uint32_t>(record.size()));
  out.write_u64(serde::fingerprint(record));
  out.write_raw(record.data(), record.size());
}

bool write_all(int fd, const std::vector<std::byte>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

FileStableStore::FileStableStore(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
}

FileStableStore::~FileStableStore() {
  if (fd_ >= 0) ::close(fd_);
}

bool FileStableStore::append(const std::vector<std::byte>& record) {
  return append_batch({&record, 1});
}

bool FileStableStore::append_batch(
    std::span<const std::vector<std::byte>> records) {
  if (fd_ < 0) return false;
  if (records.empty()) return true;
  serde::Writer buf;
  for (const auto& record : records) frame_record(buf, record);
  if (!write_all(fd_, buf.bytes())) return false;
  // One durability point for the whole batch — this is the group commit.
  if (::fsync(fd_) != 0) return false;
  written_.fetch_add(records.size(), std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<std::vector<std::byte>> FileStableStore::scan(
    const std::string& path) {
  std::vector<std::vector<std::byte>> records;
  walk_frames(read_file_prefix(path), 0, UINT64_MAX,
              [&records](std::span<const std::byte> record) {
                records.emplace_back(record.begin(), record.end());
              });
  return records;
}

FrameWalk walk_frames(std::span<const std::byte> bytes, std::uint64_t skip,
                      std::uint64_t limit, const RecordVisitor& visit) {
  FrameWalk walk;
  while (walk.frames < limit &&
         bytes.size() - walk.bytes >= kFrameHeaderBytes) {
    serde::Reader r(bytes.data() + walk.bytes, kFrameHeaderBytes);
    if (r.read_u32() != kMagic) break;  // corrupted frame marker
    const std::uint32_t size = r.read_u32();
    const std::uint64_t checksum = r.read_u64();
    // A size running past the end of the bytes is a torn (or corrupt) frame.
    if (size > bytes.size() - walk.bytes - kFrameHeaderBytes) break;
    const auto record = bytes.subspan(walk.bytes + kFrameHeaderBytes, size);
    if (walk.frames >= skip) {
      if (serde::fingerprint(record) != checksum) break;  // corrupted
      if (visit) visit(record);
    }
    ++walk.frames;
    walk.bytes += kFrameHeaderBytes + size;
  }
  return walk;
}

std::vector<std::byte> read_file_prefix(const std::string& path,
                                        std::uint64_t max_bytes) {
  std::vector<std::byte> bytes;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return bytes;
  struct stat st{};
  if (::fstat(fd, &st) == 0)
    bytes.resize(std::min(static_cast<std::uint64_t>(st.st_size), max_bytes));
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // the file shrank under us: keep what was read
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

}  // namespace tart::log
