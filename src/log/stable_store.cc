#include "log/stable_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>

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
    const std::string& path, std::uint64_t* intact_bytes) {
  std::vector<std::vector<std::byte>> records;
  std::uint64_t intact = 0;
  std::ifstream in(path, std::ios::binary);
  if (intact_bytes != nullptr) *intact_bytes = 0;
  if (!in.is_open()) return records;
  in.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  for (;;) {
    std::byte header[16];
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (in.gcount() != sizeof(header)) break;  // clean EOF or torn header
    serde::Reader r(header, sizeof(header));
    if (r.read_u32() != kMagic) break;  // corrupted frame marker
    const std::uint32_t size = r.read_u32();
    const std::uint64_t checksum = r.read_u64();
    // A size running past the end of the file is a torn (or corrupt)
    // frame: stop before allocating for it.
    if (size > file_bytes - intact - sizeof(header)) break;

    std::vector<std::byte> record(size);
    in.read(reinterpret_cast<char*>(record.data()), size);
    if (in.gcount() != static_cast<std::streamsize>(size)) break;  // torn
    if (serde::fingerprint(record) != checksum) break;  // corrupted
    records.push_back(std::move(record));
    intact += sizeof(header) + size;
  }
  if (intact_bytes != nullptr) *intact_bytes = intact;
  return records;
}

}  // namespace tart::log
