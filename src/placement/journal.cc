#include "placement/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <map>
#include <sstream>

#include "net/wire_format.h"
#include "serde/archive.h"

namespace tart::placement {
namespace {

constexpr const char* kJournalFile = "migration.journal";

std::vector<std::byte> encode_record(const JournalRecord& r) {
  serde::Writer w;
  w.write_u8(static_cast<std::uint8_t>(r.kind));
  w.write_varint(r.epoch);
  w.write_u32(r.component.value());
  w.write_u32(r.from.value());
  w.write_u32(r.to.value());
  return w.take();
}

JournalRecord decode_record(const std::vector<std::byte>& payload) {
  serde::Reader r(payload);
  JournalRecord rec;
  const std::uint8_t kind = r.read_u8();
  if (kind < static_cast<std::uint8_t>(JournalRecordKind::kIntent) ||
      kind > static_cast<std::uint8_t>(JournalRecordKind::kApplied))
    throw serde::DecodeError("unknown journal record kind");
  rec.kind = static_cast<JournalRecordKind>(kind);
  rec.epoch = r.read_varint();
  rec.component = ComponentId(r.read_u32());
  rec.from = EngineId(r.read_u32());
  rec.to = EngineId(r.read_u32());
  if (!r.at_end()) throw serde::DecodeError("trailing bytes in journal record");
  return rec;
}

bool write_all(int fd, const std::byte* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

const char* journal_kind_name(JournalRecordKind kind) {
  switch (kind) {
    case JournalRecordKind::kIntent:
      return "intent";
    case JournalRecordKind::kStaged:
      return "staged";
    case JournalRecordKind::kAdopt:
      return "adopt";
    case JournalRecordKind::kRelease:
      return "release";
    case JournalRecordKind::kAbort:
      return "abort";
    case JournalRecordKind::kApplied:
      return "applied";
  }
  return "?";
}

MigrationJournal::MigrationJournal(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) path_ = dir_ + "/" + kJournalFile;
}

bool MigrationJournal::append(const JournalRecord& record) {
  if (dir_.empty()) return true;  // volatile node: nothing to make durable
  const std::vector<std::byte> payload = encode_record(record);
  serde::Writer w;
  w.write_u32(static_cast<std::uint32_t>(payload.size()));
  for (const std::byte b : payload) w.write_u8(std::to_integer<std::uint8_t>(b));
  w.write_u32(net::crc32(payload));
  const std::vector<std::byte>& framed = w.bytes();

  const int fd = ::open(path_.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool ok =
      write_all(fd, framed.data(), framed.size()) && ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

JournalRecovery MigrationJournal::recover(const std::string& dir) {
  JournalRecovery out;
  if (dir.empty()) return out;
  std::ifstream in(dir + "/" + kJournalFile, std::ios::binary);
  if (!in) return out;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string& raw = buf.str();
  const auto* bytes = reinterpret_cast<const std::byte*>(raw.data());

  const auto read_le32 = [&raw](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t{static_cast<unsigned char>(raw[at + i])} << (8 * i);
    return v;
  };
  std::size_t off = 0;
  while (off + 4 <= raw.size()) {
    const std::uint32_t len = read_le32(off);
    if (off + 4 + len + 4 > raw.size()) break;  // torn tail
    std::vector<std::byte> payload(bytes + off + 4, bytes + off + 4 + len);
    const std::uint32_t crc = read_le32(off + 4 + len);
    if (net::crc32(payload) != crc) break;  // torn/corrupt tail
    try {
      out.records.push_back(decode_record(payload));
    } catch (const serde::DecodeError&) {
      break;
    }
    off += 4 + len + 4;
  }

  // Reduce the record sequence to the recovery views the boot path needs.
  std::map<std::uint32_t, JournalRecord> overrides;  // component -> winner
  std::map<std::uint32_t, JournalRecord> intents;    // component -> open intent
  std::map<std::uint64_t, JournalRecord> staged;     // epoch -> open staged
  for (const JournalRecord& rec : out.records) {
    out.max_epoch = std::max(out.max_epoch, rec.epoch);
    const std::uint32_t c = rec.component.value();
    switch (rec.kind) {
      case JournalRecordKind::kIntent:
        intents[c] = rec;
        break;
      case JournalRecordKind::kStaged:
        staged[rec.epoch] = rec;
        break;
      case JournalRecordKind::kAdopt:
        staged.erase(rec.epoch);
        out.adopted.push_back(rec);
        [[fallthrough]];
      case JournalRecordKind::kApplied: {
        const auto it = overrides.find(c);
        if (it == overrides.end() || it->second.epoch <= rec.epoch)
          overrides[c] = rec;
        break;
      }
      case JournalRecordKind::kRelease: {
        if (const auto it = intents.find(c);
            it != intents.end() && it->second.epoch <= rec.epoch)
          intents.erase(it);
        const auto it = overrides.find(c);
        if (it == overrides.end() || it->second.epoch <= rec.epoch)
          overrides[c] = rec;
        break;
      }
      case JournalRecordKind::kAbort:
        if (const auto it = intents.find(c);
            it != intents.end() && it->second.epoch <= rec.epoch)
          intents.erase(it);
        break;
    }
  }
  for (const auto& [c, rec] : overrides) out.overrides.push_back(rec);
  for (const auto& [c, rec] : intents) out.pending_intents.push_back(rec);
  for (const auto& [e, rec] : staged) out.pending_staged.push_back(rec);
  return out;
}

std::string MigrationJournal::slice_path(const std::string& dir,
                                         std::uint64_t epoch) {
  return dir + "/migration.slice." + std::to_string(epoch);
}

bool MigrationJournal::write_slice_file(const std::string& path,
                                        const std::vector<std::byte>& b) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool wrote = write_all(fd, b.data(), b.size()) && ::fsync(fd) == 0;
  ::close(fd);
  if (!wrote) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  const auto slash = path.find_last_of('/');
  if (slash != std::string::npos) fsync_dir(path.substr(0, slash));
  return true;
}

std::optional<std::vector<std::byte>> MigrationJournal::read_slice_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string& raw = buf.str();
  const auto* bytes = reinterpret_cast<const std::byte*>(raw.data());
  return std::vector<std::byte>(bytes, bytes + raw.size());
}

void MigrationJournal::remove_slice_files(const std::string& dir,
                                          std::uint64_t below_epoch) {
  for (std::uint64_t e = below_epoch > 16 ? below_epoch - 16 : 0;
       e < below_epoch; ++e)
    ::unlink(slice_path(dir, e).c_str());
}

}  // namespace tart::placement
