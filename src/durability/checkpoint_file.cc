#include "durability/checkpoint_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

namespace tart::durability {

namespace {

constexpr std::uint32_t kMagic = 0x54434B50;  // "TCKP"
constexpr std::uint32_t kVersion = 1;

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

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Parses `ckpt.<digits>.tckp`; returns 0 for anything else (real ids
/// start at 1).
std::uint64_t id_of(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  if (name.rfind("ckpt.", 0) != 0) return 0;
  const std::size_t dot = name.rfind(".tckp");
  if (dot == std::string::npos || dot <= 5) return 0;
  const std::string digits = name.substr(5, dot - 5);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return 0;
  return std::strtoull(digits.c_str(), nullptr, 10);
}

void encode_plan(serde::Writer& w, const checkpoint::RestorePlan& plan) {
  plan.base.encode(w);
  w.write_varint(plan.deltas.size());
  for (const auto& delta : plan.deltas) delta.encode(w);
}

checkpoint::RestorePlan decode_plan(serde::Reader& r) {
  checkpoint::RestorePlan plan;
  plan.base = checkpoint::ComponentSnapshot::decode(r);
  const std::uint64_t deltas = r.read_count();
  plan.deltas.reserve(deltas);
  for (std::uint64_t i = 0; i < deltas; ++i)
    plan.deltas.push_back(checkpoint::ComponentSnapshot::decode(r));
  return plan;
}

}  // namespace

std::string checkpoint_path(const std::string& dir, std::uint64_t id) {
  char name[40];
  std::snprintf(name, sizeof(name), "ckpt.%020llu.tckp",
                static_cast<unsigned long long>(id));
  return (std::filesystem::path(dir) / name).string();
}

void DurableCheckpoint::encode(serde::Writer& w) const {
  w.write_varint(id);
  w.write_u64(deployment_fp);
  w.write_varint(covered_record_index);
  w.write_varint(wires.size());
  for (const auto& wc : wires) {
    w.write_u32(wc.wire.value());
    w.write_varint(wc.covered_seq);
    w.write_vt(wc.last_vt);
  }
  w.write_varint(plans.size());
  for (const auto& [component, plan] : plans) {
    w.write_u32(component.value());
    encode_plan(w, plan);
  }
}

DurableCheckpoint DurableCheckpoint::decode(serde::Reader& r) {
  DurableCheckpoint c;
  c.id = r.read_varint();
  c.deployment_fp = r.read_u64();
  c.covered_record_index = r.read_varint();
  const std::uint64_t wires = r.read_count();
  c.wires.reserve(wires);
  for (std::uint64_t i = 0; i < wires; ++i) {
    WireCover wc{WireId(r.read_u32()), 0, VirtualTime(-1)};
    wc.covered_seq = r.read_varint();
    wc.last_vt = r.read_vt();
    c.wires.push_back(wc);
  }
  const std::uint64_t plans = r.read_varint();
  for (std::uint64_t i = 0; i < plans; ++i) {
    const ComponentId component{r.read_u32()};
    c.plans.emplace(component, decode_plan(r));
  }
  return c;
}

CheckpointWriter::CheckpointWriter(std::string dir, std::uint64_t keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last == 0 ? 1 : keep_last) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Resume numbering above whatever is already there — including torn
  // files, so a retry never reuses (and silently "repairs") a bad id.
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::uint64_t id = id_of(entry.path());
    if (id >= next_id_) next_id_ = id + 1;
  }
}

std::uint64_t CheckpointWriter::write(DurableCheckpoint& checkpoint) {
  checkpoint.id = next_id_++;

  serde::Writer body;
  checkpoint.encode(body);
  serde::Writer file;
  file.write_u32(kMagic);
  file.write_u32(kVersion);
  file.write_u64(body.size());
  file.write_raw(body.bytes().data(), body.size());
  file.write_u64(serde::fingerprint(body.bytes()));

  const std::string final_path = checkpoint_path(dir_, checkpoint.id);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return 0;
  const bool wrote = write_all(fd, file.bytes()) && ::fsync(fd) == 0;
  ::close(fd);
  if (!wrote || ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return 0;
  }
  // The rename itself must be durable before this checkpoint may gate
  // compaction — otherwise a crash could lose the file but keep the
  // truncation it licensed.
  if (!fsync_dir(dir_)) return 0;

  // Prune beyond keep-last-K (only after a fully successful write, so a
  // failure never reduces what a restart can fall back to).
  auto files = CheckpointReader::list(dir_);
  while (files.size() > keep_last_) {
    ::unlink(files.front().c_str());
    files.erase(files.begin());
  }
  return file.size();
}

std::vector<std::string> CheckpointReader::list(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::uint64_t id = id_of(entry.path());
    if (id > 0) found.emplace_back(id, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [id, path] : found) paths.push_back(std::move(path));
  return paths;
}

std::optional<DurableCheckpoint> CheckpointReader::load(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* bytes = reinterpret_cast<const std::byte*>(raw.data());
  try {
    serde::Reader header(bytes, raw.size());
    if (header.read_u32() != kMagic) return std::nullopt;
    if (header.read_u32() != kVersion) return std::nullopt;
    const std::uint64_t body_size = header.read_u64();
    if (header.remaining() != body_size + sizeof(std::uint64_t))
      return std::nullopt;  // torn tail or trailing garbage
    std::vector<std::byte> body(bytes + 16, bytes + 16 + body_size);
    serde::Reader trailer(bytes + 16 + body_size, sizeof(std::uint64_t));
    if (serde::fingerprint(body) != trailer.read_u64()) return std::nullopt;
    serde::Reader r(body);
    DurableCheckpoint c = DurableCheckpoint::decode(r);
    if (!r.at_end()) return std::nullopt;
    return c;
  } catch (const serde::DecodeError&) {
    return std::nullopt;
  }
}

std::optional<CheckpointReader::Newest> CheckpointReader::load_newest(
    const std::string& dir, std::uint64_t deployment_fp) {
  auto files = list(dir);
  std::uint64_t skipped = 0;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    auto c = load(*it);
    if (c.has_value() &&
        (deployment_fp == 0 || c->deployment_fp == 0 ||
         c->deployment_fp == deployment_fp))
      return Newest{std::move(*c), *it, skipped};
    ++skipped;
  }
  return std::nullopt;
}

}  // namespace tart::durability
