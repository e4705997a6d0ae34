#include "log/fault_log.h"

#include <cassert>

namespace tart::log {

void FaultRecord::encode(serde::Writer& w) const {
  w.write_u32(component.value());
  w.write_varint(version);
  w.write_vt(effective_vt);
  w.write_varint(coefficients.size());
  for (const double c : coefficients) w.write_double(c);
}

FaultRecord FaultRecord::decode(serde::Reader& r) {
  FaultRecord rec;
  rec.component = ComponentId(r.read_u32());
  rec.version = r.read_varint();
  rec.effective_vt = r.read_vt();
  const auto n = r.read_count();
  rec.coefficients.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    rec.coefficients.push_back(r.read_double());
  return rec;
}

void DeterminismFaultLog::append(const FaultRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& list = records_[record.component];
  assert(list.empty() || (record.version == list.back().version + 1 &&
                          record.effective_vt >= list.back().effective_vt));
  list.push_back(record);
  if (store_ != nullptr) {
    serde::Writer w;
    record.encode(w);
    store_->append(w.bytes());
  }
}

void DeterminismFaultLog::attach_store(FileStableStore* store) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = store;
}

void DeterminismFaultLog::load_from(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& record : FileStableStore::scan(path)) {
    serde::Reader r(record);
    const FaultRecord rec = FaultRecord::decode(r);
    records_[rec.component].push_back(rec);
  }
}

std::vector<FaultRecord> DeterminismFaultLog::records_after(
    ComponentId component, std::uint64_t after_version) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FaultRecord> out;
  const auto it = records_.find(component);
  if (it == records_.end()) return out;
  for (const FaultRecord& r : it->second)
    if (r.version > after_version) out.push_back(r);
  return out;
}

std::uint64_t DeterminismFaultLog::latest_version(
    ComponentId component) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(component);
  if (it == records_.end() || it->second.empty()) return 0;
  return it->second.back().version;
}

std::uint64_t DeterminismFaultLog::total_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& [c, list] : records_) n += list.size();
  return n;
}

}  // namespace tart::log
