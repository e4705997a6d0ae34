#include "placement/slice.h"

#include "serde/archive.h"

namespace tart::placement {
namespace {

constexpr std::uint32_t kSliceMagic = 0x54534C43;  // "TSLC"
constexpr std::uint8_t kSliceVersion = 1;

}  // namespace

std::vector<std::byte> MigrationSlice::encode() const {
  serde::Writer w;
  w.write_u32(kSliceMagic);
  w.write_u8(kSliceVersion);
  w.write_varint(epoch);
  w.write_u32(component.value());
  w.write_u32(from.value());
  w.write_u32(to.value());
  w.write_bool(is_delta);
  plan.base.encode(w);
  w.write_varint(plan.deltas.size());
  for (const auto& d : plan.deltas) d.encode(w);
  w.write_varint(inputs.size());
  for (const auto& in : inputs) {
    w.write_u32(in.wire.value());
    w.write_varint(in.base_seq);
    w.write_vt(in.base_vt);
    w.write_bool(in.closed);
    w.write_varint(in.records.size());
    for (const auto& m : in.records) m.encode(w);
  }
  return w.take();
}

std::optional<MigrationSlice> MigrationSlice::decode(
    const std::vector<std::byte>& blob) {
  try {
    serde::Reader r(blob);
    if (r.read_u32() != kSliceMagic) return std::nullopt;
    if (r.read_u8() != kSliceVersion) return std::nullopt;
    MigrationSlice s;
    s.epoch = r.read_varint();
    s.component = ComponentId(r.read_u32());
    s.from = EngineId(r.read_u32());
    s.to = EngineId(r.read_u32());
    s.is_delta = r.read_bool();
    s.plan.base = checkpoint::ComponentSnapshot::decode(r);
    const std::uint64_t deltas = r.read_count();
    s.plan.deltas.reserve(deltas);
    for (std::uint64_t i = 0; i < deltas; ++i)
      s.plan.deltas.push_back(checkpoint::ComponentSnapshot::decode(r));
    const std::uint64_t wires = r.read_count();
    s.inputs.reserve(wires);
    for (std::uint64_t i = 0; i < wires; ++i) {
      WireLogSlice in;
      in.wire = WireId(r.read_u32());
      in.base_seq = r.read_varint();
      in.base_vt = r.read_vt();
      in.closed = r.read_bool();
      const std::uint64_t n = r.read_count();
      in.records.reserve(n);
      for (std::uint64_t j = 0; j < n; ++j)
        in.records.push_back(Message::decode(r));
      s.inputs.push_back(std::move(in));
    }
    if (!r.at_end()) return std::nullopt;
    return s;
  } catch (const serde::DecodeError&) {
    return std::nullopt;
  }
}

std::uint64_t MigrationSlice::record_count() const {
  std::uint64_t n = 0;
  for (const auto& in : inputs) n += in.records.size();
  return n;
}

}  // namespace tart::placement
