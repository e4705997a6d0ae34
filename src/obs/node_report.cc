#include "obs/node_report.h"

#include "serde/archive.h"

namespace tart::obs {
namespace {

void encode_status(serde::Writer& w, const core::StatusReport& report) {
  w.write_varint(report.components.size());
  for (const core::ComponentStatus& c : report.components) {
    w.write_varint(c.id.value());
    w.write_string(c.name);
    w.write_svarint(c.vt_ticks);
    w.write_varint(c.pending);
    w.write_bool(c.exhausted);
    w.write_bool(c.crashed);
    w.write_bool(c.held);
    w.write_svarint(c.held_vt);
    w.write_varint(c.held_wire.value());
    w.write_varint(c.inputs.size());
    for (const core::WireStatus& ws : c.inputs) {
      w.write_varint(ws.wire.value());
      w.write_string(ws.sender);
      w.write_svarint(ws.horizon_ticks);
      w.write_varint(ws.pending);
      w.write_bool(ws.blocking);
    }
  }
  w.write_varint(report.placement_epoch);
  w.write_varint(report.placement.size());
  for (const core::PlacementEntry& e : report.placement) {
    w.write_varint(e.component);
    w.write_varint(e.engine);
    w.write_varint(e.epoch);
  }
  w.write_varint(report.migrations.size());
  for (const core::MigrationStatus& m : report.migrations) {
    w.write_varint(m.epoch);
    w.write_varint(m.component);
    w.write_varint(m.from_engine);
    w.write_varint(m.to_engine);
    w.write_string(m.stage);
  }
}

core::StatusReport decode_status(serde::Reader& r) {
  core::StatusReport report;
  const std::uint64_t n = r.read_varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    core::ComponentStatus c;
    c.id = ComponentId(static_cast<std::uint32_t>(r.read_varint()));
    c.name = r.read_string();
    c.vt_ticks = r.read_svarint();
    c.pending = r.read_varint();
    c.exhausted = r.read_bool();
    c.crashed = r.read_bool();
    c.held = r.read_bool();
    c.held_vt = r.read_svarint();
    c.held_wire = WireId(static_cast<std::uint32_t>(r.read_varint()));
    const std::uint64_t nin = r.read_varint();
    for (std::uint64_t j = 0; j < nin; ++j) {
      core::WireStatus ws;
      ws.wire = WireId(static_cast<std::uint32_t>(r.read_varint()));
      ws.sender = r.read_string();
      ws.horizon_ticks = r.read_svarint();
      ws.pending = r.read_varint();
      ws.blocking = r.read_bool();
      c.inputs.push_back(std::move(ws));
    }
    report.components.push_back(std::move(c));
  }
  report.placement_epoch = r.read_varint();
  const std::uint64_t np = r.read_varint();
  for (std::uint64_t i = 0; i < np; ++i) {
    core::PlacementEntry e;
    e.component = static_cast<std::uint32_t>(r.read_varint());
    e.engine = static_cast<std::uint32_t>(r.read_varint());
    e.epoch = r.read_varint();
    report.placement.push_back(e);
  }
  const std::uint64_t nm = r.read_varint();
  for (std::uint64_t i = 0; i < nm; ++i) {
    core::MigrationStatus m;
    m.epoch = r.read_varint();
    m.component = static_cast<std::uint32_t>(r.read_varint());
    m.from_engine = static_cast<std::uint32_t>(r.read_varint());
    m.to_engine = static_cast<std::uint32_t>(r.read_varint());
    m.stage = r.read_string();
    report.migrations.push_back(std::move(m));
  }
  return report;
}

}  // namespace

std::vector<std::byte> NodeReport::encode() const {
  serde::Writer w;
  w.write_string(node);
  encode_samples(w, samples);
  encode_status(w, status);
  return w.take();
}

NodeReport NodeReport::decode(const std::byte* data, std::size_t size) {
  serde::Reader r(data, size);
  NodeReport report;
  report.node = r.read_string();
  report.samples = decode_samples(r);
  report.status = decode_status(r);
  if (!r.at_end()) throw serde::DecodeError("obs report: trailing bytes");
  return report;
}

}  // namespace tart::obs
