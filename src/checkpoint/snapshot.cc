#include "checkpoint/snapshot.h"

namespace tart::checkpoint {

void ComponentSnapshot::encode(serde::Writer& w) const {
  w.write_u32(component.value());
  w.write_varint(version);
  w.write_bool(is_delta);
  w.write_vt(vt);
  w.write_varint(messages_processed);
  w.write_varint(estimator_version);
  w.write_bytes(state);
  w.write_varint(inputs.size());
  for (const auto& in : inputs) {
    w.write_u32(in.wire.value());
    w.write_vt(in.horizon);
    w.write_varint(in.next_seq);
  }
  w.write_varint(outputs.size());
  for (const auto& out : outputs) {
    w.write_u32(out.wire.value());
    w.write_varint(out.next_seq);
    w.write_vt(out.silence_through);
    w.write_vt(out.last_sent);
    w.write_varint(out.retained.size());
    for (const auto& m : out.retained) m.encode(w);
    w.write_bytes(out.delay_state);
  }
}

ComponentSnapshot ComponentSnapshot::decode(serde::Reader& r) {
  ComponentSnapshot s;
  s.component = ComponentId(r.read_u32());
  s.version = r.read_varint();
  s.is_delta = r.read_bool();
  s.vt = r.read_vt();
  s.messages_processed = r.read_varint();
  s.estimator_version = r.read_varint();
  s.state = r.read_bytes();
  const auto nin = r.read_count();
  s.inputs.reserve(nin);
  for (std::uint64_t i = 0; i < nin; ++i) {
    InputPosition in;
    in.wire = WireId(r.read_u32());
    in.horizon = r.read_vt();
    in.next_seq = r.read_varint();
    s.inputs.push_back(in);
  }
  const auto nout = r.read_count();
  s.outputs.reserve(nout);
  for (std::uint64_t i = 0; i < nout; ++i) {
    OutputPosition out;
    out.wire = WireId(r.read_u32());
    out.next_seq = r.read_varint();
    out.silence_through = r.read_vt();
    out.last_sent = r.read_vt();
    const auto nret = r.read_count();
    out.retained.reserve(nret);
    for (std::uint64_t j = 0; j < nret; ++j)
      out.retained.push_back(Message::decode(r));
    out.delay_state = r.read_bytes();
    s.outputs.push_back(std::move(out));
  }
  return s;
}

std::size_t ComponentSnapshot::encoded_size() const {
  serde::Writer w;
  encode(w);
  return w.size();
}

}  // namespace tart::checkpoint
