#include "trace/trace_file.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "serde/archive.h"

namespace tart::trace {

const ComponentTrace* Trace::find(ComponentId id) const {
  for (const auto& c : components)
    if (c.component == id) return &c;
  return nullptr;
}

std::size_t Trace::total_events() const {
  std::size_t n = 0;
  for (const auto& c : components) n += c.events.size();
  return n;
}

std::vector<TraceEvent> Trace::merged() const {
  std::vector<TraceEvent> all;
  all.reserve(total_events());
  for (const auto& c : components)
    all.insert(all.end(), c.events.begin(), c.events.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tuple{a.vt, a.component, a.seq} <
                            std::tuple{b.vt, b.component, b.seq};
                   });
  return all;
}

std::vector<std::byte> encode_trace(const Trace& trace) {
  serde::Writer w;
  for (const char c : kTraceMagic)
    w.write_u8(static_cast<std::uint8_t>(c));
  w.write_u32(trace.version);
  w.write_u32(trace.categories);
  w.write_varint(trace.components.size());
  for (const auto& ct : trace.components) {
    w.write_u32(ct.component.value());
    w.write_varint(ct.events.size());
    for (const TraceEvent& e : ct.events) e.encode(w);
  }
  return w.take();
}

Trace TraceReader::read_bytes(const std::vector<std::byte>& bytes) {
  serde::Reader r(bytes);
  try {
    char magic[8];
    for (char& c : magic) c = static_cast<char>(r.read_u8());
    if (std::memcmp(magic, kTraceMagic, sizeof(kTraceMagic)) != 0)
      throw TraceError("not a TART trace (bad magic)");
    Trace t;
    t.version = r.read_u32();
    if (t.version < kMinReadableTraceVersion ||
        t.version > kTraceFormatVersion)
      throw TraceError("unsupported trace format version " +
                       std::to_string(t.version) + " (readable: " +
                       std::to_string(kMinReadableTraceVersion) + ".." +
                       std::to_string(kTraceFormatVersion) + ")");
    t.categories = r.read_u32();
    const auto n_components = r.read_count();
    for (std::uint64_t i = 0; i < n_components; ++i) {
      ComponentTrace ct;
      ct.component = ComponentId(r.read_u32());
      const auto n_events = r.read_count();
      ct.events.reserve(n_events);
      for (std::uint64_t j = 0; j < n_events; ++j) {
        TraceEvent e = TraceEvent::decode(r);
        e.component = ct.component;
        ct.events.push_back(e);
      }
      t.components.push_back(std::move(ct));
    }
    if (!r.at_end()) throw TraceError("trailing bytes after trace body");
    return t;
  } catch (const serde::DecodeError& e) {
    throw TraceError(std::string("truncated or corrupt trace: ") + e.what());
  }
}

Trace TraceReader::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("cannot open trace file: " + path);
  std::vector<std::byte> bytes;
  in.seekg(0, std::ios::end);
  bytes.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) throw TraceError("cannot read trace file: " + path);
  return read_bytes(bytes);
}

Trace filter_categories(const Trace& trace, std::uint32_t mask) {
  Trace out;
  out.version = trace.version;
  out.categories = trace.categories & mask;
  out.components.reserve(trace.components.size());
  for (const ComponentTrace& ct : trace.components) {
    ComponentTrace fct;
    fct.component = ct.component;
    for (const TraceEvent& e : ct.events) {
      if ((static_cast<std::uint32_t>(category_of(e.kind)) & mask) == 0)
        continue;
      TraceEvent kept = e;
      kept.seq = fct.events.size();
      fct.events.push_back(kept);
    }
    out.components.push_back(std::move(fct));
  }
  return out;
}

void write_trace_file(const std::string& path, const Trace& trace) {
  const std::vector<std::byte> bytes = encode_trace(trace);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("cannot open trace file for write: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw TraceError("cannot write trace file: " + path);
}

}  // namespace tart::trace
