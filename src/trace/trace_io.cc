#include "src/trace/trace_io.h"

#include <cstdio>
#include <cstring>
#include <span>

#include "src/common/logging.h"

namespace laminar {
namespace {

// All binary I/O is field-by-field little-endian, so trace files are portable
// and byte-stable regardless of compiler struct layout. Stores write at `p`
// and return the next write position; they and the unaligned loads below
// byte-swap on big-endian hosts, keeping the wire format identical there.
char* StoreLe32(char* p, uint32_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

char* StoreLe64(char* p, uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

char* StoreLeF64(char* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return StoreLe64(p, bits);
}

uint32_t LoadLe32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

uint64_t LoadLe64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

double LoadLeF64(const char* p) {
  uint64_t bits = LoadLe64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

struct Cursor {
  std::string_view bytes;
  size_t pos = 0;

  bool U32(uint32_t* v) {
    if (pos + 4 > bytes.size()) {
      return false;
    }
    *v = LoadLe32(bytes.data() + pos);
    pos += 4;
    return true;
  }

  bool U64(uint64_t* v) {
    if (pos + 8 > bytes.size()) {
      return false;
    }
    *v = LoadLe64(bytes.data() + pos);
    pos += 8;
    return true;
  }
};

constexpr char kMagic[8] = {'L', 'M', 'T', 'R', 'A', 'C', 'E', '1'};
// One event on the wire: time, duration, arg, value, name, entity,
// component, kind.
constexpr size_t kEventWireBytes = 8 + 8 + 8 + 8 + 4 + 4 + 1 + 1;

// Shortest-round-trip double formatting: %.17g always round-trips and the
// format is locale-independent for the values the simulator produces.
void AppendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
}

}  // namespace

std::string TraceToChromeJson(const TraceBuffer& buffer) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto begin_event = [&](const TraceEvent& e, const char* ph) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n{\"name\":\"";
    AppendEscaped(out, buffer.name(e.name));
    out += "\",\"cat\":\"";
    out += TraceComponentName(e.component);
    out += "\",\"ph\":\"";
    out += ph;
    out += "\",\"ts\":";
    AppendDouble(out, e.time * 1e6);  // Chrome trace timestamps are in µs
    out += ",\"pid\":";
    out += std::to_string(static_cast<int>(e.component));
    out += ",\"tid\":";
    out += std::to_string(e.entity);
  };
  // Metadata rows so Perfetto shows component/entity names instead of ids.
  for (int c = 0; c < kNumTraceComponents; ++c) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(c);
    out += ",\"args\":{\"name\":\"";
    out += TraceComponentName(static_cast<TraceComponent>(c));
    out += "\"}}";
  }
  for (const TraceEvent& e : buffer.InOrder()) {
    switch (e.kind) {
      case TraceEventKind::kSpan:
        begin_event(e, "X");
        out += ",\"dur\":";
        AppendDouble(out, e.duration * 1e6);
        out += ",\"args\":{\"arg\":";
        out += std::to_string(e.arg);
        out += ",\"value\":";
        AppendDouble(out, e.value);
        out += "}}";
        break;
      case TraceEventKind::kInstant:
        begin_event(e, "i");
        out += ",\"s\":\"t\",\"args\":{\"arg\":";
        out += std::to_string(e.arg);
        out += ",\"value\":";
        AppendDouble(out, e.value);
        out += "}}";
        break;
      case TraceEventKind::kCounter:
        begin_event(e, "C");
        out += ",\"args\":{\"value\":";
        AppendDouble(out, e.value);
        out += "}}";
        break;
    }
  }
  out += "\n]}\n";
  return out;
}

std::string TraceToBinary(const TraceBuffer& buffer) {
  // The size is known exactly up front, so the output is allocated once and
  // every field is stored in place, reading the events where they live.
  const std::vector<std::string>& names = buffer.names();
  size_t size = sizeof(kMagic) + 8 + 8 + 8 + buffer.size() * kEventWireBytes;
  for (const std::string& n : names) {
    size += 4 + n.size();
  }
  std::string out(size, '\0');
  char* p = out.data();
  std::memcpy(p, kMagic, sizeof(kMagic));
  p += sizeof(kMagic);
  p = StoreLe64(p, names.size());
  for (const std::string& n : names) {
    p = StoreLe32(p, static_cast<uint32_t>(n.size()));
    std::memcpy(p, n.data(), n.size());
    p += n.size();
  }
  p = StoreLe64(p, buffer.size());
  p = StoreLe64(p, buffer.dropped());
  for (std::span<const TraceEvent> run : buffer.Runs()) {
    for (const TraceEvent& e : run) {
      p = StoreLeF64(p, e.time);
      p = StoreLeF64(p, e.duration);
      p = StoreLe64(p, static_cast<uint64_t>(e.arg));
      p = StoreLeF64(p, e.value);
      p = StoreLe32(p, e.name);
      p = StoreLe32(p, static_cast<uint32_t>(e.entity));
      *p++ = static_cast<char>(e.component);
      *p++ = static_cast<char>(e.kind);
    }
  }
  LAMINAR_CHECK(p == out.data() + out.size());
  return out;
}

bool TraceFromBinary(std::string_view bytes, TraceBuffer* out) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  Cursor cur{bytes, sizeof(kMagic)};
  *out = TraceBuffer();
  uint64_t num_names = 0;
  if (!cur.U64(&num_names)) {
    return false;
  }
  for (uint64_t i = 0; i < num_names; ++i) {
    uint32_t len = 0;
    if (!cur.U32(&len) || cur.pos + len > bytes.size()) {
      return false;
    }
    // A repeated name would leave later ids pointing past the name table.
    if (out->InternName(bytes.substr(cur.pos, len)) != i) {
      return false;
    }
    cur.pos += len;
  }
  uint64_t num_events = 0;
  uint64_t dropped = 0;
  if (!cur.U64(&num_events) || !cur.U64(&dropped)) {
    return false;
  }
  out->NoteDropped(dropped);
  // Fixed 42-byte wire records: one up-front bounds check covers the whole
  // event array, then each field is a direct unaligned load (the trace
  // section dominates direct-boot adopt time, so the per-field byte loops
  // and bounds checks were measurable).
  if (num_events > (bytes.size() - cur.pos) / kEventWireBytes) {
    return false;
  }
  out->Reserve(static_cast<size_t>(num_events));
  for (uint64_t i = 0; i < num_events; ++i) {
    const char* p = bytes.data() + cur.pos;
    TraceEvent e;
    e.time = LoadLeF64(p);
    e.duration = LoadLeF64(p + 8);
    e.arg = static_cast<int64_t>(LoadLe64(p + 16));
    e.value = LoadLeF64(p + 24);
    e.name = LoadLe32(p + 32);
    e.entity = static_cast<int32_t>(LoadLe32(p + 36));
    e.component = static_cast<TraceComponent>(static_cast<unsigned char>(p[40]));
    e.kind = static_cast<TraceEventKind>(static_cast<unsigned char>(p[41]));
    cur.pos += kEventWireBytes;
    if (e.name >= num_names || static_cast<int>(e.component) >= kNumTraceComponents ||
        static_cast<int>(e.kind) > 2) {
      return false;
    }
    out->Add(e);
  }
  return cur.pos == bytes.size();
}

bool WriteTraceFile(const TraceBuffer& buffer, const std::string& path) {
  bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::string payload = json ? TraceToChromeJson(buffer) : TraceToBinary(buffer);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  size_t written = std::fwrite(payload.data(), 1, payload.size(), f);
  int rc = std::fclose(f);
  return written == payload.size() && rc == 0;
}

}  // namespace laminar
