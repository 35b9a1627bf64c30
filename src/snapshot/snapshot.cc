#include "src/snapshot/snapshot.h"

#include <cstdio>

#include "src/common/logging.h"

namespace laminar {
namespace {

void AppendU8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

void AppendU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

// Bounds-checked little-endian reads over the raw stream.
struct Cursor {
  const unsigned char* p;
  size_t n;
  size_t at = 0;
  bool fail = false;

  bool Need(size_t k) {
    if (at + k > n) {
      fail = true;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return p[at++];
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = static_cast<uint16_t>(p[at]) | static_cast<uint16_t>(p[at + 1]) << 8;
    at += 2;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[at + i]) << (8 * i);
    at += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[at + i]) << (8 * i);
    at += 8;
    return v;
  }
  std::string_view Raw(size_t k) {
    if (!Need(k)) return std::string_view();
    std::string_view s(reinterpret_cast<const char*>(p + at), k);
    at += k;
    return s;
  }
};

// Trailing checksum: FNV-1a split across 8 positional lanes (byte j feeds lane
// j%8), folded in lane order. The eight multiply chains are independent, so
// they pipeline where plain FNV-1a serializes on multiply latency — ~4x
// faster over the multi-megabyte blobs direct-boot restore must validate.
// Byte-order-stable and positional: permuting stripes changes the value.
uint64_t SnapshotFnv1a8(const void* data, size_t n) {
  constexpr uint64_t kSeed = 1469598103934665603ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t lane[8] = {kSeed, kSeed, kSeed, kSeed, kSeed, kSeed, kSeed, kSeed};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    lane[0] = (lane[0] ^ p[i + 0]) * kPrime;
    lane[1] = (lane[1] ^ p[i + 1]) * kPrime;
    lane[2] = (lane[2] ^ p[i + 2]) * kPrime;
    lane[3] = (lane[3] ^ p[i + 3]) * kPrime;
    lane[4] = (lane[4] ^ p[i + 4]) * kPrime;
    lane[5] = (lane[5] ^ p[i + 5]) * kPrime;
    lane[6] = (lane[6] ^ p[i + 6]) * kPrime;
    lane[7] = (lane[7] ^ p[i + 7]) * kPrime;
  }
  for (size_t j = 0; i < n; ++i, ++j) {
    lane[j] = (lane[j] ^ p[i]) * kPrime;
  }
  uint64_t h = kSeed;
  for (uint64_t l : lane) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((l >> (8 * b)) & 0xff)) * kPrime;
    }
  }
  return h;
}

const char* KindName(SnapshotRecordKind kind) {
  switch (kind) {
    case SnapshotRecordKind::kEndOfStream: return "end-of-stream";
    case SnapshotRecordKind::kSection: return "section";
    case SnapshotRecordKind::kEndSection: return "end-section";
    case SnapshotRecordKind::kU64: return "u64";
    case SnapshotRecordKind::kI64: return "i64";
    case SnapshotRecordKind::kF64: return "f64";
    case SnapshotRecordKind::kBytes: return "bytes";
  }
  return "?";
}

}  // namespace

uint64_t SnapshotFnv1a(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

SnapshotWriter::SnapshotWriter() {
  out_.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendU32(out_, kSnapshotVersion);
}

void SnapshotWriter::Record(SnapshotRecordKind kind, const std::string& name) {
  AppendU8(out_, static_cast<uint8_t>(kind));
  AppendU16(out_, static_cast<uint16_t>(name.size()));
  out_.append(name);
}

void SnapshotWriter::BeginSection(const std::string& name) {
  Record(SnapshotRecordKind::kSection, name);
}

void SnapshotWriter::EndSection() { Record(SnapshotRecordKind::kEndSection, std::string()); }

void SnapshotWriter::U64(const std::string& name, uint64_t v) {
  Record(SnapshotRecordKind::kU64, name);
  AppendU64(out_, v);
}

void SnapshotWriter::I64(const std::string& name, int64_t v) {
  Record(SnapshotRecordKind::kI64, name);
  AppendU64(out_, static_cast<uint64_t>(v));
}

void SnapshotWriter::F64(const std::string& name, double v) {
  Record(SnapshotRecordKind::kF64, name);
  AppendU64(out_, SnapshotF64Bits(v));
}

void SnapshotWriter::Bytes(const std::string& name, const std::string& v) {
  Record(SnapshotRecordKind::kBytes, name);
  AppendU64(out_, v.size());
  out_.append(v);
}

std::string SnapshotWriter::Finish() {
  if (!finished_) {
    AppendU8(out_, static_cast<uint8_t>(SnapshotRecordKind::kEndOfStream));
    AppendU64(out_, SnapshotFnv1a8(out_.data(), out_.size()));
    finished_ = true;
  }
  return out_;
}

bool SnapshotReader::Parse(const std::string& data, std::string* error) {
  records_.clear();
  pos_ = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    records_.clear();
    return false;
  };
  if (data.size() < sizeof(kSnapshotMagic) + 4 + 1 + 8) return fail("snapshot truncated");
  if (std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return fail("bad snapshot magic");
  }
  // The version is checked before the checksum, so a blob from another
  // format version names its version instead of reading as corruption.
  Cursor cur{reinterpret_cast<const unsigned char*>(data.data()), data.size() - 8};
  cur.at = sizeof(kSnapshotMagic);
  uint32_t version = cur.U32();
  if (version != kSnapshotVersion) {
    return fail("unsupported snapshot version " + std::to_string(version));
  }
  uint64_t have_bits = 0;  // stored little-endian; reassemble explicitly
  for (int i = 0; i < 8; ++i) {
    have_bits |= static_cast<uint64_t>(static_cast<unsigned char>(data[data.size() - 8 + i])) << (8 * i);
  }
  uint64_t computed = SnapshotFnv1a8(data.data(), data.size() - 8);
  if (have_bits != computed) return fail("snapshot checksum mismatch");
  while (true) {
    uint8_t kind = cur.U8();
    if (cur.fail) return fail("snapshot record truncated");
    if (kind == static_cast<uint8_t>(SnapshotRecordKind::kEndOfStream)) {
      if (cur.at != cur.n) return fail("trailing bytes after end-of-stream");
      return true;
    }
    if (kind > static_cast<uint8_t>(SnapshotRecordKind::kBytes)) {
      return fail("unknown snapshot record kind");
    }
    SnapshotRecord rec;
    rec.kind = static_cast<SnapshotRecordKind>(kind);
    uint16_t name_len = cur.U16();
    rec.name = cur.Raw(name_len);
    switch (rec.kind) {
      case SnapshotRecordKind::kSection:
      case SnapshotRecordKind::kEndSection:
        break;
      case SnapshotRecordKind::kU64:
      case SnapshotRecordKind::kI64:
      case SnapshotRecordKind::kF64:
        rec.u64 = cur.U64();
        break;
      case SnapshotRecordKind::kBytes: {
        uint64_t n = cur.U64();
        if (n > cur.n - cur.at) return fail("bytes record overruns stream");
        rec.bytes = cur.Raw(static_cast<size_t>(n));
        break;
      }
      default:
        return fail("unknown snapshot record kind");
    }
    if (cur.fail) return fail("snapshot record truncated");
    records_.push_back(std::move(rec));
  }
}

const SnapshotRecord* SnapshotReader::Next() {
  if (AtEnd()) return nullptr;
  return &records_[pos_++];
}

const SnapshotRecord* SnapshotReader::Peek() const {
  if (AtEnd()) return nullptr;
  return &records_[pos_];
}

std::string SnapshotTx::Scope(const std::string& name) const {
  std::string s;
  for (const std::string& sec : sections_) {
    s += sec;
    s += '/';
  }
  s += name;
  return s;
}

void SnapshotTx::Mismatch(const std::string& detail) { mismatches_.push_back(detail); }

const SnapshotRecord* SnapshotTx::Expect(SnapshotRecordKind kind, const std::string& name) {
  const SnapshotRecord* rec = reader_->Next();
  if (rec == nullptr) {
    Mismatch(Scope(name) + ": snapshot stream ended early");
    return nullptr;
  }
  if (rec->kind != kind || rec->name != name) {
    Mismatch(Scope(name) + ": expected " + std::string(KindName(kind)) + " '" + name +
             "', snapshot has " + KindName(rec->kind) + " '" + std::string(rec->name) + "'");
    return nullptr;
  }
  return rec;
}

void SnapshotTx::Begin(const std::string& section) {
  if (writing()) {
    writer_->BeginSection(section);
  } else {
    Expect(SnapshotRecordKind::kSection, section);
  }
  sections_.push_back(section);
}

void SnapshotTx::End() {
  if (writing()) {
    writer_->EndSection();
  } else {
    Expect(SnapshotRecordKind::kEndSection, std::string());
  }
  if (!sections_.empty()) sections_.pop_back();
}

void SnapshotTx::U64(const std::string& name, uint64_t* v) {
  if (writing()) {
    writer_->U64(name, *v);
    return;
  }
  const SnapshotRecord* rec = Expect(SnapshotRecordKind::kU64, name);
  if (rec == nullptr) return;
  if (adopting()) {
    *v = rec->u64;
  } else if (rec->u64 != *v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "live=%llu snapshot=%llu",
                  static_cast<unsigned long long>(*v), static_cast<unsigned long long>(rec->u64));
    Mismatch(Scope(name) + ": " + buf);
  }
}

void SnapshotTx::I64(const std::string& name, int64_t* v) {
  if (writing()) {
    writer_->I64(name, *v);
    return;
  }
  const SnapshotRecord* rec = Expect(SnapshotRecordKind::kI64, name);
  if (rec == nullptr) return;
  int64_t got = static_cast<int64_t>(rec->u64);
  if (adopting()) {
    *v = got;
  } else if (got != *v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "live=%lld snapshot=%lld", static_cast<long long>(*v),
                  static_cast<long long>(got));
    Mismatch(Scope(name) + ": " + buf);
  }
}

void SnapshotTx::F64(const std::string& name, double* v) {
  if (writing()) {
    writer_->F64(name, *v);
    return;
  }
  const SnapshotRecord* rec = Expect(SnapshotRecordKind::kF64, name);
  if (rec == nullptr) return;
  if (adopting()) {
    *v = SnapshotBitsF64(rec->u64);
  } else if (rec->u64 != SnapshotF64Bits(*v)) {  // bit equality, not ==: NaN-safe, -0.0-exact
    char buf[96];
    std::snprintf(buf, sizeof(buf), "live=%.17g snapshot=%.17g", *v, SnapshotBitsF64(rec->u64));
    Mismatch(Scope(name) + ": " + buf);
  }
}

void SnapshotTx::Bytes(const std::string& name, std::string* v) {
  if (writing()) {
    writer_->Bytes(name, *v);
    return;
  }
  const SnapshotRecord* rec = Expect(SnapshotRecordKind::kBytes, name);
  if (rec == nullptr) return;
  if (adopting()) {
    v->assign(rec->bytes.data(), rec->bytes.size());
  } else if (rec->bytes != *v) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "live=<%zu bytes fnv=%016llx> snapshot=<%zu bytes fnv=%016llx>",
                  v->size(), static_cast<unsigned long long>(SnapshotFnv1a(v->data(), v->size())),
                  rec->bytes.size(),
                  static_cast<unsigned long long>(SnapshotFnv1a(rec->bytes.data(), rec->bytes.size())));
    Mismatch(Scope(name) + ": " + buf);
  }
}

std::string_view SnapshotTx::BytesView(const std::string& name) {
  LAMINAR_CHECK(adopting()) << "BytesView is adopt-only; use Bytes() to write or verify";
  const SnapshotRecord* rec = Expect(SnapshotRecordKind::kBytes, name);
  return rec == nullptr ? std::string_view() : rec->bytes;
}

void SnapshotTx::F64Vec(const std::string& name, std::vector<double>* v) {
  if (writing() || !adopting()) {
    std::string packed(reinterpret_cast<const char*>(v->data()), v->size() * sizeof(double));
    if (writing()) {
      writer_->Bytes(name, packed);
      return;
    }
    Bytes(name, &packed);  // verify path: compare packed bytes
    return;
  }
  const SnapshotRecord* rec = Expect(SnapshotRecordKind::kBytes, name);
  if (rec == nullptr) return;
  if (rec->bytes.size() % sizeof(double) != 0) {
    Mismatch(Scope(name) + ": byte length not a multiple of 8");
    return;
  }
  v->resize(rec->bytes.size() / sizeof(double));
  if (!v->empty()) std::memcpy(v->data(), rec->bytes.data(), rec->bytes.size());
}

void SnapshotTx::DigestU64(const std::string& name, uint64_t v) {
  if (adopting()) {
    Expect(SnapshotRecordKind::kU64, name);  // read and skip
    return;
  }
  uint64_t tmp = v;
  U64(name, &tmp);
}

void SnapshotTx::DigestI64(const std::string& name, int64_t v) {
  if (adopting()) {
    Expect(SnapshotRecordKind::kI64, name);
    return;
  }
  int64_t tmp = v;
  I64(name, &tmp);
}

void SnapshotTx::DigestF64(const std::string& name, double v) {
  if (adopting()) {
    Expect(SnapshotRecordKind::kF64, name);
    return;
  }
  double tmp = v;
  F64(name, &tmp);
}

void SnapshotTx::DigestBytes(const std::string& name, const std::string& v) {
  if (adopting()) {
    Expect(SnapshotRecordKind::kBytes, name);
    return;
  }
  std::string tmp = v;
  Bytes(name, &tmp);
}

std::string EncodeSnapshotFile(const SnapshotFile& file) {
  SnapshotWriter w;
  w.BeginSection("snapshot-file");
  w.Bytes("scenario", file.scenario_text);
  w.I64("sweep_index", file.sweep_index);
  w.F64("snapshot_at", file.snapshot_at);
  w.Bytes("blob", file.blob);
  w.EndSection();
  return w.Finish();
}

bool DecodeSnapshotFile(const std::string& data, SnapshotFile* out, std::string* error) {
  SnapshotReader r;
  if (!r.Parse(data, error)) return false;
  SnapshotTx tx(&r, SnapshotMode::kAdopt);
  tx.Begin("snapshot-file");
  tx.Bytes("scenario", &out->scenario_text);
  tx.I64("sweep_index", &out->sweep_index);
  tx.F64("snapshot_at", &out->snapshot_at);
  tx.Bytes("blob", &out->blob);
  tx.End();
  if (!tx.ok()) {
    if (error != nullptr) *error = "not a snapshot file: " + tx.mismatches().front();
    return false;
  }
  return true;
}

}  // namespace laminar
