// Packed-bytes codec for full-state snapshot fields (DESIGN.md §13).
//
// LMSNAP1 direct-boot restore needs every behavior-bearing container
// adopted, not just digested. Serializing each element as its own named
// record would bloat the stream and slow the hot snapshot path, so
// containers pack into a single kBytes record through this little-endian
// encoder. The SAME packed bytes serve all three transaction modes: write
// emits them, verify compares them (packed bytes of the live state vs the
// blob), adopt decodes them back into the container.
//
// Everything here is deterministic: iteration order is the caller's
// responsibility (serialize in a canonical or behavior-defining order) and
// doubles travel bit-cast, so the round trip is exact and blobs are
// byte-stable across runs.
#ifndef LAMINAR_SNAPSHOT_SNAPSHOT_CODEC_H_
#define LAMINAR_SNAPSHOT_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/logging.h"
#include "src/common/sim_time.h"
#include "src/data/trajectory.h"
#include "src/snapshot/snapshot.h"

namespace laminar {

class ByteSink {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Le(v, 4); }
  void U64(uint64_t v) { Le(v, 8); }
  void I32(int32_t v) { Le(static_cast<uint32_t>(v), 4); }
  void I64(int64_t v) { Le(static_cast<uint64_t>(v), 8); }
  void F64(double v) { Le(SnapshotF64Bits(v), 8); }
  void Time(SimTime t) { F64(t.seconds()); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U64(s.size());
    out_.append(s);
  }
  // Bulk byte span; wire bytes identical to n consecutive U8() calls.
  void Raw(const void* p, size_t n) { out_.append(static_cast<const char*>(p), n); }

  std::string Take() { return std::move(out_); }
  const std::string& bytes() const { return out_; }

 private:
  void Le(uint64_t v, int n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // The first n bytes of v's object representation ARE the little-endian
    // wire encoding, so one memcpy replaces the per-byte shift loop (the
    // packed sections dominate snapshot write/adopt time at scale).
    char buf[8];
    std::memcpy(buf, &v, sizeof(buf));
    out_.append(buf, static_cast<size_t>(n));
#else
    for (int i = 0; i < n; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
#endif
  }
  std::string out_;
};

// Decodes a packed record. Holds a view, not a copy — the adopt path reads
// straight out of the snapshot reader's parsed buffer, so the underlying
// bytes must stay alive for the life of the source.
class ByteSource {
 public:
  explicit ByteSource(std::string_view data) : data_(data) {}

  uint8_t U8() { return static_cast<uint8_t>(Le(1)); }
  uint32_t U32() { return static_cast<uint32_t>(Le(4)); }
  uint64_t U64() { return Le(8); }
  int32_t I32() { return static_cast<int32_t>(static_cast<uint32_t>(Le(4))); }
  int64_t I64() { return static_cast<int64_t>(Le(8)); }
  double F64() { return SnapshotBitsF64(Le(8)); }
  SimTime Time() { return SimTime(F64()); }
  bool Bool() { return U8() != 0; }
  std::string Str() {
    uint64_t n = U64();
    LAMINAR_CHECK_LE(n, data_.size() - at_) << "packed string overruns record";
    std::string s(data_.substr(at_, static_cast<size_t>(n)));
    at_ += static_cast<size_t>(n);
    return s;
  }

  // Bulk byte span; consumes the same wire bytes as n consecutive U8() calls.
  void Raw(void* p, size_t n) {
    LAMINAR_CHECK_LE(n, data_.size() - at_) << "packed record truncated";
    std::memcpy(p, data_.data() + at_, n);
    at_ += n;
  }

  bool AtEnd() const { return at_ >= data_.size(); }
  void ExpectEnd() const {
    LAMINAR_CHECK(AtEnd()) << "trailing bytes in packed record";
  }

 private:
  uint64_t Le(int n) {
    LAMINAR_CHECK_LE(static_cast<size_t>(n), data_.size() - at_)
        << "packed record truncated";
    uint64_t v = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // Little-endian hosts can load the n wire bytes straight into the low
    // bytes of v — same value the shift loop builds, without the per-byte
    // dependency chain.
    std::memcpy(&v, data_.data() + at_, static_cast<size_t>(n));
#else
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[at_ + i])) << (8 * i);
    }
#endif
    at_ += static_cast<size_t>(n);
    return v;
  }
  std::string_view data_;
  size_t at_ = 0;
};

// One packed field: `pack` fills a sink from live state (write + verify
// modes), `unpack` re-seats live state from the blob (adopt mode).
template <typename PackFn, typename UnpackFn>
void SnapshotPacked(SnapshotTx& tx, const std::string& name, PackFn pack,
                    UnpackFn unpack) {
  if (tx.adopting()) {
    // Decode straight out of the reader's parsed buffer — no intermediate
    // copy of the packed bytes (the big sections are megabytes and dominate
    // direct-boot restore time).
    ByteSource src(tx.BytesView(name));
    unpack(src);
    src.ExpectEnd();
    return;
  }
  ByteSink sink;
  pack(sink);
  std::string bytes = sink.Take();
  tx.Bytes(name, &bytes);
}

// ---- Trajectory payloads -------------------------------------------------

inline void PackSpec(ByteSink& s, const TrajectorySpec& spec) {
  s.I64(spec.prompt_tokens);
  s.U64(spec.num_segments());
  for (const TrajectorySegment& seg : spec.segments()) {
    s.I64(seg.decode_tokens);
    s.F64(seg.env_latency);
    s.I64(seg.feedback_tokens);
  }
}

inline TrajectorySpec UnpackSpec(ByteSource& s) {
  TrajectorySpec spec;
  spec.prompt_tokens = s.I64();
  uint64_t n = s.U64();
  spec.ReserveSegments(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    TrajectorySegment seg;
    seg.decode_tokens = s.I64();
    seg.env_latency = s.F64();
    seg.feedback_tokens = s.I64();
    spec.AppendSegment(seg);
  }
  return spec;
}

inline void PackRecord(ByteSink& s, const TrajectoryRecord& r) {
  s.I64(r.id);
  s.I64(r.prompt_id);
  s.I32(r.group_index);
  PackSpec(s, r.spec);
  s.U64(r.weight_versions.size());
  for (int v : r.weight_versions) {
    s.I32(v);
  }
  s.F64(r.reward);
  s.F64(r.behavior_prob);
  s.F64(r.difficulty);
  s.Bool(r.success);
  s.Time(r.created);
  s.Time(r.finished);
  s.I32(r.finish_actor_version);
  s.I32(r.consume_actor_version);
}

inline TrajectoryRecord UnpackRecord(ByteSource& s) {
  TrajectoryRecord r;
  r.id = s.I64();
  r.prompt_id = s.I64();
  r.group_index = s.I32();
  r.spec = UnpackSpec(s);
  uint64_t n = s.U64();
  r.weight_versions.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    r.weight_versions.push_back(s.I32());
  }
  r.reward = s.F64();
  r.behavior_prob = s.F64();
  r.difficulty = s.F64();
  r.success = s.Bool();
  r.created = s.Time();
  r.finished = s.Time();
  r.finish_actor_version = s.I32();
  r.consume_actor_version = s.I32();
  return r;
}

inline void PackCursor(ByteSink& s, const TrajectoryCursor& c) {
  s.I64(c.id);
  s.I32(c.segment_index);
  s.I64(c.decoded_in_segment);
  s.I64(c.context_tokens);
  s.Bool(c.kv_resident);
}

inline TrajectoryCursor UnpackCursor(ByteSource& s) {
  TrajectoryCursor c;
  c.id = s.I64();
  c.segment_index = s.I32();
  c.decoded_in_segment = s.I64();
  c.context_tokens = s.I64();
  c.kv_resident = s.Bool();
  return c;
}

}  // namespace laminar

#endif  // LAMINAR_SNAPSHOT_SNAPSHOT_CODEC_H_
