// Structured event tracing (DESIGN.md §9).
//
// Every subsystem emits typed events — spans, instants and counters — into a
// per-experiment TraceSink stamped with simulation time. Tracing is off by
// default: the Simulator carries a nullable sink pointer and the emission
// macros compile to a single pointer test, with the argument expressions
// never evaluated when the pointer is null, so instrumented hot paths cost
// nothing in ordinary runs.
//
// Determinism contract: the simulation is single-threaded and bit-
// reproducible per seed, so the emission sequence — and therefore the interned
// name table, every timestamp and every payload — is identical across runs
// and across sweep thread counts. TraceToBinary() serializes field-by-field
// (no struct padding), making trace files byte-comparable artifacts.
#ifndef LAMINAR_SRC_TRACE_TRACE_H_
#define LAMINAR_SRC_TRACE_TRACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulator.h"

namespace laminar {

// Who emitted the event. Exported as the Perfetto process row.
enum class TraceComponent : uint8_t {
  kDriver = 0,     // run orchestration, rate sampling
  kTrainer = 1,    // iteration phases, publishes
  kReplica = 2,    // decode engine, weight updates
  kRelay = 3,      // weight distribution tier
  kManager = 4,    // rollout manager decisions
  kData = 5,       // experience buffer / partial-response pool
  kFault = 6,      // injected faults + failure detectors
  kInvariant = 7,  // invariant checker sweeps
};
constexpr int kNumTraceComponents = 8;
const char* TraceComponentName(TraceComponent component);

enum class TraceEventKind : uint8_t {
  kSpan = 0,     // [time, time + duration)
  kInstant = 1,  // point event
  kCounter = 2,  // step change of a tracked quantity to `value`
};

// One emitted event. Names are interned per buffer (see TraceBuffer) so the
// record stays POD and cheap to copy.
struct TraceEvent {
  double time = 0.0;      // seconds of sim time; spans: begin
  double duration = 0.0;  // spans only
  int64_t arg = 0;        // integer payload: version, trajectory id, count...
  double value = 0.0;     // numeric payload; counters: the new value
  uint32_t name = 0;      // id into the owning buffer's name table
  int32_t entity = -1;    // replica/relay/machine id; -1 = system-wide
  TraceComponent component = TraceComponent::kDriver;
  TraceEventKind kind = TraceEventKind::kInstant;

  double end() const { return time + duration; }
};

// Event storage with first-use-order name interning. Interning is keyed on
// the name's text (never its address, so names need not be literals) and
// looks names up without building a std::string. Two capture modes:
// unbounded full capture (ring_capacity == 0) or a fixed-size ring that
// evicts the oldest events once full (long soaks where only the tail
// matters).
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t ring_capacity = 0);

  void Add(const TraceEvent& event);
  uint32_t InternName(std::string_view name);
  // Accounts for events evicted before this buffer existed — used by the
  // binary reader so a deserialized ring trace reports its original drop
  // count.
  void NoteDropped(uint64_t n) { emitted_ += n; }
  // Pre-sizes event storage when the caller knows the count up front (the
  // binary reader), avoiding realloc-copy growth on multi-100k-event traces.
  void Reserve(size_t n) { events_.reserve(events_.size() + n); }

  // Events in emission order; in ring mode the evicted prefix is absent.
  std::vector<TraceEvent> InOrder() const;
  // The same events read in place, as two runs to visit in order: a wrapped
  // ring's oldest survivors [cursor, end) then its newest [0, cursor). Any
  // other buffer is one run followed by an empty one.
  std::array<std::span<const TraceEvent>, 2> Runs() const;

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  uint64_t total_emitted() const { return emitted_; }
  uint64_t dropped() const { return emitted_ - events_.size(); }
  size_t ring_capacity() const { return ring_capacity_; }

  const std::vector<std::string>& names() const { return names_; }
  const std::string& name(uint32_t id) const { return names_[id]; }
  // Looks up an already-interned name; returns false if never emitted.
  bool FindName(std::string_view name, uint32_t* id) const;

 private:
  size_t ring_capacity_;  // 0 = unbounded
  size_t next_ = 0;       // ring write cursor (wrapped mode only)
  uint64_t emitted_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
};

struct TraceConfig {
  bool enabled = false;
  // 0 = full capture; otherwise keep only the most recent N events.
  size_t ring_capacity = 0;
};

// The emission front-end handed to subsystems via Simulator::trace().
// Timestamps come from the simulator clock; spans are recorded complete
// (begin handed in by the caller, end = Now), which sidesteps begin/end
// matching and costs one event per span.
class TraceSink {
 public:
  TraceSink(const Simulator* sim, const TraceConfig& config);

  void Span(TraceComponent component, const char* name, int32_t entity,
            SimTime begin, SimTime end, int64_t arg = 0, double value = 0.0);
  void Instant(TraceComponent component, const char* name, int32_t entity,
               int64_t arg = 0, double value = 0.0);
  void Counter(TraceComponent component, const char* name, int32_t entity,
               double value);

  const TraceBuffer& buffer() const { return *buffer_; }
  std::shared_ptr<const TraceBuffer> shared_buffer() const { return buffer_; }
  // Direct-boot adoption target: the driver deserializes the snapshot's
  // trace section straight into the live buffer so post-restore emissions
  // append to the restored prefix with the same interned-name ids.
  TraceBuffer* mutable_buffer() { return buffer_.get(); }

 private:
  const Simulator* sim_;
  std::shared_ptr<TraceBuffer> buffer_;
};

// Emission macros. `sim` is a Simulator*. Arguments after the sink test are
// NOT evaluated when tracing is disabled — keep side effects out of them.
// LAMINAR_TRACE_SPAN closes the span at the current sim time;
// LAMINAR_TRACE_SPAN_AT takes an explicit end for retroactive emission.
#define LAMINAR_TRACE_SPAN(sim, component, name, entity, begin, ...)        \
  do {                                                                      \
    if (::laminar::TraceSink* lmtr_sink_ = (sim)->trace()) {                \
      lmtr_sink_->Span((component), (name), (entity), (begin),              \
                       (sim)->Now()__VA_OPT__(, ) __VA_ARGS__);             \
    }                                                                       \
  } while (0)

#define LAMINAR_TRACE_SPAN_AT(sim, component, name, entity, begin, end, ...) \
  do {                                                                       \
    if (::laminar::TraceSink* lmtr_sink_ = (sim)->trace()) {                 \
      lmtr_sink_->Span((component), (name), (entity), (begin),               \
                       (end)__VA_OPT__(, ) __VA_ARGS__);                     \
    }                                                                        \
  } while (0)

#define LAMINAR_TRACE_INSTANT(sim, component, name, entity, ...)            \
  do {                                                                      \
    if (::laminar::TraceSink* lmtr_sink_ = (sim)->trace()) {                \
      lmtr_sink_->Instant((component), (name),                              \
                          (entity)__VA_OPT__(, ) __VA_ARGS__);              \
    }                                                                       \
  } while (0)

#define LAMINAR_TRACE_COUNTER(sim, component, name, entity, value)          \
  do {                                                                      \
    if (::laminar::TraceSink* lmtr_sink_ = (sim)->trace()) {                \
      lmtr_sink_->Counter((component), (name), (entity), (value));          \
    }                                                                       \
  } while (0)

}  // namespace laminar

#endif  // LAMINAR_SRC_TRACE_TRACE_H_
