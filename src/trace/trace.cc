#include "src/trace/trace.h"

#include "src/common/logging.h"

namespace laminar {

const char* TraceComponentName(TraceComponent component) {
  switch (component) {
    case TraceComponent::kDriver:
      return "driver";
    case TraceComponent::kTrainer:
      return "trainer";
    case TraceComponent::kReplica:
      return "replica";
    case TraceComponent::kRelay:
      return "relay";
    case TraceComponent::kManager:
      return "manager";
    case TraceComponent::kData:
      return "data";
    case TraceComponent::kFault:
      return "fault";
    case TraceComponent::kInvariant:
      return "invariant";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(size_t ring_capacity) : ring_capacity_(ring_capacity) {
  if (ring_capacity_ > 0) {
    events_.reserve(ring_capacity_);
  }
}

void TraceBuffer::Add(const TraceEvent& event) {
  ++emitted_;
  if (ring_capacity_ == 0 || events_.size() < ring_capacity_) {
    events_.push_back(event);
    return;
  }
  // Ring full: overwrite the oldest entry.
  events_[next_] = event;
  next_ = (next_ + 1) % ring_capacity_;
}

uint32_t TraceBuffer::InternName(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

bool TraceBuffer::FindName(std::string_view name, uint32_t* id) const {
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) {
    return false;
  }
  *id = it->second;
  return true;
}

std::array<std::span<const TraceEvent>, 2> TraceBuffer::Runs() const {
  // next_ stays 0 until the ring wraps, so this split covers every mode.
  std::span<const TraceEvent> all(events_);
  return {all.subspan(next_), all.first(next_)};
}

std::vector<TraceEvent> TraceBuffer::InOrder() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::span<const TraceEvent> run : Runs()) {
    out.insert(out.end(), run.begin(), run.end());
  }
  return out;
}

TraceSink::TraceSink(const Simulator* sim, const TraceConfig& config)
    : sim_(sim), buffer_(std::make_shared<TraceBuffer>(config.ring_capacity)) {
  LAMINAR_CHECK(sim_ != nullptr);
}

void TraceSink::Span(TraceComponent component, const char* name, int32_t entity,
                     SimTime begin, SimTime end, int64_t arg, double value) {
  TraceEvent e;
  e.time = begin.seconds();
  e.duration = end.seconds() - e.time;
  e.arg = arg;
  e.value = value;
  e.name = buffer_->InternName(name);
  e.entity = entity;
  e.component = component;
  e.kind = TraceEventKind::kSpan;
  buffer_->Add(e);
}

void TraceSink::Instant(TraceComponent component, const char* name, int32_t entity,
                        int64_t arg, double value) {
  TraceEvent e;
  e.time = sim_->Now().seconds();
  e.arg = arg;
  e.value = value;
  e.name = buffer_->InternName(name);
  e.entity = entity;
  e.component = component;
  e.kind = TraceEventKind::kInstant;
  buffer_->Add(e);
}

void TraceSink::Counter(TraceComponent component, const char* name, int32_t entity,
                        double value) {
  TraceEvent e;
  e.time = sim_->Now().seconds();
  e.value = value;
  e.name = buffer_->InternName(name);
  e.entity = entity;
  e.component = component;
  e.kind = TraceEventKind::kCounter;
  buffer_->Add(e);
}

}  // namespace laminar
