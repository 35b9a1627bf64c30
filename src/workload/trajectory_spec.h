// The shape of one trajectory's generation work.
//
// A trajectory alternates decode segments with (optional) environment
// interactions. Single-turn math reasoning is one decode segment; multi-turn
// tool calling interleaves decode segments with code-sandbox calls whose
// results are appended to the context as feedback tokens (which must be
// prefilled, not decoded).
//
// The segment list is immutable once a trajectory enters the pipeline. In
// the pipeline a record is moved, never copied: it lives in the trajectory
// store until completion, then moves to the experience buffer and a
// trainer batch, while in-flight work passes cursors that read the plan
// through the store (DESIGN.md §11). Segments still live in a shared
// refcounted store, so the copies that remain (builders, tests) bump a
// refcount instead of cloning the vector. The mutators below are
// copy-on-write for the builders (workload generator, tests) that shape a
// spec before or after it is wrapped in a record.
#ifndef LAMINAR_SRC_WORKLOAD_TRAJECTORY_SPEC_H_
#define LAMINAR_SRC_WORKLOAD_TRAJECTORY_SPEC_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace laminar {

struct TrajectorySegment {
  int64_t decode_tokens = 0;     // tokens generated auto-regressively
  double env_latency = 0.0;      // sandbox/API wait after this segment (0 if none)
  int64_t feedback_tokens = 0;   // env output appended to context after the wait
};

struct TrajectorySpec {
  int64_t prompt_tokens = 0;

  const std::vector<TrajectorySegment>& segments() const {
    static const std::vector<TrajectorySegment> kEmpty;
    return segments_ ? *segments_ : kEmpty;
  }
  size_t num_segments() const { return segments_ ? segments_->size() : 0; }

  // Copy-on-write builders: a spec whose store is shared with other copies
  // clones it before mutating, so those copies are never affected.
  void AppendSegment(const TrajectorySegment& seg) { MutableSegments().push_back(seg); }
  void ClearSegments() { segments_.reset(); }
  void ReserveSegments(size_t n) { MutableSegments().reserve(n); }

  int64_t total_decode_tokens() const {
    int64_t n = 0;
    for (const auto& s : segments()) {
      n += s.decode_tokens;
    }
    return n;
  }
  int64_t total_feedback_tokens() const {
    int64_t n = 0;
    for (const auto& s : segments()) {
      n += s.feedback_tokens;
    }
    return n;
  }
  // Final context length once fully generated.
  int64_t total_context_tokens() const {
    return prompt_tokens + total_decode_tokens() + total_feedback_tokens();
  }
  double total_env_latency() const {
    double t = 0.0;
    for (const auto& s : segments()) {
      t += s.env_latency;
    }
    return t;
  }
  int num_turns() const { return static_cast<int>(num_segments()); }

 private:
  std::vector<TrajectorySegment>& MutableSegments() {
    if (!segments_) {
      segments_ = std::make_shared<std::vector<TrajectorySegment>>();
    } else if (segments_.use_count() > 1) {
      segments_ = std::make_shared<std::vector<TrajectorySegment>>(*segments_);
    }
    return *segments_;
  }

  std::shared_ptr<std::vector<TrajectorySegment>> segments_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_WORKLOAD_TRAJECTORY_SPEC_H_
