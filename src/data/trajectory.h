// Trajectory records and generation cursors.
//
// A TrajectoryRecord is the durable description of one trajectory: its
// generation plan, the policy version(s) that produced it, its reward and
// its timing. It lives in the trajectory store (PartialResponsePool) from
// issue to completion and is then moved to the experience buffer. In-flight
// work moves between replicas and the rollout manager as a 32-byte
// TrajectoryCursor (id plus progress) that reads the plan through the store.
#ifndef LAMINAR_SRC_DATA_TRAJECTORY_H_
#define LAMINAR_SRC_DATA_TRAJECTORY_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/workload/trajectory_spec.h"

namespace laminar {

using TrajId = int64_t;
constexpr TrajId kInvalidTrajId = -1;

// Online serving requests (DESIGN.md §14) ride the replica engine as cursors
// but never enter the training data path (prompt ledger, experience buffer);
// their own id range (and store) tells them apart with one comparison.
constexpr TrajId kServingIdBase = TrajId{1} << 40;
inline constexpr bool IsServingId(TrajId id) { return id >= kServingIdBase; }

struct TrajectoryRecord {
  TrajId id = kInvalidTrajId;
  int64_t prompt_id = -1;
  int group_index = 0;  // index within the prompt's GRPO group
  TrajectorySpec spec;

  // Policy versions used across the trajectory's lifetime. A single entry for
  // ordinary generation; multiple entries when partial rollout switched
  // weights mid-generation (the paper's "mixed-version" pathology).
  std::vector<int> weight_versions;

  // Outcome (filled by the reward function at completion).
  double reward = 0.0;
  // Probability the generating policy assigned to the sampled outcome; used
  // for importance ratios in the policy update (src/policy).
  double behavior_prob = 0.0;
  double difficulty = 0.5;
  bool success = false;

  SimTime created = SimTime::Zero();
  SimTime finished = SimTime::Zero();
  // Actor version at the moment generation finished: the paper's inherent
  // staleness is finish_actor_version - generation version (§6).
  int finish_actor_version = 0;
  int consume_actor_version = 0;

  int generation_version() const {
    return weight_versions.empty() ? 0 : weight_versions.front();
  }
  int latest_version() const {
    return weight_versions.empty() ? 0 : weight_versions.back();
  }
  bool mixed_version() const {
    for (size_t i = 1; i < weight_versions.size(); ++i) {
      if (weight_versions[i] != weight_versions[0]) {
        return true;
      }
    }
    return false;
  }
  int num_versions() const {
    int n = weight_versions.empty() ? 0 : 1;
    for (size_t i = 1; i < weight_versions.size(); ++i) {
      if (weight_versions[i] != weight_versions[i - 1]) {
        ++n;
      }
    }
    return n;
  }
  int inherent_staleness() const { return finish_actor_version - generation_version(); }
  int consume_staleness() const { return consume_actor_version - generation_version(); }
  // Prompt + response + env feedback tokens: the paper's throughput metric
  // counts all of them.
  int64_t total_tokens() const { return spec.total_context_tokens(); }
};

// Generation progress for an in-flight trajectory, walking its record's spec.
struct TrajectoryCursor {
  TrajId id = kInvalidTrajId;
  int segment_index = 0;
  // True while the context is materialized in some replica's KVCache. A
  // cursor that lost its cache (preemption, migration, failure) must
  // re-prefill `context_tokens` before decoding resumes.
  bool kv_resident = false;
  int64_t decoded_in_segment = 0;
  // Tokens currently in context (prompt + everything decoded + feedback so far).
  int64_t context_tokens = 0;

  // The cursor of a freshly issued record: nothing decoded, prompt in context.
  static TrajectoryCursor Start(const TrajectoryRecord& r) {
    return {r.id, 0, false, 0, r.spec.prompt_tokens};
  }

  bool finished(const TrajectorySpec& spec) const {
    return segment_index >= static_cast<int>(spec.num_segments());
  }
  const TrajectorySegment& current_segment(const TrajectorySpec& spec) const {
    return spec.segments()[segment_index];
  }
  int64_t remaining_in_segment(const TrajectorySpec& spec) const {
    return current_segment(spec).decode_tokens - decoded_in_segment;
  }
  // Resolves the sandbox call that ends the current segment: its feedback
  // joins the context and generation resumes at the next segment.
  void ResolveEnvCall(const TrajectorySpec& spec) {
    context_tokens += current_segment(spec).feedback_tokens;
    segment_index += 1;
    decoded_in_segment = 0;
  }
};

}  // namespace laminar

#endif  // LAMINAR_SRC_DATA_TRAJECTORY_H_
