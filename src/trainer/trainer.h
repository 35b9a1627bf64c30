// Trainer: consumes experience batches, applies policy updates, and
// publishes weight versions (paper §3.1 "Trainer" module).
//
// Two consumption modes cover the evaluated systems:
//  * kFullBatch — samples a whole global batch, then runs experience prep +
//    N mini-batch updates back-to-back (verl, one-step, AReaL, Laminar).
//  * kStreaming — starts a mini-batch update as soon as one mini-batch of
//    trajectories is buffered, overlapping prep with generation (the
//    stream-generation baseline).
//
// Publication is abstracted behind publish_fn so drivers plug in either the
// relay tier (Laminar: sub-second stall, background broadcast) or a
// GPU-direct global synchronization (baselines: actor and all rollouts stall).
#ifndef LAMINAR_SRC_TRAINER_TRAINER_H_
#define LAMINAR_SRC_TRAINER_TRAINER_H_

#include <functional>
#include <span>
#include <vector>

#include "src/common/stats.h"
#include "src/data/experience_buffer.h"
#include "src/llm/train_cost.h"
#include "src/policy/policy.h"
#include "src/sim/simulator.h"

namespace laminar {

class SnapshotTx;

enum class TrainerMode { kFullBatch, kStreaming };

struct TrainerConfig {
  int global_batch = 8192;    // trajectories per RL iteration
  int num_minibatches = 16;   // mini-batch update steps per iteration
  TrainerMode mode = TrainerMode::kFullBatch;
  RlAlgorithm algorithm = RlAlgorithm::kGrpo;
  // Begin the next iteration as soon as data allows (asynchronous systems).
  // When false the driver sequences iterations explicitly (verl/one-step).
  bool auto_continue = true;
};

struct IterationStats {
  int version = 0;        // version published by this iteration
  SimTime started;
  SimTime completed;      // after the publish stall
  double data_wait_seconds = 0.0;  // idle time waiting for experiences
  double train_seconds = 0.0;      // prep + mini-batch compute
  double publish_stall_seconds = 0.0;
  double tokens = 0.0;    // prompt + response tokens consumed
  double mean_reward = 0.0;
  double mean_consume_staleness = 0.0;
  int max_consume_staleness = 0;
  double mixed_version_fraction = 0.0;
  double clip_fraction = 0.0;
};

class Trainer : public ContinuationClient {
 public:
  // Continuation kinds for the trainer's pending events (DESIGN.md §13).
  // Stats-bearing events park their IterationStats in the serialized
  // `pending_stats_` side member; the payload itself is empty.
  enum Continuation : uint16_t {
    kContTrainDone = 0,      // full-batch compute finished
    kContMinibatchDone = 1,  // streaming mini-batch finished
    kContPublishDone = 2,    // publish stall elapsed; iteration completes
    kContRecover = 3,        // Kill() checkpoint recovery elapsed
    kContCrashRecover = 4,   // CrashRestart() recovery elapsed
  };

  Trainer(Simulator* sim, TrainerConfig config, TrainCostModel cost,
          ExperienceBuffer* buffer, Policy* policy);
  ~Trainer() override;

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override;
  void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                           SimTime at) override;

  // Returns the actor stall (seconds) for distributing version `v`.
  void set_publish_fn(std::function<double(int version)> fn) { publish_fn_ = std::move(fn); }
  void set_on_iteration(std::function<void(const IterationStats&)> fn) {
    on_iteration_ = std::move(fn);
  }

  // Optional gate consulted before starting an iteration (full-batch mode)
  // or a mini-batch (streaming mode). Lockstep drivers use it to hold the
  // trainer at global synchronization barriers.
  void set_begin_gate(std::function<bool()> gate) { begin_gate_ = std::move(gate); }

  // Arms the trainer; it starts consuming once enough data is buffered.
  void Start();
  // Drivers call this whenever the buffer gains trajectories.
  void NotifyData();

  // Fault injection: lose the in-flight iteration, recover from checkpoint
  // after `recovery_seconds` and resume consuming.
  void Kill(double recovery_seconds);

  // Checkpointing / crash-restart chaos (DESIGN.md §13) --------------------------
  // Serializes the trainer's persistent state (published version, completed
  // iteration history, consume-staleness counters) as an LMSNAP1 blob. Its
  // size grows with the iteration count only, never with the global batch. The system
  // refreshes this at Start() and after every completed iteration, so a
  // checkpoint never lags the last publish.
  std::string Checkpoint();
  // kCrashRestart: the trainer process dies outright. In-flight sampled work
  // is discarded with Kill()-identical accounting, every in-memory field is
  // wiped, and the persistent state is re-adopted from `checkpoint`; the
  // policy reloads the checkpointed version. Consumption resumes after
  // `recovery_seconds`. Check-fails on a corrupt or mismatched checkpoint.
  void CrashRestart(const std::string& checkpoint, double recovery_seconds);

  // Snapshot witness: the persistent fields by value plus digests of the
  // in-flight state (pending event, streaming accumulator, policy
  // parameters).
  void Snapshot(SnapshotTx& tx);

  int version() const { return version_; }
  // Trajectories sampled for iterations that a Kill() subsequently aborted.
  // Checkpoint recovery discards them without publishing a version.
  int64_t trajectories_discarded() const { return trajectories_discarded_; }
  bool busy() const { return busy_; }
  bool dead() const { return dead_; }
  const std::vector<IterationStats>& iterations() const { return iterations_; }
  // Count, sum and max of every trained record's consume staleness: the
  // report reads only their mean and max.
  const IntTally& consume_staleness() const { return consume_staleness_; }

 private:
  // The checkpoint traversal shared by Checkpoint() (write) and
  // CrashRestart() (adopt); Snapshot() embeds it in the full witness.
  void SnapshotPersistent(SnapshotTx& tx);
  // Continuation bodies (former scheduling lambdas).
  void OnTrainDone();
  void OnMinibatchDone();
  void OnPublishDone();
  void OnRecover(bool crash);
  void TryBegin();
  void BeginFullBatch();
  void TryBeginMinibatch();
  void FinishIteration(IterationStats stats);
  void RecordBatchStats(std::span<const TrajectoryRecord> batch, IterationStats& stats);

  Simulator* sim_;
  TrainerConfig config_;
  TrainCostModel cost_;
  ExperienceBuffer* buffer_;
  Policy* policy_;
  std::function<double(int)> publish_fn_;
  std::function<void(const IterationStats&)> on_iteration_;
  std::function<bool()> begin_gate_;

  int version_ = 0;
  int64_t trajectories_discarded_ = 0;
  bool busy_ = false;
  bool started_ = false;
  bool dead_ = false;
  SimTime last_completed_ = SimTime::Zero();

  // Streaming-mode state.
  int stream_mb_done_ = 0;
  bool stream_mb_running_ = false;
  IterationStats stream_stats_;
  SimTime stream_idle_since_ = SimTime::Zero();

  EventId pending_event_ = kInvalidEventId;
  // Stats carried by the in-flight kContTrainDone / kContPublishDone event
  // (full-batch mode). Serialized so a direct-boot restore can re-mint the
  // event with nothing but its (kind, time).
  IterationStats pending_stats_;
  std::vector<IterationStats> iterations_;
  IntTally consume_staleness_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_TRAINER_TRAINER_H_
