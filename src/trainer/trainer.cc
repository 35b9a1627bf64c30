#include "src/trainer/trainer.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"
#include "src/trace/trace.h"

namespace laminar {
namespace {

constexpr int32_t kTrainerComp = ContinuationComponentId(kContFamilyTrainer);

// Shared field traversal for IterationStats (iteration history entries, the
// streaming accumulator, and the in-flight pending stats all serialize
// identically).
void SnapshotStats(SnapshotTx& tx, IterationStats& it) {
  tx.I64As("version", &it.version);
  double started = it.started.seconds();
  double completed = it.completed.seconds();
  tx.F64("started", &started);
  tx.F64("completed", &completed);
  tx.F64("data_wait_seconds", &it.data_wait_seconds);
  tx.F64("train_seconds", &it.train_seconds);
  tx.F64("publish_stall_seconds", &it.publish_stall_seconds);
  tx.F64("tokens", &it.tokens);
  tx.F64("mean_reward", &it.mean_reward);
  tx.F64("mean_consume_staleness", &it.mean_consume_staleness);
  tx.I64As("max_consume_staleness", &it.max_consume_staleness);
  tx.F64("mixed_version_fraction", &it.mixed_version_fraction);
  tx.F64("clip_fraction", &it.clip_fraction);
  if (tx.adopting()) {
    it.started = SimTime(started);
    it.completed = SimTime(completed);
  }
}

}  // namespace

Trainer::Trainer(Simulator* sim, TrainerConfig config, TrainCostModel cost,
                 ExperienceBuffer* buffer, Policy* policy)
    : sim_(sim), config_(config), cost_(std::move(cost)), buffer_(buffer), policy_(policy) {
  LAMINAR_CHECK_GT(config_.global_batch, 0);
  LAMINAR_CHECK_GT(config_.num_minibatches, 0);
  LAMINAR_CHECK_EQ(config_.global_batch % config_.num_minibatches, 0);
  sim_->continuations().Register(kTrainerComp, this);
}

Trainer::~Trainer() { sim_->continuations().Unregister(kTrainerComp); }

void Trainer::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  (void)p;
  switch (kind) {
    case kContTrainDone:
      OnTrainDone();
      return;
    case kContMinibatchDone:
      OnMinibatchDone();
      return;
    case kContPublishDone:
      OnPublishDone();
      return;
    case kContRecover:
      OnRecover(/*crash=*/false);
      return;
    case kContCrashRecover:
      OnRecover(/*crash=*/true);
      return;
  }
  LAMINAR_CHECK(false) << "trainer: unknown continuation kind " << kind;
}

void Trainer::RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                                  SimTime at) {
  EventId id = sim_->ScheduleContinuationAt(at, kTrainerComp, kind, p);
  if (kind == kContTrainDone || kind == kContMinibatchDone || kind == kContPublishDone) {
    pending_event_ = id;
  }
}

void Trainer::Start() {
  started_ = true;
  last_completed_ = sim_->Now();
  stream_idle_since_ = sim_->Now();
  TryBegin();
}

void Trainer::NotifyData() {
  if (!started_ || dead_) {
    return;
  }
  TryBegin();
}

void Trainer::TryBegin() {
  if (busy_ && config_.mode == TrainerMode::kFullBatch) {
    return;
  }
  if (config_.mode == TrainerMode::kFullBatch) {
    if (begin_gate_ && !begin_gate_()) {
      return;
    }
    if (buffer_->CanSample(static_cast<size_t>(config_.global_batch))) {
      BeginFullBatch();
    }
    return;
  }
  TryBeginMinibatch();
}

void Trainer::RecordBatchStats(std::span<const TrajectoryRecord> batch,
                               IterationStats& stats) {
  for (const TrajectoryRecord& rec : batch) {
    stats.tokens += static_cast<double>(rec.total_tokens());
    stats.mean_reward += rec.reward;
    int staleness = rec.consume_staleness();
    stats.mean_consume_staleness += staleness;
    stats.max_consume_staleness = std::max(stats.max_consume_staleness, staleness);
    if (rec.mixed_version()) {
      stats.mixed_version_fraction += 1.0;
    }
    consume_staleness_.Add(staleness);
  }
  double n = static_cast<double>(batch.size());
  stats.mean_reward /= n;
  stats.mean_consume_staleness /= n;
  stats.mixed_version_fraction /= n;
}

void Trainer::BeginFullBatch() {
  busy_ = true;
  IterationStats stats;
  stats.started = sim_->Now();
  stats.data_wait_seconds = sim_->Now() - last_completed_;
  std::vector<TrajectoryRecord> batch =
      buffer_->Sample(static_cast<size_t>(config_.global_batch), version_);
  RecordBatchStats(batch, stats);

  // Policy math runs eagerly, mini-batch by mini-batch over contiguous spans
  // of the batch, the last taking any remainder (the parameter values it
  // produces are what matters; the wall time is charged below).
  std::span<const TrajectoryRecord> rest(batch);
  size_t per_mb = batch.size() / config_.num_minibatches;
  double clip_sum = 0.0;
  for (int m = 0; m < config_.num_minibatches; ++m) {
    size_t take = m + 1 == config_.num_minibatches ? rest.size() : per_mb;
    UpdateStats u = policy_->UpdateMinibatch(rest.first(take), config_.algorithm);
    rest = rest.subspan(take);
    clip_sum += u.clip_fraction;
  }
  stats.clip_fraction = clip_sum / config_.num_minibatches;

  stats.train_seconds = cost_.IterationTime(stats.tokens, config_.num_minibatches);
  pending_stats_ = std::move(stats);
  pending_event_ =
      sim_->ScheduleContinuationAfter(pending_stats_.train_seconds, kTrainerComp, kContTrainDone);
}

void Trainer::OnTrainDone() {
  pending_event_ = kInvalidEventId;
  IterationStats stats = std::move(pending_stats_);
  pending_stats_ = IterationStats{};
  FinishIteration(std::move(stats));
}

void Trainer::TryBeginMinibatch() {
  if (stream_mb_running_ || dead_) {
    return;
  }
  if (begin_gate_ && !begin_gate_()) {
    return;
  }
  size_t mb_size = static_cast<size_t>(config_.global_batch / config_.num_minibatches);
  if (!buffer_->CanSample(mb_size)) {
    return;
  }
  if (stream_mb_done_ == 0) {
    stream_stats_ = IterationStats{};
    stream_stats_.started = sim_->Now();
    stream_stats_.data_wait_seconds = sim_->Now() - stream_idle_since_;
  } else {
    stream_stats_.data_wait_seconds += sim_->Now() - stream_idle_since_;
  }
  busy_ = true;
  stream_mb_running_ = true;
  std::vector<TrajectoryRecord> mb = buffer_->Sample(mb_size, version_);
  IterationStats mb_stats;
  RecordBatchStats(mb, mb_stats);
  stream_stats_.tokens += mb_stats.tokens;
  double w_old = static_cast<double>(stream_mb_done_);
  double w_new = 1.0;
  auto blend = [&](double acc, double v) { return (acc * w_old + v * w_new) / (w_old + w_new); };
  stream_stats_.mean_reward = blend(stream_stats_.mean_reward, mb_stats.mean_reward);
  stream_stats_.mean_consume_staleness =
      blend(stream_stats_.mean_consume_staleness, mb_stats.mean_consume_staleness);
  stream_stats_.max_consume_staleness =
      std::max(stream_stats_.max_consume_staleness, mb_stats.max_consume_staleness);
  stream_stats_.mixed_version_fraction =
      blend(stream_stats_.mixed_version_fraction, mb_stats.mixed_version_fraction);

  UpdateStats u = policy_->UpdateMinibatch(mb, config_.algorithm);
  stream_stats_.clip_fraction = blend(stream_stats_.clip_fraction, u.clip_fraction);

  // Streaming overlaps generation with training, but the reference/old
  // log-prob forwards still run on the trainer GPUs for every mini-batch.
  double duration = cost_.MinibatchTime(mb_stats.tokens) +
                    cost_.ExperiencePrepTime(mb_stats.tokens);
  stream_stats_.train_seconds += duration;
  pending_event_ = sim_->ScheduleContinuationAfter(duration, kTrainerComp, kContMinibatchDone);
}

void Trainer::OnMinibatchDone() {
  pending_event_ = kInvalidEventId;
  stream_mb_running_ = false;
  ++stream_mb_done_;
  stream_idle_since_ = sim_->Now();
  if (stream_mb_done_ >= config_.num_minibatches) {
    stream_mb_done_ = 0;
    FinishIteration(stream_stats_);
  } else {
    TryBeginMinibatch();
  }
}

void Trainer::FinishIteration(IterationStats stats) {
  ++version_;
  int published = policy_->PublishVersion();
  LAMINAR_CHECK_EQ(published, version_);
  stats.version = version_;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kTrainer, "trainer/publish", -1, version_);
  stats.publish_stall_seconds = publish_fn_ ? publish_fn_(version_) : 0.0;

  double stall = stats.publish_stall_seconds;
  pending_stats_ = std::move(stats);
  pending_event_ = sim_->ScheduleContinuationAfter(stall, kTrainerComp, kContPublishDone);
}

void Trainer::OnPublishDone() {
  pending_event_ = kInvalidEventId;
  IterationStats stats = std::move(pending_stats_);
  pending_stats_ = IterationStats{};
  stats.completed = sim_->Now();
  last_completed_ = sim_->Now();
  stream_idle_since_ = sim_->Now();
  busy_ = false;
  // The iteration's phase spans are emitted retroactively now that every
  // boundary is known; TraceQuery sorts by begin time, so emission at the
  // end of the iteration is equivalent to live emission.
  LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kTrainer, "trainer/wait_data", -1,
                        stats.started - stats.data_wait_seconds, stats.started,
                        stats.version);
  LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kTrainer, "trainer/train", -1,
                        stats.started, stats.started + stats.train_seconds,
                        stats.version);
  LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kTrainer, "trainer/publish_stall", -1,
                        stats.completed - stats.publish_stall_seconds, stats.completed,
                        stats.version);
  LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kTrainer, "trainer/iteration", -1,
                        stats.started - stats.data_wait_seconds, stats.completed,
                        stats.version, stats.tokens);
  iterations_.push_back(stats);
  if (on_iteration_) {
    on_iteration_(stats);
  }
  if (config_.auto_continue && !dead_) {
    TryBegin();
  }
}

void Trainer::Kill(double recovery_seconds) {
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kTrainer, "trainer/kill", -1, version_);
  if (config_.mode == TrainerMode::kFullBatch) {
    if (busy_) {
      trajectories_discarded_ += config_.global_batch;
    }
  } else {
    int sampled = stream_mb_done_ + (stream_mb_running_ ? 1 : 0);
    trajectories_discarded_ +=
        static_cast<int64_t>(sampled) * (config_.global_batch / config_.num_minibatches);
  }
  dead_ = true;
  busy_ = false;
  stream_mb_running_ = false;
  stream_mb_done_ = 0;
  if (pending_event_ != kInvalidEventId) {
    sim_->Cancel(pending_event_);
    pending_event_ = kInvalidEventId;
  }
  pending_stats_ = IterationStats{};
  // Standard checkpoint recovery: the actor reloads the latest published
  // version, discarding any unpublished mini-batch updates, then resumes
  // sampling from the experience buffer.
  policy_->RestoreVersion(version_);
  sim_->ScheduleContinuationAfter(recovery_seconds, kTrainerComp, kContRecover);
}

void Trainer::OnRecover(bool crash) {
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kTrainer,
                        crash ? "trainer/crash_recover" : "trainer/recover", -1, version_);
  dead_ = false;
  last_completed_ = sim_->Now();
  stream_idle_since_ = sim_->Now();
  if (started_) {
    TryBegin();
  }
}

void Trainer::SnapshotPersistent(SnapshotTx& tx) {
  tx.Begin("trainer_ckpt");
  tx.I64As("version", &version_);
  uint64_t n = iterations_.size();
  tx.U64("iterations", &n);
  if (tx.adopting()) {
    iterations_.assign(n, IterationStats{});
  }
  for (IterationStats& it : iterations_) {
    tx.Begin("iteration");
    SnapshotStats(tx, it);
    tx.End();
  }
  tx.Begin("consume_staleness");
  consume_staleness_.Snapshot(tx);
  tx.End();
  tx.End();
}

std::string Trainer::Checkpoint() {
  SnapshotWriter writer;
  SnapshotTx tx(&writer);
  SnapshotPersistent(tx);
  return writer.Finish();
}

void Trainer::Snapshot(SnapshotTx& tx) {
  tx.Begin("trainer");
  SnapshotPersistent(tx);
  tx.I64("trajectories_discarded", &trajectories_discarded_);
  tx.Bool("busy", &busy_);
  tx.Bool("started", &started_);
  tx.Bool("dead", &dead_);
  double last_completed = last_completed_.seconds();
  double stream_idle_since = stream_idle_since_.seconds();
  tx.F64("last_completed", &last_completed);
  tx.I64As("stream_mb_done", &stream_mb_done_);
  tx.Bool("stream_mb_running", &stream_mb_running_);
  tx.F64("stream_idle_since", &stream_idle_since);
  if (tx.adopting()) {
    last_completed_ = SimTime(last_completed);
    stream_idle_since_ = SimTime(stream_idle_since);
    // Pending events re-seat through RestoreContinuation (event_heap section),
    // which runs after component adoption.
    pending_event_ = kInvalidEventId;
  }
  // In-flight state: fully serialized so a direct boot re-seats it (v2).
  tx.Begin("pending_stats");
  SnapshotStats(tx, pending_stats_);
  tx.End();
  tx.Begin("stream_stats");
  SnapshotStats(tx, stream_stats_);
  tx.End();
  policy_->Snapshot(tx);
  tx.End();
}

void Trainer::CrashRestart(const std::string& checkpoint, double recovery_seconds) {
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kTrainer, "trainer/crash", -1, version_);
  // The process dies with whatever it had sampled but not yet published;
  // the discard accounting is identical to Kill().
  if (config_.mode == TrainerMode::kFullBatch) {
    if (busy_) {
      trajectories_discarded_ += config_.global_batch;
    }
  } else {
    int sampled = stream_mb_done_ + (stream_mb_running_ ? 1 : 0);
    trajectories_discarded_ +=
        static_cast<int64_t>(sampled) * (config_.global_batch / config_.num_minibatches);
  }
  dead_ = true;
  busy_ = false;
  stream_mb_running_ = false;
  stream_mb_done_ = 0;
  stream_stats_ = IterationStats{};
  pending_stats_ = IterationStats{};
  if (pending_event_ != kInvalidEventId) {
    sim_->Cancel(pending_event_);
    pending_event_ = kInvalidEventId;
  }
  // Wipe the in-memory training state outright, then adopt the checkpoint —
  // the restart sees only what was durably serialized.
  version_ = 0;
  iterations_.clear();
  consume_staleness_ = IntTally{};
  SnapshotReader reader;
  std::string error;
  LAMINAR_CHECK(reader.Parse(checkpoint, &error)) << "trainer checkpoint: " << error;
  SnapshotTx tx(&reader, SnapshotMode::kAdopt);
  SnapshotPersistent(tx);
  LAMINAR_CHECK(tx.ok()) << "trainer checkpoint adopt: " << tx.mismatches().front();
  // The policy's published history is durable (actor checkpoint files), so
  // the restart never steps behind a version replicas may already serve.
  version_ = std::max(version_, policy_->latest_version());
  policy_->RestoreVersion(version_);
  sim_->ScheduleContinuationAfter(recovery_seconds, kTrainerComp, kContCrashRecover);
}

}  // namespace laminar
