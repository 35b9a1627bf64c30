#include "src/rollout/replica.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/trace/trace.h"

namespace laminar {

const char* ReplicaPhaseName(ReplicaPhase phase) {
  switch (phase) {
    case ReplicaPhase::kIdle:
      return "idle";
    case ReplicaPhase::kGenerating:
      return "generating";
    case ReplicaPhase::kPaused:
      return "paused";
    case ReplicaPhase::kUpdatingWeights:
      return "updating";
    case ReplicaPhase::kDead:
      return "dead";
  }
  return "?";
}

RolloutReplica::RolloutReplica(Simulator* sim, ReplicaConfig config, DecodeModel decode,
                               double kv_capacity_tokens, PartialResponsePool* pool,
                               PartialResponsePool* serving_pool)
    : sim_(sim), config_(config), decode_(std::move(decode)),
      kv_capacity_tokens_(kv_capacity_tokens), pool_(pool), serving_pool_(serving_pool) {
  LAMINAR_CHECK_GT(kv_capacity_tokens_, 0.0);
  LAMINAR_CHECK(pool_ != nullptr);
  LAMINAR_CHECK_GT(config_.max_concurrency, 0);
  sim_->continuations().Register(
      ContinuationComponentId(kContFamilyReplica, config_.id), this);
  TouchMetrics();
}

RolloutReplica::~RolloutReplica() {
  sim_->continuations().Unregister(
      ContinuationComponentId(kContFamilyReplica, config_.id));
}

void RolloutReplica::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  switch (kind) {
    case kContAdvance:
      Advance(p.a);
      return;
    case kContEnvRejoin:
      RejoinFromEnv(static_cast<uint64_t>(p.a));
      return;
  }
  LAMINAR_CHECK(false) << "unknown replica continuation kind " << kind;
}

void RolloutReplica::RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                                         SimTime at) {
  int32_t comp = ContinuationComponentId(kContFamilyReplica, config_.id);
  switch (kind) {
    case kContAdvance:
      // The advance metadata (start/steps/latency) was adopted by
      // SnapshotState; only the event itself needs re-seating.
      LAMINAR_CHECK_EQ(p.a, advance_steps_);
      advance_event_ = sim_->ScheduleContinuationAt(at, comp, kind, p);
      return;
    case kContEnvRejoin:
      // The payload carries the env seq, the stable key into env_.
      // Re-scheduling the identical payload keeps the re-minted heap
      // byte-equal to the blob's event_heap section.
      EnvAt(static_cast<uint64_t>(p.a)).event = sim_->ScheduleContinuationAt(at, comp, kind, p);
      return;
  }
  LAMINAR_CHECK(false) << "replica continuation kind " << kind
                       << " cannot be pending on the heap";
}

void RolloutReplica::TouchMetrics() {
  SimTime now = sim_->Now();
  metrics_.kv_used_tokens.Set(now, kv_used_tokens_);
  metrics_.batch_size.Set(now, static_cast<double>(running_live_));
  metrics_.busy.Set(now, running_live_ == 0 ? 0.0 : 1.0);
  LAMINAR_TRACE_COUNTER(sim_, TraceComponent::kReplica, "replica/kv_used", config_.id,
                        kv_used_tokens_);
  LAMINAR_TRACE_COUNTER(sim_, TraceComponent::kReplica, "replica/batch_size", config_.id,
                        static_cast<double>(running_live_));
  // Busy edges become decode_busy spans, emitted retroactively at the falling
  // edge. Edge tracking runs unconditionally so a sink attached later still
  // sees correct begins, and stays out of the integrator state.
  bool busy_now = running_live_ > 0;
  if (busy_now && !trace_was_busy_) {
    trace_busy_since_ = now;
  } else if (!busy_now && trace_was_busy_) {
    LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kReplica, "replica/decode_busy",
                          config_.id, trace_busy_since_, now);
  }
  trace_was_busy_ = busy_now;
}

void RolloutReplica::AssignWork(std::vector<TrajectoryCursor> works, bool kv_transferred) {
  LAMINAR_CHECK(phase_ != ReplicaPhase::kDead) << "assigning work to a dead replica";
  SyncProgress();
  for (TrajectoryCursor& w : works) {
    const TrajectorySpec& spec = SpecOf(w.id);
    LAMINAR_CHECK(!w.finished(spec));
    LAMINAR_CHECK_GE(w.remaining_in_segment(spec), 1);
    if (kv_transferred && w.kv_resident) {
      // KV pages stream over RDMA to this replica; decoding stalls for the
      // transfer but no recompute is needed.
      double kv_bytes = static_cast<double>(w.context_tokens) *
                        decode_.model().kv_bytes_per_token();
      pending_stall_seconds_ +=
          config_.migration_fixed_overhead + kv_bytes / config_.kv_transfer_bandwidth;
      ++metrics_.migrations_in;
    } else {
      w.kv_resident = false;  // will re-prefill on admission
    }
    waiting_.push_back(w);
  }
  if (phase_ == ReplicaPhase::kIdle && busy()) {
    phase_ = ReplicaPhase::kGenerating;
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
}

void RolloutReplica::AssignServingWork(std::vector<TrajectoryCursor> works) {
  LAMINAR_CHECK(phase_ != ReplicaPhase::kDead) << "serving work on a dead replica";
  SyncProgress();
  // Reverse push_front keeps the caller's order at the head of the queue,
  // ahead of every queued rollout sequence (TryAdmit is front-only).
  for (size_t i = works.size(); i > 0; --i) {
    TrajectoryCursor& w = works[i - 1];
    LAMINAR_CHECK(IsServingId(w.id));
    LAMINAR_CHECK(!w.finished(SpecOf(w.id)));
    w.kv_resident = false;  // prefill on admission
    ++num_serving_;
    ++serving_assigned_total_;
    waiting_.push_front(w);
  }
  if (phase_ == ReplicaPhase::kIdle && busy()) {
    phase_ = ReplicaPhase::kGenerating;
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
}

std::vector<TrajectoryCursor> RolloutReplica::PreemptRolloutForServing(double needed_tokens) {
  std::vector<TrajectoryCursor> evicted;
  if (phase_ == ReplicaPhase::kDead) {
    return evicted;
  }
  SyncProgress();
  size_t scan = running_.size();
  while (scan > 0 && kv_capacity_tokens_ - kv_used_tokens_ < needed_tokens) {
    --scan;
    const RunningSeq& seq = running_[scan];
    if (!seq.live || IsServingId(seq.cursor.id)) {
      continue;  // serving never evicts serving
    }
    TrajectoryCursor victim = TakeRunning(scan);
    scan = std::min(scan, running_.size());  // the tail trim may pass it
    kv_used_tokens_ -= static_cast<double>(victim.context_tokens);
    victim.kv_resident = false;
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/serving_preempt",
                          config_.id, victim.id);
    ++metrics_.preemptions;
    evicted.push_back(victim);
  }
  MaybeCompactRunning();
  if (phase_ == ReplicaPhase::kGenerating) {
    ScheduleAdvance();
  }
  TouchMetrics();
  return evicted;
}

std::vector<TrajectoryCursor> RolloutReplica::ExtractAllWork() {
  SyncProgress();
  std::vector<TrajectoryCursor> out;
  // Serving requests are latency-bound and pinned to their host: they stay
  // resident (running and queued) while every rollout sequence drains. With
  // the tier off this loop is the historical drain-everything path.
  std::vector<RunningSeq> kept;
  for (RunningSeq& seq : running_) {
    if (!seq.live) {
      continue;
    }
    if (IsServingId(seq.cursor.id)) {
      kept.push_back(seq);
      continue;
    }
    Rebase(seq);
    decode_ctx_total_ -= seq.cursor.context_tokens;
    kv_used_tokens_ -= static_cast<double>(seq.cursor.context_tokens);
    out.push_back(seq.cursor);
  }
  running_ = std::move(kept);
  running_live_ = running_.size();
  RebuildBoundaryHeap();
  // Env-waiting work: the sandbox call outlives the hosting replica (results
  // flow through the manager), so we resolve the interaction here: feedback
  // is appended to the context and the trajectory resumes at its next
  // segment on the destination. Its cached KV on this replica is discarded.
  // Cancellation and resolution both walk admission (seq) order, the old
  // insertion order, so recovery order is unchanged.
  for (const EnvEntry& e : env_) {
    if (e.live) {
      sim_->Cancel(e.event);
    }
  }
  while (env_live_ > 0) {
    TrajectoryCursor w = RemoveEnv(env_base_ + env_head_);
    kv_used_tokens_ -= static_cast<double>(w.context_tokens);
    w.kv_resident = false;
    const TrajectorySpec& spec = SpecOf(w.id);
    w.ResolveEnvCall(spec);
    if (w.finished(spec)) {
      CompleteTrajectory(w);
    } else {
      out.push_back(w);
    }
  }
  // One rotation of the queue: serving requests go back in order, rollout
  // sequences leave in order (a stable partition).
  for (size_t n = waiting_.size(); n > 0; --n) {
    TrajectoryCursor w = waiting_.front();
    waiting_.pop_front();
    if (IsServingId(w.id)) {
      waiting_.push_back(w);
    } else {
      out.push_back(w);
    }
  }
  metrics_.migrations_out += static_cast<int64_t>(out.size());
  if (num_serving_ == 0) {
    // Everything drained: exact integer-token subtraction above already left
    // zero, but restate it so accumulated prefill debt is also discarded.
    kv_used_tokens_ = 0.0;
    pending_stall_seconds_ = 0.0;
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    if (busy()) {
      TryAdmit();
      ScheduleAdvance();
    } else {
      phase_ = ReplicaPhase::kIdle;
    }
  }
  TouchMetrics();
  return out;
}

void RolloutReplica::SetWeightVersion(int version) {
  LAMINAR_CHECK_GE(version, weight_version_);
  weight_version_ = version;
}

void RolloutReplica::LoadCheckpointVersion(int version) {
  LAMINAR_CHECK(phase_ == ReplicaPhase::kIdle) << "checkpoint load on a busy replica";
  LAMINAR_CHECK_GE(version, 0);
  weight_version_ = version;
}

int64_t RolloutReplica::BeginWeightUpdate() {
  LAMINAR_CHECK(phase_ == ReplicaPhase::kIdle || phase_ == ReplicaPhase::kPaused)
      << "weight update requires a drained or paused replica, was "
      << ReplicaPhaseName(phase_);
  pre_update_phase_ = phase_;
  phase_ = ReplicaPhase::kUpdatingWeights;
  weight_update_begin_ = sim_->Now();
  return ++weight_update_epoch_;
}

bool RolloutReplica::EndWeightUpdate(int64_t epoch, int new_version,
                                     double wait_seconds) {
  // A pull completion can outlive the update it belongs to: the replica died
  // and was revived, or the relay restarted and the pull was re-issued. Such
  // a callback carries a stale epoch and must not touch phase state.
  if (phase_ != ReplicaPhase::kUpdatingWeights || epoch != weight_update_epoch_) {
    return false;
  }
  SetWeightVersion(new_version);
  metrics_.weight_update_wait_seconds += wait_seconds;
  ++metrics_.weight_updates;
  LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kReplica, "replica/weight_update",
                        config_.id, weight_update_begin_, sim_->Now(), new_version,
                        wait_seconds);
  phase_ = pre_update_phase_;
  if (phase_ == ReplicaPhase::kIdle && busy()) {
    phase_ = ReplicaPhase::kGenerating;
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
  return true;
}

void RolloutReplica::AbortWeightUpdate() {
  LAMINAR_CHECK(phase_ == ReplicaPhase::kUpdatingWeights);
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/weight_update_abort",
                        config_.id, weight_version_);
  ++weight_update_epoch_;  // invalidate the in-flight pull completion
  phase_ = pre_update_phase_;
}

void RolloutReplica::Pause() {
  if (phase_ != ReplicaPhase::kGenerating) {
    if (phase_ == ReplicaPhase::kIdle) {
      phase_ = ReplicaPhase::kPaused;
    }
    return;
  }
  SyncProgress();
  phase_ = ReplicaPhase::kPaused;
  TouchMetrics();
}

void RolloutReplica::Resume(int new_version, bool recompute_kv) {
  if (phase_ == ReplicaPhase::kDead) {
    return;
  }
  LAMINAR_CHECK(phase_ == ReplicaPhase::kPaused)
      << "resume from " << ReplicaPhaseName(phase_);
  if (new_version >= 0 && new_version != weight_version_) {
    SetWeightVersion(new_version);
    // Partial rollout: every open trajectory continues under the new policy.
    auto stamp = [this, new_version](TrajId id) {
      std::vector<int>& versions = StoreFor(id).record(id).weight_versions;
      if (!versions.empty() && versions.back() != new_version) {
        versions.push_back(new_version);
      }
    };
    for (const RunningSeq& seq : running_) {
      if (seq.live) {
        stamp(seq.cursor.id);
      }
    }
    double env_context = 0.0;
    for (const EnvEntry& e : env_) {
      if (e.live) {
        stamp(e.cursor.id);
        env_context += static_cast<double>(e.cursor.context_tokens);
      }
    }
    if (recompute_kv) {
      // The cache holds activations of the *old* weights; every resident
      // context must be re-prefilled (the paper's partial-rollout overhead).
      // Context counts are integers below 2^53, so this double sum is exact
      // and independent of traversal order.
      double recompute_tokens = static_cast<double>(MaterializedDecodeContext()) + env_context;
      pending_stall_seconds_ += decode_.PrefillLatency(recompute_tokens) / speed_factor_;
      metrics_.prefill_tokens += static_cast<int64_t>(recompute_tokens);
    }
  }
  phase_ = busy() ? ReplicaPhase::kGenerating : ReplicaPhase::kIdle;
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
}

std::vector<TrajectoryCursor> RolloutReplica::Kill() {
  CancelAdvance();
  for (const EnvEntry& e : env_) {
    if (e.live) {
      sim_->Cancel(e.event);
    }
  }
  // Running and env-waiting work streamed checkpoints to the store at
  // admission, so the manager recovers those via TakeByReplica. Queued work
  // may never have been admitted anywhere; hand it back so the caller can
  // account for it explicitly instead of losing it silently.
  std::vector<TrajectoryCursor> discarded;
  discarded.reserve(waiting_.size());
  for (TrajectoryCursor w : waiting_) {
    w.kv_resident = false;
    discarded.push_back(w);
  }
  running_.clear();
  running_live_ = 0;
  decode_ctx_total_ = 0;
  boundary_heap_.clear();
  waiting_.clear();
  env_.clear();
  env_head_ = 0;
  env_live_ = 0;
  num_serving_ = 0;  // resident serving requests die with the machine
  kv_used_tokens_ = 0.0;
  pending_stall_seconds_ = 0.0;
  phase_ = ReplicaPhase::kDead;
  TouchMetrics();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/kill", config_.id,
                        static_cast<int64_t>(discarded.size()));
  return discarded;
}

void RolloutReplica::Revive() {
  LAMINAR_CHECK(phase_ == ReplicaPhase::kDead);
  phase_ = ReplicaPhase::kIdle;
  speed_factor_ = 1.0;  // a replacement machine starts healthy
  TouchMetrics();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/revive", config_.id,
                        weight_version_);
}

void RolloutReplica::SetSpeedFactor(double factor) {
  LAMINAR_CHECK(factor > 0.0 && factor <= 1.0) << "speed factor " << factor;
  if (factor == speed_factor_ || phase_ == ReplicaPhase::kDead) {
    return;
  }
  // Credit progress made at the old speed, then re-plan the advance at the
  // new one. ScheduleAdvance() reads speed_factor_ for both the step latency
  // and any carried-over prefill debt.
  SyncProgress();
  speed_factor_ = factor;
  if (phase_ == ReplicaPhase::kGenerating) {
    ScheduleAdvance();
  }
}

double RolloutReplica::ResidentKvTokens() const {
  // Context counts are integers below 2^53, so the double sum is exact.
  double total = static_cast<double>(MaterializedDecodeContext());
  for (const EnvEntry& e : env_) {
    if (e.live && e.cursor.kv_resident) {
      total += static_cast<double>(e.cursor.context_tokens);
    }
  }
  return total;
}

int64_t RolloutReplica::MaterializedDecodeContext() const {
  int64_t total = 0;
  for (const RunningSeq& seq : running_) {
    if (seq.live) {
      total += seq.cursor.context_tokens + (decode_epoch_ - seq.base);
    }
  }
  return total;
}

void RolloutReplica::AppendHeldIds(std::vector<TrajId>* ids) const {
  for (const RunningSeq& seq : running_) {
    if (seq.live) {
      ids->push_back(seq.cursor.id);
    }
  }
  for (const TrajectoryCursor& w : waiting_) {
    ids->push_back(w.id);
  }
  for (const EnvEntry& e : env_) {
    if (e.live) {
      ids->push_back(e.cursor.id);
    }
  }
}

void RolloutReplica::SkewDecodeBaseForTest(int64_t delta) {
  for (RunningSeq& seq : running_) {
    if (seq.live) {
      seq.base -= delta;
      return;
    }
  }
}

RolloutReplica::EnvEntry& RolloutReplica::EnvAt(uint64_t seq) {
  uint64_t i = seq - env_base_;
  LAMINAR_CHECK(seq >= env_base_ && i < env_.size() && env_[i].live)
      << "env rejoin for unknown seq " << seq;
  return env_[i];
}

RolloutReplica::EnvEntry& RolloutReplica::InsertEnv(uint64_t seq, const TrajectoryCursor& cursor,
                                                    SimTime at) {
  // Seqs arrive in increasing order (live calls mint ++env_seq_; adoption
  // replays them ascending), so entries only append.
  if (env_live_ == 0) {
    env_.clear();
    env_base_ = seq;
    env_head_ = 0;
  }
  LAMINAR_CHECK_GE(seq, env_base_ + env_.size()) << "env seq " << seq << " out of order";
  env_.resize(seq - env_base_);  // tombstones for seqs that already returned
  env_.push_back(EnvEntry{cursor, kInvalidEventId, at, true});
  ++env_live_;
  return env_.back();
}

TrajectoryCursor RolloutReplica::RemoveEnv(uint64_t seq) {
  EnvEntry& entry = EnvAt(seq);
  entry.live = false;
  --env_live_;
  TrajectoryCursor cursor = entry.cursor;
  while (env_head_ < env_.size() && !env_[env_head_].live) {
    ++env_head_;
  }
  if (env_head_ > 32 && env_head_ * 2 > env_.size()) {
    env_.erase(env_.begin(), env_.begin() + static_cast<std::ptrdiff_t>(env_head_));
    env_base_ += env_head_;
    env_head_ = 0;
  }
  return cursor;
}

RolloutReplica::DecodeProbeSample RolloutReplica::ObservedDecodeProbe() const {
  DecodeProbeSample s;
  s.busy_seconds = decode_busy_seconds_;
  s.request_seconds = decode_request_seconds_;
  s.ctx_request_seconds = decode_ctx_request_seconds_;
  s.tokens = metrics_.decode_tokens;
  if (advance_event_ != kInvalidEventId) {
    double decode_elapsed = (sim_->Now() - advance_start_) - advance_stall_;
    if (decode_elapsed > 0.0 && advance_step_latency_ > 0.0) {
      int64_t done =
          static_cast<int64_t>(std::floor(decode_elapsed / advance_step_latency_));
      done = std::min(done, advance_steps_);
      if (done > 0) {
        double batch = static_cast<double>(running_live_);
        double busy = static_cast<double>(done) * advance_step_latency_;
        s.busy_seconds += busy;
        s.request_seconds += busy * batch;
        s.ctx_request_seconds += busy * batch * advance_avg_ctx_;
        s.tokens += done * static_cast<int64_t>(running_live_);
      }
    }
  }
  return s;
}

ReplicaSnapshot RolloutReplica::Snapshot() const {
  ReplicaSnapshot snap;
  snap.replica_id = config_.id;
  snap.weight_version = weight_version_;
  snap.kv_used_frac = kv_used_frac();
  snap.num_reqs = num_reqs();
  snap.num_waiting = static_cast<int>(waiting_.size());
  snap.busy = busy();
  snap.eligible = phase_ == ReplicaPhase::kGenerating;
  return snap;
}

void RolloutReplica::CreditDecodeProbe(int64_t steps, int64_t batch) {
  double busy = static_cast<double>(steps) * advance_step_latency_;
  decode_busy_seconds_ += busy;
  decode_request_seconds_ += busy * static_cast<double>(batch);
  decode_ctx_request_seconds_ += busy * static_cast<double>(batch) * advance_avg_ctx_;
}

void RolloutReplica::CancelAdvance() {
  if (advance_event_ != kInvalidEventId) {
    sim_->Cancel(advance_event_);
    advance_event_ = kInvalidEventId;
  }
}

void RolloutReplica::SyncProgress() {
  if (advance_event_ == kInvalidEventId) {
    return;
  }
  double elapsed = sim_->Now() - advance_start_;
  double decode_elapsed = elapsed - advance_stall_;
  int64_t done = 0;
  if (decode_elapsed > 0.0 && advance_step_latency_ > 0.0) {
    done = static_cast<int64_t>(std::floor(decode_elapsed / advance_step_latency_));
    // Boundaries are handled only by Advance(); stay strictly before them.
    done = std::min(done, advance_steps_ - 1);
    done = std::max<int64_t>(done, 0);
  }
  if (done > 0) {
    int64_t batch = static_cast<int64_t>(running_live_);
    decode_epoch_ += done;
    decode_ctx_total_ += batch * done;
    kv_used_tokens_ += static_cast<double>(batch * done);
    metrics_.decode_tokens += batch * done;
    CreditDecodeProbe(done, batch);
  }
  // Unconsumed prefill debt carries over to the next schedule.
  pending_stall_seconds_ += std::max(0.0, advance_stall_ - std::max(elapsed, 0.0));
  CancelAdvance();
}

void RolloutReplica::ScheduleAdvance() {
  if (phase_ != ReplicaPhase::kGenerating) {
    return;
  }
  SyncProgress();
  if (running_live_ == 0) {
    TryAdmit();
    if (running_live_ == 0) {
      TouchMetrics();
      return;  // everything is env-waiting or the replica drained
    }
  }
  PreemptForHeadroom();
  if (running_live_ == 0) {
    TouchMetrics();
    return;
  }
  int batch = static_cast<int>(running_live_);
  // Integer total: context counts stay below 2^53, so one conversion equals
  // summing the doubles one by one, bit-for-bit.
  int64_t total_ctx = decode_ctx_total_;
  int64_t min_remaining = NextBoundaryEpoch() - decode_epoch_;
  LAMINAR_CHECK_GE(min_remaining, 1);
  double avg_ctx = static_cast<double>(total_ctx) / batch;
  double step_latency = decode_.StepLatency(batch, avg_ctx) / speed_factor_;
  int64_t kv_steps = static_cast<int64_t>(
      std::floor((kv_capacity_tokens_ - kv_used_tokens_) / batch));
  kv_steps = std::max<int64_t>(kv_steps, 1);  // headroom guaranteed by preemption
  int64_t steps =
      std::min({min_remaining, kv_steps, config_.max_steps_per_advance});
  double duration = pending_stall_seconds_ + static_cast<double>(steps) * step_latency;
  advance_start_ = sim_->Now();
  advance_steps_ = steps;
  advance_step_latency_ = step_latency;
  advance_avg_ctx_ = avg_ctx;
  advance_stall_ = pending_stall_seconds_;
  pending_stall_seconds_ = 0.0;
  TouchMetrics();
  advance_event_ = sim_->ScheduleContinuationAfter(
      duration, ContinuationComponentId(kContFamilyReplica, config_.id),
      kContAdvance, ContinuationPayload::Of(steps));
}

void RolloutReplica::PreemptForHeadroom() {
  // Keep enough free cache for every running sequence to take a burst of
  // steps; evicting the most recently admitted sequence frees its context
  // (it will re-prefill once space reappears). Serving requests are skipped
  // while any rollout sequence remains — the tier's KV priority.
  while (running_live_ > 0 &&
         kv_capacity_tokens_ - kv_used_tokens_ <
             static_cast<double>(running_live_ * config_.kv_preempt_headroom_steps)) {
    size_t victim_idx = running_.size() - 1;  // the tail is always live
    if (num_serving_ > 0) {
      size_t i = running_.size();
      while (i > 0 &&
             (!running_[i - 1].live || IsServingId(running_[i - 1].cursor.id))) {
        --i;
      }
      if (i > 0) {
        victim_idx = i - 1;
      }
    }
    TrajectoryCursor victim = TakeRunning(victim_idx);
    kv_used_tokens_ -= static_cast<double>(victim.context_tokens);
    victim.kv_resident = false;
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/preempt", config_.id,
                          victim.id);
    waiting_.push_front(victim);
    ++metrics_.preemptions;
  }
  MaybeCompactRunning();
}

void RolloutReplica::TryAdmit() {
  double admit_limit = kv_capacity_tokens_ * (1.0 - config_.admit_headroom_frac);
  while (!waiting_.empty()) {
    int active = static_cast<int>(running_live_ + env_live_);
    if (active >= config_.max_concurrency) {
      break;
    }
    double needed = static_cast<double>(waiting_.front().context_tokens);
    double growth_reserve = static_cast<double>(
        (static_cast<int64_t>(running_live_) + 1) * config_.kv_growth_reserve_steps);
    if (kv_used_tokens_ + needed + growth_reserve > admit_limit) {
      break;
    }
    TrajectoryCursor w = waiting_.front();
    waiting_.pop_front();
    if (!w.kv_resident) {
      pending_stall_seconds_ +=
          decode_.PrefillLatency(static_cast<double>(w.context_tokens)) / speed_factor_;
      metrics_.prefill_tokens += w.context_tokens;
      w.kv_resident = true;
    }
    kv_used_tokens_ += static_cast<double>(w.context_tokens);
    TrajectoryRecord& record = StoreFor(w.id).record(w.id);
    if (record.weight_versions.empty()) {
      record.weight_versions.push_back(weight_version_);
    }
    if (on_progress_) {
      on_progress_(w, config_.id);
    }
    PushRunning(w, record.spec);
  }
}

void RolloutReplica::Advance(int64_t steps) {
  advance_event_ = kInvalidEventId;
  LAMINAR_CHECK_GT(running_live_, 0u);
  int64_t batch = static_cast<int64_t>(running_live_);
  decode_epoch_ += steps;
  decode_ctx_total_ += batch * steps;
  kv_used_tokens_ += static_cast<double>(batch * steps);
  metrics_.decode_tokens += batch * steps;
  CreditDecodeProbe(steps, batch);

  // Pop the sequences that hit their segment boundary. `steps` never passes
  // the earliest boundary, so every live entry popped here sits exactly on
  // this epoch and ties pop in stamp order — the batch's running order.
  boundary_scratch_.clear();
  while (!boundary_heap_.empty() && boundary_heap_.front().epoch <= decode_epoch_) {
    std::pop_heap(boundary_heap_.begin(), boundary_heap_.end(), BoundaryLater);
    BoundaryKey key = boundary_heap_.back();
    boundary_heap_.pop_back();
    if (!Live(key)) {
      continue;  // the sequence left the batch before its boundary
    }
    LAMINAR_CHECK_EQ(key.epoch, decode_epoch_);
    boundary_scratch_.push_back(TakeRunning(key.index));
  }
  MaybeCompactRunning();
  for (const TrajectoryCursor& w : boundary_scratch_) {
    FinishSegment(w);
  }
  boundary_scratch_.clear();
  TryAdmit();
  ScheduleAdvance();
  CheckBatchDone();
}

void RolloutReplica::PushRunning(const TrajectoryCursor& cursor, const TrajectorySpec& spec) {
  int64_t remaining = cursor.remaining_in_segment(spec);
  LAMINAR_CHECK_GE(remaining, 1);
  decode_ctx_total_ += cursor.context_tokens;
  RunningSeq seq;
  seq.cursor = cursor;
  seq.base = decode_epoch_;
  seq.boundary = decode_epoch_ + remaining;
  seq.stamp = next_stamp_++;
  seq.live = true;
  boundary_heap_.push_back(BoundaryKey{seq.boundary, seq.stamp, running_.size()});
  std::push_heap(boundary_heap_.begin(), boundary_heap_.end(), BoundaryLater);
  running_.push_back(seq);
  ++running_live_;
}

TrajectoryCursor RolloutReplica::TakeRunning(size_t index) {
  RunningSeq& seq = running_[index];
  LAMINAR_CHECK(seq.live);
  Rebase(seq);
  decode_ctx_total_ -= seq.cursor.context_tokens;
  seq.live = false;
  --running_live_;
  TrajectoryCursor cursor = seq.cursor;
  while (!running_.empty() && !running_.back().live) {
    running_.pop_back();
  }
  return cursor;
}

void RolloutReplica::Rebase(RunningSeq& seq) const {
  int64_t steps = decode_epoch_ - seq.base;
  seq.cursor.context_tokens += steps;
  seq.cursor.decoded_in_segment += steps;
  seq.base = decode_epoch_;
}

int64_t RolloutReplica::NextBoundaryEpoch() {
  while (!Live(boundary_heap_.front())) {
    std::pop_heap(boundary_heap_.begin(), boundary_heap_.end(), BoundaryLater);
    boundary_heap_.pop_back();
  }
  return boundary_heap_.front().epoch;
}

void RolloutReplica::MaybeCompactRunning() {
  size_t dead = running_.size() - running_live_;
  if (dead > 32 && dead > running_live_) {
    std::erase_if(running_, [](const RunningSeq& seq) { return !seq.live; });
    RebuildBoundaryHeap();
  } else if (boundary_heap_.size() > 2 * running_live_ + 64) {
    RebuildBoundaryHeap();
  }
}

void RolloutReplica::RebuildBoundaryHeap() {
  boundary_heap_.clear();
  for (size_t i = 0; i < running_.size(); ++i) {
    const RunningSeq& seq = running_[i];
    if (seq.live) {
      boundary_heap_.push_back(BoundaryKey{seq.boundary, seq.stamp, i});
    }
  }
  std::make_heap(boundary_heap_.begin(), boundary_heap_.end(), BoundaryLater);
}

void RolloutReplica::FinishSegment(TrajectoryCursor cursor) {
  const TrajectorySpec& spec = SpecOf(cursor.id);
  double env_latency = cursor.current_segment(spec).env_latency;
  if (env_latency > 0.0) {
    // Trajectory leaves the decode batch for its sandbox call; the KV pages
    // stay resident so no recompute is needed on rejoin. The rejoin event
    // names the entry by seq, so the descriptor serializes and re-mints
    // byte-exactly.
    if (on_progress_) {
      on_progress_(cursor, config_.id);
    }
    uint64_t seq = ++env_seq_;
    EnvEntry& entry = InsertEnv(seq, cursor, sim_->Now() + env_latency);
    entry.event = sim_->ScheduleContinuationAt(
        entry.at, ContinuationComponentId(kContFamilyReplica, config_.id), kContEnvRejoin,
        ContinuationPayload::Of(static_cast<int64_t>(seq)));
    return;
  }
  cursor.segment_index += 1;
  cursor.decoded_in_segment = 0;
  if (cursor.finished(spec)) {
    CompleteTrajectory(cursor);
  } else {
    PushRunning(cursor, spec);
  }
}

void RolloutReplica::RejoinFromEnv(uint64_t seq) {
  SyncProgress();
  TrajectoryCursor cursor = RemoveEnv(seq);
  const TrajectorySpec& spec = SpecOf(cursor.id);
  // Sandbox output becomes new context: it occupies KV and must be prefilled.
  int64_t feedback = cursor.current_segment(spec).feedback_tokens;
  if (cursor.kv_resident) {
    kv_used_tokens_ += static_cast<double>(feedback);
  }
  pending_stall_seconds_ +=
      decode_.PrefillLatency(static_cast<double>(feedback)) / speed_factor_;
  metrics_.prefill_tokens += feedback;
  cursor.ResolveEnvCall(spec);
  if (cursor.finished(spec)) {
    CompleteTrajectory(cursor);
  } else if (cursor.kv_resident) {
    PushRunning(cursor, spec);
  } else {
    waiting_.push_front(cursor);
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
  CheckBatchDone();
}

void RolloutReplica::CompleteTrajectory(const TrajectoryCursor& cursor) {
  if (cursor.kv_resident) {
    kv_used_tokens_ -= static_cast<double>(cursor.context_tokens);
  }
  if (IsServingId(cursor.id)) {
    --num_serving_;
  }
  ++metrics_.completed_trajectories;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/traj_complete",
                        config_.id, cursor.id,
                        static_cast<double>(SpecOf(cursor.id).total_context_tokens()));
  if (on_complete_) {
    on_complete_(cursor.id);
  }
}

void RolloutReplica::CheckBatchDone() {
  if (phase_ == ReplicaPhase::kGenerating && !busy()) {
    phase_ = ReplicaPhase::kIdle;
    TouchMetrics();
    if (on_batch_done_) {
      on_batch_done_(this);
    }
  }
}

void RolloutReplica::SnapshotState(SnapshotTx& tx) {
  tx.Begin("replica");
  tx.DigestI64("id", config_.id);
  tx.U64As("phase", &phase_);
  tx.U64As("pre_update_phase", &pre_update_phase_);
  tx.I64As("weight_version", &weight_version_);
  tx.I64As("weight_update_epoch", &weight_update_epoch_);
  tx.F64("speed_factor", &speed_factor_);
  tx.F64("kv_used_tokens", &kv_used_tokens_);
  tx.F64("pending_stall_seconds", &pending_stall_seconds_);
  tx.U64As("env_seq", &env_seq_);
  // The three work queues in behavior-defining order: running and waiting in
  // container order, env-waiting in admission (seq) order. Pending rejoin
  // events re-resolve their entries by seq through RestoreContinuation.
  SnapshotPacked(
      tx, "queues",
      [this](ByteSink& s) {
        // Written materialized, so the record is independent of the epoch.
        s.U64(running_live_);
        for (RunningSeq& seq : running_) {
          if (seq.live) {
            Rebase(seq);
            PackCursor(s, seq.cursor);
          }
        }
        s.U64(waiting_.size());
        for (const TrajectoryCursor& w : waiting_) {
          PackCursor(s, w);
        }
        s.U64(env_live_);
        for (size_t i = 0; i < env_.size(); ++i) {
          if (env_[i].live) {
            PackCursor(s, env_[i].cursor);
            s.Time(env_[i].at);
            s.U64(env_base_ + i);
          }
        }
      },
      [this](ByteSource& s) {
        // The batch is rebased at epoch 0: stamps follow the record order,
        // and the boundary heap and context total are rebuilt from it.
        running_.clear();
        running_live_ = 0;
        decode_epoch_ = 0;
        next_stamp_ = 0;
        decode_ctx_total_ = 0;
        boundary_heap_.clear();
        uint64_t num_running = s.U64();
        running_.reserve(static_cast<size_t>(num_running));
        for (uint64_t i = 0; i < num_running; ++i) {
          TrajectoryCursor cursor = UnpackCursor(s);
          PushRunning(cursor, SpecOf(cursor.id));
        }
        waiting_.clear();
        for (uint64_t i = 0, n = s.U64(); i < n; ++i) {
          waiting_.push_back(UnpackCursor(s));
        }
        env_.clear();
        env_head_ = 0;
        env_live_ = 0;
        for (uint64_t i = 0, n = s.U64(); i < n; ++i) {
          TrajectoryCursor cursor = UnpackCursor(s);
          SimTime at = s.Time();
          uint64_t seq = s.U64();
          LAMINAR_CHECK_LE(seq, env_seq_) << "env seq beyond the minted range";
          InsertEnv(seq, cursor, at);
        }
      });
  // In-flight advance metadata for partial-progress crediting; the event
  // itself is re-minted from the event_heap section.
  SnapshotPacked(
      tx, "advance",
      [this](ByteSink& s) {
        s.Time(advance_start_);
        s.I64(advance_steps_);
        s.F64(advance_step_latency_);
        s.F64(advance_stall_);
        s.F64(advance_avg_ctx_);
        s.Time(weight_update_begin_);
        s.Time(trace_busy_since_);
        s.Bool(trace_was_busy_);
      },
      [this](ByteSource& s) {
        advance_start_ = s.Time();
        advance_steps_ = s.I64();
        advance_step_latency_ = s.F64();
        advance_stall_ = s.F64();
        advance_avg_ctx_ = s.F64();
        weight_update_begin_ = s.Time();
        trace_busy_since_ = s.Time();
        trace_was_busy_ = s.Bool();
        advance_event_ = kInvalidEventId;  // re-seated by RestoreContinuation
      });
  tx.F64("decode_busy_seconds", &decode_busy_seconds_);
  tx.F64("decode_request_seconds", &decode_request_seconds_);
  tx.F64("decode_ctx_request_seconds", &decode_ctx_request_seconds_);
  tx.Begin("kv_integrator");
  metrics_.kv_used_tokens.Snapshot(tx);
  tx.End();
  tx.Begin("batch_integrator");
  metrics_.batch_size.Snapshot(tx);
  tx.End();
  tx.Begin("busy_integrator");
  metrics_.busy.Snapshot(tx);
  tx.End();
  tx.I64As("decode_tokens", &metrics_.decode_tokens);
  tx.I64As("prefill_tokens", &metrics_.prefill_tokens);
  tx.I64As("completed_trajectories", &metrics_.completed_trajectories);
  tx.I64As("preemptions", &metrics_.preemptions);
  tx.I64As("migrations_in", &metrics_.migrations_in);
  tx.I64As("migrations_out", &metrics_.migrations_out);
  tx.F64("weight_update_wait", &metrics_.weight_update_wait_seconds);
  tx.I64As("weight_updates", &metrics_.weight_updates);
  tx.I64As("serving_active", &num_serving_);
  tx.I64As("serving_assigned_total", &serving_assigned_total_);
  tx.End();
}

}  // namespace laminar
