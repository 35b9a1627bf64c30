// Rollout replica: an event-driven continuous-batching generation engine.
//
// The replica models a vLLM-style server occupying `tensor_parallel` GPUs.
// It maintains a decode batch of running trajectories, a queue of admitted
// but not-yet-cached trajectories, and a set of trajectories blocked on
// environment calls. Decoding advances in analytic jumps: between batch
// membership changes, per-step latency is constant, so the engine skips the
// clock straight to the next boundary (trajectory segment end, KVCache
// exhaustion, or a step cap that bounds interpolation error).
//
// A decode event costs O(finishers · log batch), not O(batch) (DESIGN.md
// §11, "Decode epoch"). The replica counts the decode steps applied to the
// batch in `decode_epoch_`; each running sequence stores its counters as of
// the epoch it last joined or was read (`base`), so a step is one epoch bump.
// The batch's total context is kept incrementally, and the sequences that
// reach a segment boundary pop off a min-heap keyed on (boundary epoch,
// running-order stamp), so they come out in batch order. Counters are
// materialized only where something reads them: completions, env calls,
// progress callbacks, preemption, extraction, snapshots and the KV audit.
//
// The replica holds TrajectoryCursors, never records: it reads each plan
// through the trajectory store (serving requests through their own).
//
// KVCache accounting follows the paper's Figure 9 lifecycle: admissions fill
// the cache to ~C_max, waiting trajectories backfill freed space, and only
// when the waiting queue drains does utilization ramp down — the signal the
// repack monitor keys on.
#ifndef LAMINAR_SRC_ROLLOUT_REPLICA_H_
#define LAMINAR_SRC_ROLLOUT_REPLICA_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/ring_deque.h"
#include "src/common/stats.h"
#include "src/data/partial_response_pool.h"
#include "src/data/trajectory.h"
#include "src/llm/decode_model.h"
#include "src/repack/snapshot.h"
#include "src/sim/simulator.h"

namespace laminar {

class SnapshotTx;

enum class ReplicaPhase {
  kIdle,            // no work assigned
  kGenerating,      // actively decoding / waiting on env
  kPaused,          // stopped for a global sync (baseline systems)
  kUpdatingWeights, // pulling new weights from the relay / sync source
  kDead,            // machine failed
};

const char* ReplicaPhaseName(ReplicaPhase phase);

struct ReplicaConfig {
  int id = 0;
  int machine = 0;  // hosting machine == relay index
  // Maximum trajectories resident at once (paper's per-rollout concurrency).
  int max_concurrency = 1024;
  // Fraction of KVCache kept free when admitting new trajectories.
  double admit_headroom_frac = 0.01;
  // Admission additionally reserves this many decode steps of growth for
  // every running sequence, so admitted batches can run for a while before
  // the cache fills (hysteresis against preemption thrash).
  int64_t kv_growth_reserve_steps = 384;
  // When free cache falls below this many steps of growth, preempt until it
  // does not (recompute-style preemption, as in vLLM).
  int64_t kv_preempt_headroom_steps = 16;
  // Interpolation cap: an advance never covers more decode steps than this,
  // bounding how stale the KV/progress accounting can get between events.
  int64_t max_steps_per_advance = 256;
  // Per-trajectory RDMA KV-transfer coordination cost during repack, seconds.
  double migration_fixed_overhead = 0.02;
  // RDMA bandwidth used to move KV pages during repack migration.
  double kv_transfer_bandwidth = 50.0e9;
};

struct ReplicaMetrics {
  StepIntegrator kv_used_tokens;
  StepIntegrator batch_size;
  StepIntegrator busy;  // 1 when the decode batch is non-empty
  int64_t decode_tokens = 0;
  int64_t prefill_tokens = 0;
  int64_t completed_trajectories = 0;
  int64_t preemptions = 0;
  int64_t migrations_in = 0;
  int64_t migrations_out = 0;
  double weight_update_wait_seconds = 0.0;
  int weight_updates = 0;
};

class RolloutReplica : public ContinuationClient {
 public:
  // Continuation kinds for the replica's pending events (DESIGN.md §13).
  // Component id is (kContFamilyReplica, replica id).
  enum Continuation : uint16_t {
    kContAdvance = 0,    // decode advance completes: {a=steps}
    kContEnvRejoin = 1,  // env call returns: {a=env seq}
  };

  // Fired when one trajectory finishes; the callee takes its record out.
  using CompletionCallback = std::function<void(TrajId id)>;
  // Fired when the replica drains all assigned work.
  using BatchDoneCallback = std::function<void(RolloutReplica* replica)>;
  // Streamed in-progress state, for checkpointing in the store.
  using ProgressCallback = std::function<void(const TrajectoryCursor& c, int replica_id)>;

  RolloutReplica(Simulator* sim, ReplicaConfig config, DecodeModel decode,
                 double kv_capacity_tokens, PartialResponsePool* pool,
                 PartialResponsePool* serving_pool = nullptr);
  ~RolloutReplica() override;

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override;
  void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                           SimTime at) override;

  void set_on_complete(CompletionCallback cb) { on_complete_ = std::move(cb); }
  void set_on_batch_done(BatchDoneCallback cb) { on_batch_done_ = std::move(cb); }
  void set_on_progress(ProgressCallback cb) { on_progress_ = std::move(cb); }

  // Work assignment ---------------------------------------------------------
  // Queues fresh or redirected work. Fresh records are stamped with the
  // replica's current weight version. `kv_transferred` marks repack
  // migrations whose KV pages are copied over RDMA (no recompute); work that
  // lost its cache (failure redirect, preemption elsewhere) re-prefills.
  void AssignWork(std::vector<TrajectoryCursor> works, bool kv_transferred = false);

  // Online serving admission (DESIGN.md §14): queues serving requests (ids in
  // the kServingIdBase range, single decode segment) at the *front* of the
  // waiting queue, ahead of every queued rollout sequence. Serving work never
  // leaves via ExtractAllWork and is never chosen as a headroom-preemption
  // victim while rollout work remains.
  void AssignServingWork(std::vector<TrajectoryCursor> works);

  // Evicts rollout sequences from the decode batch (most recent first,
  // skipping serving work) until at least `needed_tokens` of KVCache is free
  // or no rollout sequence remains. Evicted work loses residency (it will
  // re-prefill wherever it lands) and is returned for the manager to park in
  // the partial-response pool — the same recovery path machine loss uses.
  std::vector<TrajectoryCursor> PreemptRolloutForServing(double needed_tokens);

  // Removes and returns every in-flight trajectory (running, env-waiting and
  // queued), e.g. when this replica is chosen as a repack source. KV
  // residency flags are preserved so the caller can decide transfer vs
  // recompute semantics.
  std::vector<TrajectoryCursor> ExtractAllWork();

  // Weights ------------------------------------------------------------------
  int weight_version() const { return weight_version_; }
  void SetWeightVersion(int version);
  // Loads an arbitrary (possibly older) checkpointed version — used when a
  // replacement replica must finish trajectories started under an old policy
  // (paper §3.3: "loading specific weight versions from actor checkpointing
  // files"). Only valid on an idle replica.
  void LoadCheckpointVersion(int version);
  // Marks the replica as performing a weight update; generation must be
  // drained or paused. Returns an epoch token identifying this update:
  // EndWeightUpdate() restores the previous phase only when handed the
  // current epoch, so a stale pull completion — e.g. a relay waiter that
  // outlived a crash and revival — is ignored instead of corrupting state.
  int64_t BeginWeightUpdate();
  // Returns false (and changes nothing) if `epoch` is stale or the replica
  // left the updating phase meanwhile (crash, abort).
  bool EndWeightUpdate(int64_t epoch, int new_version, double wait_seconds);
  // Cancels an in-progress weight update (the relay died mid-pull) and
  // restores the previous phase; the caller re-issues the pull later.
  void AbortWeightUpdate();

  // Global-sync baselines -----------------------------------------------------
  // Stops decoding (keeps state). Used at global synchronization points.
  void Pause();
  // Resumes decoding. If `new_version` >= 0, in-flight trajectories continue
  // under the new weights (partial rollout): each open trajectory gains a
  // version entry and, if `recompute_kv`, its whole context is re-prefilled
  // (the KVCache recomputation overhead the paper charges to AReaL).
  void Resume(int new_version = -1, bool recompute_kv = false);

  // Faults --------------------------------------------------------------------
  // Machine failure: loses all in-flight work and cache. Returns the work
  // items that were still queued for admission and therefore may never have
  // streamed a checkpoint — the caller must decide their fate explicitly
  // (redirect a checkpoint, or mark them dropped); admitted work is
  // recovered from its checkpoint.
  std::vector<TrajectoryCursor> Kill();
  void Revive();  // replacement machine initialized

  // Gray failure (fail-slow): scales decode and prefill throughput by
  // `factor` in (0, 1]. 1.0 restores full speed. The in-flight advance is
  // re-planned at the new speed; already-elapsed progress is kept.
  void SetSpeedFactor(double factor);
  double speed_factor() const { return speed_factor_; }

  // Introspection ---------------------------------------------------------------
  ReplicaPhase phase() const { return phase_; }
  bool busy() const { return running_live_ > 0 || !waiting_.empty() || env_live_ > 0; }
  int num_reqs() const { return static_cast<int>(running_live_ + waiting_.size() + env_live_); }
  // Resident serving requests (subset of num_reqs; 0 when the tier is off).
  int num_serving() const { return num_serving_; }
  double kv_used_tokens() const { return kv_used_tokens_; }
  double kv_capacity_tokens() const { return kv_capacity_tokens_; }
  double kv_used_frac() const { return kv_used_tokens_ / kv_capacity_tokens_; }
  // Token-accounting cross-check for the invariant checker: the context
  // tokens of every cache-resident trajectory (the whole decode batch plus
  // env-waiting work that kept its pages). Queued work never counts, even
  // when flagged kv_resident for an in-flight migration — its pages are
  // charged at admission. Always sums materialized per-sequence context,
  // never the incremental total below, so the audit cannot become circular.
  double ResidentKvTokens() const;
  // The decode batch's total context as kept incrementally by the decode
  // epoch, and the same quantity summed over the materialized batch
  // (O(batch)). The invariant checker's "decode context" check compares them.
  int64_t decode_context_tokens() const { return decode_ctx_total_; }
  int64_t MaterializedDecodeContext() const;
  // Ids of every held trajectory, for the single-holder audit.
  void AppendHeldIds(std::vector<TrajId>* ids) const;
  // Shifts the first running sequence's epoch base by `delta` steps, so its
  // materialized counters drift from the incremental total. Tests only.
  void SkewDecodeBaseForTest(int64_t delta);
  ReplicaSnapshot Snapshot() const;
  const ReplicaConfig& config() const { return config_; }
  const DecodeModel& decode_model() const { return decode_; }
  const ReplicaMetrics& metrics() const { return metrics_; }

  // Decode-only activity sample for the gray-failure probe. All fields are
  // monotone accumulators over time actually spent in decode steps — prefill
  // stalls, env waits and pauses contribute nothing, so windowed deltas stay
  // clean of batch-boundary bursts:
  //   busy_seconds        Σ steps × actual step latency
  //   request_seconds     Σ steps × actual step latency × batch
  //   ctx_request_seconds request_seconds weighted by the advance's avg ctx
  //   tokens              decode tokens, with the in-flight advance's
  //                       elapsed steps (the committed metric jumps)
  // Observed per-request throughput (tokens / request_seconds) times the
  // modeled step latency at (request_seconds / busy_seconds,
  // ctx_request_seconds / request_seconds) is ~1.0 for a healthy replica and
  // ~speed_factor for a fail-slow one, regardless of batch shape.
  struct DecodeProbeSample {
    double busy_seconds = 0.0;
    double request_seconds = 0.0;
    double ctx_request_seconds = 0.0;
    int64_t tokens = 0;
  };
  DecodeProbeSample ObservedDecodeProbe() const;

  // Snapshot witness (src/snapshot, DESIGN.md §13): phase, weights, KV
  // accounting, the three work queues (fully serialized in behavior-defining
  // order) and the committed metrics — all adoptable, so a direct boot
  // re-seats the decode batch exactly. Pending advance/rejoin events are
  // re-minted from the simulator's event_heap section, not from here. Named
  // SnapshotState because Snapshot() is taken by the repack-facing
  // ReplicaSnapshot.
  void SnapshotState(SnapshotTx& tx);

 private:
  void ScheduleAdvance();
  void CreditDecodeProbe(int64_t steps, int64_t batch);
  void CancelAdvance();
  // Credits decode steps already performed by the in-flight advance (if any)
  // and cancels it. Must precede any mutation of the batch state.
  void SyncProgress();
  void Advance(int64_t steps);
  void TryAdmit();
  void PreemptForHeadroom();
  void FinishSegment(TrajectoryCursor cursor);
  void RejoinFromEnv(uint64_t seq);
  void CompleteTrajectory(const TrajectoryCursor& cursor);
  PartialResponsePool& StoreFor(TrajId id) const {
    return IsServingId(id) ? *serving_pool_ : *pool_;
  }
  const TrajectorySpec& SpecOf(TrajId id) const { return StoreFor(id).record(id).spec; }
  void CheckBatchDone();
  void TouchMetrics();

  Simulator* sim_;
  ReplicaConfig config_;
  DecodeModel decode_;
  double kv_capacity_tokens_;
  PartialResponsePool* pool_;
  PartialResponsePool* serving_pool_;

  ReplicaPhase phase_ = ReplicaPhase::kIdle;
  ReplicaPhase pre_update_phase_ = ReplicaPhase::kIdle;
  // Bumped by BeginWeightUpdate/AbortWeightUpdate; EndWeightUpdate only takes
  // effect when handed the current value (stale relay waiters are dropped).
  int64_t weight_update_epoch_ = 0;
  int weight_version_ = 0;
  // Gray-failure throughput multiplier: effective step/prefill latency is
  // the model latency divided by this.
  double speed_factor_ = 1.0;

  // One trajectory blocked on a sandbox/env call. The pending rejoin event
  // names its entry by seq, the admission-order key that survives snapshot
  // adoption. env_ holds the entries by seq (env_[i] is seq env_base_ + i);
  // an entry whose call returned stays as a tombstone, env_head_ skips the
  // returned prefix, and the prefix is erased once it is half the vector.
  // Walking env_ visits the live entries in seq order, the order the drain
  // paths (ExtractAllWork, Kill) use.
  struct EnvEntry {
    TrajectoryCursor cursor;
    EventId event = kInvalidEventId;
    SimTime at;
    bool live = false;
  };
  // The live entry for `seq` (CHECKs on a miss).
  EnvEntry& EnvAt(uint64_t seq);
  // Appends the entry for `seq`, which must be past every seq held.
  EnvEntry& InsertEnv(uint64_t seq, const TrajectoryCursor& cursor, SimTime at);
  TrajectoryCursor RemoveEnv(uint64_t seq);

  // One sequence of the decode batch. `cursor`'s counters are current as of
  // decode epoch `base`: the true context_tokens and decoded_in_segment add
  // decode_epoch_ - base; it finishes its segment at epoch `boundary`.
  // `stamp` is assigned on every push into the batch, so running_ is sorted
  // by it. Removed sequences stay as tombstones (live == false) until
  // compaction, except at the tail, which is trimmed.
  struct RunningSeq {
    TrajectoryCursor cursor;
    int64_t base = 0;
    int64_t boundary = 0;
    uint64_t stamp = 0;
    bool live = false;
  };
  // Boundary heap entry: the epoch at which the sequence stamped `stamp`
  // finishes its segment, and its slot in running_ (stable until the next
  // compaction, which rebuilds the heap). Entries of removed sequences are
  // skipped lazily.
  struct BoundaryKey {
    int64_t epoch = 0;
    uint64_t stamp = 0;
    size_t index = 0;
  };
  static bool BoundaryLater(const BoundaryKey& a, const BoundaryKey& b) {
    return a.epoch > b.epoch || (a.epoch == b.epoch && a.stamp > b.stamp);
  }

  // Decode-epoch batch primitives (DESIGN.md §11). PushRunning appends at
  // the batch tail with a fresh stamp; TakeRunning materializes and removes
  // one sequence, leaving a tombstone unless it was the tail.
  void PushRunning(const TrajectoryCursor& cursor, const TrajectorySpec& spec);
  TrajectoryCursor TakeRunning(size_t index);
  // Brings `seq`'s counters current to decode_epoch_.
  void Rebase(RunningSeq& seq) const;
  // Epoch of the earliest segment boundary in the batch (prunes stale heap
  // entries first). Requires a non-empty batch.
  int64_t NextBoundaryEpoch();
  // False for heap entries whose sequence has left the batch.
  bool Live(const BoundaryKey& key) const {
    return key.index < running_.size() && running_[key.index].stamp == key.stamp &&
           running_[key.index].live;
  }
  // Drops tombstones once they outnumber live sequences, and rebuilds the
  // boundary heap once stale entries dominate it.
  void MaybeCompactRunning();
  void RebuildBoundaryHeap();

  std::vector<RunningSeq> running_;
  size_t running_live_ = 0;
  int64_t decode_epoch_ = 0;
  uint64_t next_stamp_ = 0;
  // Σ materialized context_tokens over the live batch.
  int64_t decode_ctx_total_ = 0;
  std::vector<BoundaryKey> boundary_heap_;
  RingDeque<TrajectoryCursor> waiting_;
  std::vector<EnvEntry> env_;
  uint64_t env_base_ = 0;  // seq of env_[0]
  size_t env_head_ = 0;    // first live entry, if any
  size_t env_live_ = 0;
  uint64_t env_seq_ = 0;   // last seq minted
  // Serving requests currently resident (running_ + waiting_) and the
  // lifetime assignment count (gates the snapshot fields so serving-off blobs
  // keep their historical layout).
  int num_serving_ = 0;
  int64_t serving_assigned_total_ = 0;
  // Reused by Advance() for the segment-boundary partition (no steady-state
  // allocation in the hot loop).
  std::vector<TrajectoryCursor> boundary_scratch_;

  double kv_used_tokens_ = 0.0;
  // Prefill/KV-transfer work that must complete before decoding resumes;
  // consumed by the next scheduled advance.
  double pending_stall_seconds_ = 0.0;

  EventId advance_event_ = kInvalidEventId;
  // Metadata of the in-flight advance, for partial-progress crediting.
  SimTime advance_start_;
  int64_t advance_steps_ = 0;
  double advance_step_latency_ = 0.0;
  double advance_stall_ = 0.0;
  double advance_avg_ctx_ = 0.0;

  // Trace state: begin timestamps for retroactively emitted spans.
  SimTime weight_update_begin_;
  SimTime trace_busy_since_;
  bool trace_was_busy_ = false;

  // Committed decode-probe accumulators (see DecodeProbeSample); every decode
  // step is credited exactly once, by SyncProgress() or Advance().
  double decode_busy_seconds_ = 0.0;
  double decode_request_seconds_ = 0.0;
  double decode_ctx_request_seconds_ = 0.0;

  ReplicaMetrics metrics_;

  CompletionCallback on_complete_;
  BatchDoneCallback on_batch_done_;
  ProgressCallback on_progress_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_ROLLOUT_REPLICA_H_
