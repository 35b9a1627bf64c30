// Rollout manager (paper §3.1, §5): the CPU-side coordinator of all rollout
// replicas. It assigns prompt batches, monitors replica health and idleness,
// runs the repack algorithm on a periodic tick (and immediately after each
// actor update), drives per-replica weight updates through the relay tier,
// and recovers from machine failures using the partial-response pool.
#ifndef LAMINAR_SRC_ROLLOUT_MANAGER_H_
#define LAMINAR_SRC_ROLLOUT_MANAGER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/data/partial_response_pool.h"
#include "src/data/prompt_pool.h"
#include "src/relay/relay_tier.h"
#include "src/repack/best_fit.h"
#include "src/repack/monitor.h"
#include "src/rollout/replica.h"
#include "src/sim/simulator.h"
#include "src/workload/serving_traffic.h"

namespace laminar {

class SnapshotTx;

struct RolloutManagerConfig {
  bool repack_enabled = true;
  // Use the static request-count threshold detector instead of the KVCache
  // ramp-down signal (ablation; paper argues against this).
  bool use_static_threshold = false;
  int static_threshold_requests = 8;
  double repack_period_seconds = 5.0;  // paper: periodic check, e.g. 5 s
  RepackParams repack;
  // Trajectories per prompt-batch assignment (the replica's generation cycle).
  int per_replica_batch = 1024;
  // Stop assigning fresh prompts when this many trajectories are already
  // generated-but-unconsumed or in flight (keeps staleness bounded when
  // generation outpaces training).
  int64_t backlog_cap = 0;  // 0 = no cap
  // Failure handling.
  double machine_replacement_seconds = 210.0;  // allocate a standby machine
  double replica_init_seconds = 35.0;          // engine bring-up on the new machine
  // When recovered work finds no eligible host, retry placement with
  // exponential backoff (base * 2^attempt, capped) instead of waiting a full
  // repack tick.
  double redirect_backoff_base_seconds = 0.5;
  double redirect_backoff_cap_seconds = 16.0;
  // A quarantined (fail-slow) replica keeps generating small probe batches of
  // this many prompt groups, so its decode rate stays observable and recovery
  // can be detected without trusting the sick replica with real load.
  int probe_groups = 1;
  // Online serving tier (DESIGN.md §14). With serving_dedicated_replicas == 0
  // serving is admitted onto any healthy replica (colocated, the Laminar
  // policy); N > 0 statically partitions the fleet — replicas [0, N) serve
  // exclusively and never take prompts or weight updates.
  bool serving_enabled = false;
  int serving_dedicated_replicas = 0;
  // Backlogged serving requests retry placement (and expire past their
  // deadline) on this cadence.
  double serving_retry_period_seconds = 0.5;
};

// The manager's decision counters (stats()). Plain fields, written by name
// into the manager's snapshot section like the relay tier's counters.
struct RolloutManagerStats {
  int64_t repack_events = 0;       // plans with at least one move
  int64_t sources_released = 0;    // replicas freed by repack
  int64_t trajectories_migrated = 0;
  int64_t batches_assigned = 0;
  int64_t failures_handled = 0;
  int64_t trajectories_redirected = 0;
  int64_t slow_events = 0;             // replicas quarantined as fail-slow
  int64_t slow_recoveries = 0;         // quarantines lifted
  int64_t trajectories_drained_slow = 0;
  int64_t redirect_retries = 0;        // backoff retry firings
  int64_t trajectories_dropped = 0;    // never-checkpointed work lost to a crash
  int64_t machine_stalls = 0;
  SampleSet repack_overhead_seconds;  // per-plan migration stall estimate
};

// Serving-tier counters and queue depths (serving_stats()). Every request is
// in exactly one of: rejected, queued_now, resident_now, completed,
// timed_out, failed — the conservation invariant the checker audits. The
// queue depths are read off the backlog and the replicas on each call.
struct ServingStats {
  int64_t requests = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t timed_out = 0;
  int64_t failed = 0;
  int64_t deadline_hits = 0;
  int64_t deadline_misses = 0;
  int64_t rollout_preempted = 0;  // rollout works evicted for serving KV
  int64_t queued_now = 0;         // backlog awaiting placement
  int64_t resident_now = 0;       // placed on replicas, not yet finished
};

class RolloutManager : public ContinuationClient {
 public:
  // Continuation kinds for the manager's pending events (DESIGN.md §13).
  enum Continuation : uint16_t {
    // Relay pull finished: {a=replica id, b=epoch, c=version, d=wait bits}.
    // Fired synchronously through the registry by the relay tier; never
    // parked on the event heap.
    kContPullComplete = 0,
    kContRedirectRetry = 1,    // backoff retry for parked redirects
    kContMachineReplaced = 2,  // {a=seq into replacement_jobs_}
    kContStallThaw = 3,        // {a=seq into thaw_jobs_}
    kContTick = 4,             // periodic monitoring tick
    kContServingTick = 5,      // periodic serving sweep
  };

  RolloutManager(Simulator* sim, RolloutManagerConfig config,
                 std::vector<RolloutReplica*> replicas, RelayTier* relays,
                 PromptPool* prompts, PartialResponsePool* partial_pool,
                 PartialResponsePool* serving_pool = nullptr);
  ~RolloutManager() override;

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override;
  void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                           SimTime at) override;

  // Starts generation: assigns the first prompt batch everywhere and begins
  // the periodic monitoring tick. The driver must have wired each replica's
  // on_batch_done to OnBatchDone() beforehand.
  void Start();
  void Stop();

  // Replica lifecycle callbacks -------------------------------------------------
  void OnBatchDone(RolloutReplica* replica);
  // Notification from the trainer that a new weight version exists; triggers
  // an immediate repack pass (paper §5.1) and unblocks backlog-gated replicas.
  void OnActorPublish(int version);

  // Fault handling ---------------------------------------------------------------
  // A rollout machine died (detected via heartbeat). Kills its replicas and
  // relay, redirects interrupted trajectories, and schedules a replacement.
  void OnMachineFailure(int machine);

  // Gray failure: a replica's decode rate collapsed without its heartbeat
  // missing (detected via the slowness score). Quarantines the replica,
  // drains its in-flight work onto healthy peers, and keeps it on probe
  // batches until the detector reports recovery.
  void OnReplicaSlow(int replica_id);
  void OnReplicaSlowRecovered(int replica_id);
  bool IsQuarantined(int replica_id) const {
    return replica_id >= 0 && static_cast<size_t>(replica_id) < quarantined_.size() &&
           quarantined_[static_cast<size_t>(replica_id)] != 0;
  }

  // Transient machine stall: replicas freeze (no decode progress, no
  // heartbeats) and thaw unharmed after `duration_seconds` unless the stall
  // outlives the heartbeat miss threshold and is escalated to a failure.
  void OnMachineStall(int machine, double duration_seconds);

  // Online serving (DESIGN.md §14) ---------------------------------------------
  // A serving request arrived: place it on the least-loaded eligible replica
  // with SLO-feasibility admission control, preempting rollout decode when
  // the KVCache is short. Infeasible requests are rejected immediately; when
  // no host is eligible the request queues and retries on the serving sweep.
  void OnServingArrival(const ServingRequest& request);
  // A serving request finished decoding (routed here by the driver's
  // completion intercept — serving ids never touch the training data path).
  void OnServingComplete(TrajId id);
  ServingStats serving_stats() const;
  // Arrival -> completion, completions only.
  const SampleSet& serving_latency_seconds() const { return serving_latency_seconds_; }

  // A relay process restarted (crash + revival while its machine stayed up).
  // Any replica on that machine stuck mid-weight-update lost its pull waiter
  // when the relay died; abort the orphaned update and re-issue the pull
  // against the revived relay.
  void OnRelayRestarted(int machine);

  // Per-tick decode-efficiency observations (replica_id, efficiency) for the
  // gray-failure detector. Efficiency is observed-vs-modeled step throughput,
  // ~1.0 for a healthy replica regardless of batch shape.
  void set_rate_observer(std::function<void(int, double)> fn) {
    rate_observer_ = std::move(fn);
  }

  // Backlog source: total completed-but-unconsumed trajectories (experience
  // buffer size); used with backlog_cap.
  void set_backlog_fn(std::function<int64_t()> fn) { backlog_fn_ = std::move(fn); }

  // Runs one repack pass now (also used by tests and benches).
  void TriggerRepack();

  const RolloutManagerStats& stats() const { return stats_; }

  // Snapshot witness (src/snapshot, DESIGN.md §13): parked redirects,
  // quarantine/starvation state, probe windows, serving tickets and backlog,
  // in-flight replacement/thaw jobs, the idleness-monitor history and every
  // counter by name — all fully adoptable for direct boot. Replica state is
  // witnessed by the driver, which owns the replicas.
  void Snapshot(SnapshotTx& tx);
  // The store's live records; each has one holder, on a replica or here.
  int64_t inflight_trajectories() const;
  // Ids of every cursor parked here, for the single-holder audit.
  void AppendHeldIds(std::vector<TrajId>* ids) const;
  const RolloutManagerConfig& config() const { return config_; }

 private:
  // Version -> parked work, kept sorted ascending by version. Replaces a
  // std::map: iteration order (ascending) and per-version work order are
  // identical, but entries live in one flat allocation.
  using VersionWorks = std::vector<std::pair<int, std::vector<TrajectoryCursor>>>;

  // Per-request serving bookkeeping, indexed by (id - kServingIdBase).
  enum class ServingTicketState : uint8_t {
    kQueued,
    kRunning,
    kCompleted,
    kTimedOut,
    kFailed,
    kRejected,
  };
  struct ServingTicket {
    SimTime arrival;
    double deadline_seconds = 0.0;
    int replica = -1;  // last placement (-1 while never placed)
    ServingTicketState state = ServingTicketState::kQueued;
  };

  // A machine-replacement job in flight: the pending event carries only a
  // sequence number; the job body (which machine, which replicas to revive)
  // lives here so it serializes with the snapshot.
  struct ReplacementJob {
    int machine = 0;
    std::vector<int> casualties;  // replica ids to revive
  };

  void AssignFreshBatch(RolloutReplica* replica);
  void StartWeightUpdate(RolloutReplica* replica);
  // Continuation bodies.
  void OnPullComplete(int replica_id, int64_t epoch, int version,
                      double wait_seconds);
  void OnRedirectRetryFire();
  void OnMachineReplaced(int64_t seq);
  void OnStallThaw(int64_t seq);
  // True for replicas statically dedicated to serving (never rollout hosts).
  bool ServesOnly(const RolloutReplica* replica) const {
    return config_.serving_enabled && config_.serving_dedicated_replicas > 0 &&
           replica->config().id < config_.serving_dedicated_replicas;
  }
  ServingTicket& TicketFor(TrajId id);
  // The pinned serving-expiry boundary: late iff deadline < now. Equality is
  // not expiry (used by retries, timeouts, and deadline-hit bookkeeping).
  bool ServingDeadlinePassed(double deadline_seconds) const;
  // Returns false when the request stayed queued (no eligible host); terminal
  // outcomes return true. `admission` distinguishes the arrival path (SLO
  // feasibility may load-shed) from backlog retries (expire via the pinned
  // boundary, otherwise place or re-queue — never reject).
  bool TryPlaceServing(const TrajectoryCursor& work, bool admission);
  // Periodic backlog pass: retry placement for every queued request (expiry
  // is classified inside the retry, against the pinned boundary).
  void ServingSweep();
  bool BacklogAllowsAssignment() const;
  void RedirectWork(std::vector<TrajectoryCursor> works, int weight_version);
  void FlushPendingRedirects();
  void ScheduleRedirectRetry();
  void RedirectByVersion(std::vector<TrajectoryCursor> works, int fallback_version);
  // The latest policy version `id` ran under, or `fallback` if none yet.
  int LatestVersion(TrajId id, int fallback) const;
  RolloutReplica* FindReplica(int replica_id) const;
  // Sets/clears the quarantine bit; returns whether the bit changed.
  bool SetQuarantined(int replica_id);
  bool ClearQuarantined(int replica_id);
  std::vector<ReplicaSnapshot> CollectSnapshots();
  void ObserveRates();
  void Tick();

  Simulator* sim_;
  RolloutManagerConfig config_;
  std::vector<RolloutReplica*> replicas_;
  RelayTier* relays_;
  PromptPool* prompts_;
  PartialResponsePool* partial_pool_;
  PartialResponsePool* serving_pool_;
  std::function<int64_t()> backlog_fn_;

  IdlenessMonitor monitor_;
  std::unique_ptr<PeriodicTask> tick_;
  // Recovered work waiting for a healthy replica with a matching version.
  VersionWorks pending_redirects_;
  // Replicas that finished a batch but were backlog-gated.
  std::vector<RolloutReplica*> starved_;
  // Fail-slow replicas currently restricted to probe batches (bitmap indexed
  // by replica id).
  std::vector<uint8_t> quarantined_;
  // Dense replica-id -> replica lookup (ids are small and dense).
  std::vector<RolloutReplica*> replica_by_id_;
  std::function<void(int, double)> rate_observer_;
  // Windowed decode-efficiency probe state, one slot per replica.
  struct RateProbe {
    bool valid = false;
    SimTime at;
    RolloutReplica::DecodeProbeSample sample;
  };
  std::vector<RateProbe> probes_;
  EventId redirect_retry_event_ = kInvalidEventId;
  int redirect_retry_attempts_ = 0;
  // In-flight machine replacements and stall thaws, keyed by serialized
  // sequence numbers (the pending events carry only the seq).
  std::map<int64_t, ReplacementJob> replacement_jobs_;
  int64_t next_replacement_seq_ = 0;
  std::map<int64_t, std::vector<int>> thaw_jobs_;
  int64_t next_thaw_seq_ = 0;
  RolloutManagerStats stats_;
  // Serving tier state (empty/zero when the tier is off).
  std::vector<ServingTicket> serving_tickets_;
  std::deque<TrajectoryCursor> serving_backlog_;
  std::unique_ptr<PeriodicTask> serving_tick_;
  ServingStats serving_;  // counters only; serving_stats() fills the depths
  SampleSet serving_latency_seconds_;
  bool running_ = false;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_ROLLOUT_MANAGER_H_
