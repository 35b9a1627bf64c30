#include "src/rollout/replica.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cluster/hardware.h"
#include "src/common/rng.h"
#include "src/data/prompt_pool.h"
#include "src/data/trajectory_digest.h"
#include "src/fault/invariants.h"
#include "src/llm/model_spec.h"
#include "src/sim/simulator.h"
#include "src/snapshot/snapshot.h"
#include "src/workload/generator.h"

namespace laminar {
namespace {

class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest()
      : decode_(Qwen25_7B(), MachineSpec{}, 1),
        pool_(WorkloadGenerator(WorkloadConfig{}, Rng(7)), 16, Rng(9)) {}

  RolloutReplica MakeReplica(int max_concurrency = 1024, int id = 0) {
    ReplicaConfig rc;
    rc.id = id;
    rc.max_concurrency = max_concurrency;
    return RolloutReplica(&sim_, rc, decode_, decode_.KvCapacityTokens(), &store_);
  }

  // Issues `n` fresh prompts into the store.
  std::vector<TrajectoryCursor> MakeWorks(int n) {
    std::vector<TrajectoryCursor> works;
    for (auto& rec : pool_.NextBatch(n, 0)) {
      works.push_back(store_.Issue(std::move(rec)));
    }
    return works;
  }

  // Takes a completed trajectory's record out of the store, stamped as the
  // driver stamps it.
  TrajectoryRecord TakeCompleted(TrajId id) {
    TrajectoryRecord rec;
    EXPECT_TRUE(store_.MarkCompleted(id, &rec));
    rec.finished = sim_.Now();
    return rec;
  }

  Simulator sim_;
  DecodeModel decode_;
  PromptPool pool_;
  PartialResponsePool store_;
};

TEST_F(ReplicaTest, CompletesAllAssignedWork) {
  RolloutReplica replica = MakeReplica();
  int completed = 0;
  int64_t decode_tokens_expected = 0;
  replica.set_on_complete([&](TrajId id) {
    ++completed;
    TrajectoryRecord rec = TakeCompleted(id);
    EXPECT_EQ(rec.weight_versions.size(), 1u);
    EXPECT_TRUE(rec.finished > SimTime::Zero());
  });
  bool batch_done = false;
  replica.set_on_batch_done([&](RolloutReplica*) { batch_done = true; });

  auto works = MakeWorks(64);
  for (const auto& w : works) {
    decode_tokens_expected += store_.record(w.id).spec.total_decode_tokens();
  }
  replica.AssignWork(std::move(works));
  sim_.RunUntilIdle();

  EXPECT_EQ(completed, 64);
  EXPECT_TRUE(batch_done);
  EXPECT_EQ(replica.phase(), ReplicaPhase::kIdle);
  EXPECT_EQ(replica.num_reqs(), 0);
  // Every decode token was produced exactly once.
  EXPECT_EQ(replica.metrics().decode_tokens, decode_tokens_expected);
  // KVCache accounting returns to zero when the replica drains.
  EXPECT_NEAR(replica.kv_used_tokens(), 0.0, 1e-6);
}

TEST_F(ReplicaTest, LargeBatchDrainsAndKvReturnsToZero) {
  RolloutReplica replica = MakeReplica(1024);
  int completed = 0;
  replica.set_on_complete([&](TrajId) { ++completed; });
  replica.AssignWork(MakeWorks(1024));
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, 1024);
  EXPECT_EQ(replica.num_reqs(), 0);
  EXPECT_NEAR(replica.kv_used_tokens(), 0.0, 1e-6);
  EXPECT_EQ(replica.phase(), ReplicaPhase::kIdle);
}

TEST_F(ReplicaTest, KvUtilizationStaysWithinCapacity) {
  RolloutReplica replica = MakeReplica(1024);
  replica.set_on_complete([](TrajId) {});
  replica.AssignWork(MakeWorks(512));
  // Step through and check the invariant after every event.
  while (sim_.Step()) {
    EXPECT_LE(replica.kv_used_tokens(), replica.kv_capacity_tokens() + 1e-6);
    EXPECT_GE(replica.kv_used_tokens(), -1e-6);
  }
}

TEST_F(ReplicaTest, PauseResumePreservesWork) {
  RolloutReplica replica = MakeReplica();
  int completed = 0;
  replica.set_on_complete([&](TrajId) { ++completed; });
  replica.AssignWork(MakeWorks(32));
  sim_.RunUntil(SimTime(5.0));
  replica.Pause();
  EXPECT_EQ(replica.phase(), ReplicaPhase::kPaused);
  int64_t tokens_at_pause = replica.metrics().decode_tokens;
  // Nothing advances while paused.
  sim_.RunUntil(SimTime(50.0));
  EXPECT_EQ(replica.metrics().decode_tokens, tokens_at_pause);
  replica.Resume();
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, 32);
}

TEST_F(ReplicaTest, PartialRolloutResumeStampsNewVersion) {
  RolloutReplica replica = MakeReplica();
  std::vector<TrajectoryRecord> done;
  replica.set_on_complete([&](TrajId id) { done.push_back(TakeCompleted(id)); });
  replica.AssignWork(MakeWorks(32));
  sim_.RunUntil(SimTime(5.0));
  replica.Pause();
  replica.Resume(/*new_version=*/3, /*recompute_kv=*/true);
  EXPECT_EQ(replica.weight_version(), 3);
  sim_.RunUntilIdle();
  ASSERT_EQ(done.size(), 32u);
  int mixed = 0;
  for (const auto& rec : done) {
    if (rec.mixed_version()) {
      ++mixed;
    }
  }
  // Everything still decoding at the resume point became mixed-version.
  EXPECT_GT(mixed, 0);
}

TEST_F(ReplicaTest, ExtractAllWorkEmptiesReplica) {
  RolloutReplica replica = MakeReplica();
  replica.set_on_complete([](TrajId) {});
  replica.AssignWork(MakeWorks(64));
  sim_.RunUntil(SimTime(10.0));
  int before = replica.num_reqs();
  EXPECT_GT(before, 0);
  auto works = replica.ExtractAllWork();
  EXPECT_EQ(static_cast<int>(works.size()), before);
  EXPECT_EQ(replica.num_reqs(), 0);
  EXPECT_NEAR(replica.kv_used_tokens(), 0.0, 1e-6);
  EXPECT_FALSE(replica.busy());
  // Progress must be preserved: some decoded tokens exist.
  int64_t decoded = 0;
  for (const auto& w : works) {
    decoded += w.decoded_in_segment;
  }
  EXPECT_GT(decoded, 0);
}

TEST_F(ReplicaTest, MigratedWorkFinishesOnDestination) {
  RolloutReplica src = MakeReplica();
  RolloutReplica dst = MakeReplica(1024, /*id=*/1);
  int completed = 0;
  src.set_on_complete([&](TrajId) { ++completed; });
  dst.set_on_complete([&](TrajId) { ++completed; });
  src.AssignWork(MakeWorks(32));
  sim_.RunUntil(SimTime(10.0));
  auto works = src.ExtractAllWork();
  int in_flight = static_cast<int>(works.size());
  dst.AssignWork(std::move(works), /*kv_transferred=*/true);
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, 32);
  EXPECT_GT(dst.metrics().migrations_in, 0);
  EXPECT_EQ(in_flight + completed - 32, in_flight);
}

TEST_F(ReplicaTest, KillLosesWorkReviveAcceptsNew) {
  RolloutReplica replica = MakeReplica();
  int completed = 0;
  replica.set_on_complete([&](TrajId) { ++completed; });
  replica.AssignWork(MakeWorks(32));
  sim_.RunUntil(SimTime(5.0));
  replica.Kill();
  EXPECT_EQ(replica.phase(), ReplicaPhase::kDead);
  EXPECT_EQ(replica.num_reqs(), 0);
  sim_.RunUntilIdle();
  int after_kill = completed;
  replica.Revive();
  replica.AssignWork(MakeWorks(16));
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, after_kill + 16);
}

TEST_F(ReplicaTest, DecodeBatchRampsDownAtTail) {
  RolloutReplica replica = MakeReplica();
  replica.set_on_complete([](TrajId) {});
  replica.AssignWork(MakeWorks(256));
  sim_.RunUntilIdle();
  // The KVCache lifecycle (Figure 9) implies average utilization well below
  // the peak: ramp-up, plateau, ramp-down.
  double avg_batch = replica.metrics().batch_size.AverageUntil(sim_.Now());
  EXPECT_GT(avg_batch, 1.0);
  EXPECT_LT(avg_batch, 256.0);
}


TEST_F(ReplicaTest, DecodeContextCheckReportsSkewedBaseByName) {
  RolloutReplica replica = MakeReplica();
  replica.set_on_complete([](TrajId) {});
  InvariantChecker checker(&sim_, InvariantCheckerConfig{});
  checker.AddReplica(&replica);
  replica.AssignWork(MakeWorks(32));
  sim_.RunUntil(SimTime(5.0));
  checker.CheckSweep();
  ASSERT_TRUE(checker.ok());
  EXPECT_EQ(replica.decode_context_tokens(), replica.MaterializedDecodeContext());

  // Off by one step in a single sequence's epoch base.
  replica.SkewDecodeBaseForTest(1);
  EXPECT_EQ(replica.MaterializedDecodeContext(), replica.decode_context_tokens() + 1);
  checker.CheckSweep();
  bool named = false;
  for (const std::string& v : checker.violations()) {
    named = named || v.find("decode context drift on replica 0") != std::string::npos;
  }
  EXPECT_TRUE(named) << "no decode context violation among " << checker.violation_count();
  // The KV audit sums materialized context, so it sees the skew too.
  EXPECT_EQ(replica.ResidentKvTokens(), replica.kv_used_tokens() + 1.0);
}

// ---------------------------------------------------------------------------
// Pinned behaviour drive: one replica through every batch-mutating path, with
// an order-sensitive digest over everything it reports. The pinned value
// fixes the replica's observable behaviour: any change to the decode
// bookkeeping must reproduce it exactly.

class ReplicaDrive {
 public:
  explicit ReplicaDrive(uint64_t seed)
      : rng_(seed), decode_(Qwen25_7B(), MachineSpec{}, 1) {
    sim_ = std::make_unique<Simulator>();
    replica_ = NewReplica(sim_.get());
  }

  // Runs the scripted drive to completion and returns the digest.
  uint64_t Run() {
    replica_->AssignWork(Fresh(96));
    int64_t event = 0;
    int64_t pause_at = -1;
    while (!::testing::Test::HasFatalFailure()) {
      if (!sim_->Step()) {
        // Idle: end the pause, feed more work, or finish.
        if (pause_at >= 0) {
          replica_->Resume(/*new_version=*/2, /*recompute_kv=*/true);
          pause_at = -1;
        } else if (fed_ < kTotalRollout) {
          replica_->AssignWork(Fresh(8));
        } else {
          break;
        }
        continue;
      }
      ++event;
      CheckKv("event");
      if (event % 23 == 0 && fed_ < kTotalRollout) {
        replica_->AssignWork(Fresh(static_cast<int>(rng_.UniformInt(2, 8))));
      }
      switch (event) {
        case 90:
          replica_->SetSpeedFactor(0.5);
          break;
        case 170:
          replica_->SetSpeedFactor(1.0);
          break;
        case 140:
        case 610: {
          replica_->AssignServingWork(Serving(3));
          std::vector<TrajectoryCursor> evicted = replica_->PreemptRolloutForServing(
              replica_->kv_capacity_tokens() - replica_->kv_used_tokens() + 3000.0);
          MixWorks('s', evicted);
          serving_evicted_ += static_cast<int64_t>(evicted.size());
          CheckKv("serving preempt");
          replica_->AssignWork(std::move(evicted));
          break;
        }
        case 260:
          replica_->Pause();
          pause_at = event;
          break;
        case 380:
          RoundTrip();
          break;
        case 470: {
          std::vector<TrajectoryCursor> out = replica_->ExtractAllWork();
          MixWorks('x', out);
          CheckKv("extract");
          replica_->AssignWork(std::move(out), /*kv_transferred=*/true);
          break;
        }
        case 700: {
          int resident = replica_->num_reqs();
          std::vector<TrajectoryCursor> lost = replica_->Kill();
          killed_ = resident - static_cast<int64_t>(lost.size());
          MixWorks('k', lost);
          CheckKv("kill");
          replica_->Revive();
          replica_->AssignWork(std::move(lost));
          replica_->AssignWork(Fresh(16));
          break;
        }
        default:
          break;
      }
      if (pause_at >= 0 && event >= pause_at + 6) {
        replica_->Resume(/*new_version=*/2, /*recompute_kv=*/true);
        pause_at = -1;
      }
      CheckKv("action");
      LAMINAR_CHECK_LT(event, 200000) << "drive did not drain";
    }
    const ReplicaMetrics& m = replica_->metrics();
    digest_ = SnapshotFoldF64(digest_, sim_->Now().seconds());
    digest_ = SnapshotFoldI64(digest_, m.decode_tokens);
    digest_ = SnapshotFoldI64(digest_, m.prefill_tokens);
    digest_ = SnapshotFoldI64(digest_, m.completed_trajectories);
    digest_ = SnapshotFoldI64(digest_, m.preemptions);
    digest_ = SnapshotFoldI64(digest_, m.migrations_in);
    digest_ = SnapshotFoldI64(digest_, m.migrations_out);
    digest_ = SnapshotFoldI64(digest_, event);
    return digest_;
  }

  int64_t completed() const { return completed_; }
  int64_t progress_calls() const { return progress_calls_; }
  int64_t killed() const { return killed_; }
  int64_t serving_evicted() const { return serving_evicted_; }
  int64_t preemptions() const { return replica_->metrics().preemptions; }
  bool round_tripped() const { return round_tripped_; }

  static constexpr int kTotalRollout = 400;

 private:
  std::unique_ptr<RolloutReplica> NewReplica(Simulator* sim) {
    ReplicaConfig rc;
    rc.id = 3;
    rc.max_concurrency = 96;
    // A small cache and a short growth reserve, so headroom preemption fires
    // under decode growth.
    rc.kv_growth_reserve_steps = 48;
    auto r = std::make_unique<RolloutReplica>(sim, rc, decode_, 40000.0, &store_,
                                              &serving_store_);
    r->set_on_complete([this](TrajId id) {
      TrajectoryRecord rec;
      ASSERT_TRUE((IsServingId(id) ? serving_store_ : store_).MarkCompleted(id, &rec));
      rec.finished = sim_->Now();
      ++completed_;
      digest_ = SnapshotFoldU64(digest_, 'c');
      digest_ = SnapshotFoldF64(digest_, sim_->Now().seconds());
      digest_ = SnapshotFoldI64(digest_, rec.id);
      digest_ = SnapshotFoldF64(digest_, rec.finished.seconds());
      digest_ = SnapshotFoldI64(digest_, rec.total_tokens());
      for (int v : rec.weight_versions) {
        digest_ = SnapshotFoldI64(digest_, v);
      }
    });
    r->set_on_progress([this](const TrajectoryCursor& w, int replica_id) {
      ++progress_calls_;
      digest_ = SnapshotFoldU64(digest_, 'p');
      digest_ = SnapshotFoldF64(digest_, sim_->Now().seconds());
      digest_ = SnapshotFoldI64(digest_, replica_id);
      MixWork(w);
    });
    return r;
  }

  void MixWork(const TrajectoryCursor& w) {
    digest_ = SnapshotFoldI64(digest_, w.id);
    digest_ = SnapshotFoldI64(digest_, w.context_tokens);
    digest_ = SnapshotFoldI64(digest_, w.decoded_in_segment);
    digest_ = SnapshotFoldI64(digest_, w.segment_index);
    digest_ = SnapshotFoldI64(digest_, w.kv_resident ? 1 : 0);
  }

  void MixWorks(char tag, const std::vector<TrajectoryCursor>& works) {
    digest_ = SnapshotFoldU64(digest_, static_cast<uint64_t>(tag));
    digest_ = SnapshotFoldF64(digest_, sim_->Now().seconds());
    digest_ = SnapshotFoldI64(digest_, static_cast<int64_t>(works.size()));
    for (const TrajectoryCursor& w : works) {
      MixWork(w);
    }
  }

  void CheckKv(const char* where) {
    ASSERT_EQ(replica_->ResidentKvTokens(), replica_->kv_used_tokens())
        << where << " at t=" << sim_->Now().seconds();
  }

  // Decode lengths come from a short list so several sequences admitted
  // together reach a segment boundary on the same step.
  // Issues a record into the store its id belongs to.
  TrajectoryCursor MakeWork(TrajId id, int max_segments) {
    static constexpr int64_t kLengths[] = {24, 48, 48, 96, 160, 256, 700, 1300};
    TrajectoryRecord rec;
    rec.id = id;
    rec.spec.prompt_tokens = rng_.UniformInt(32, 320);
    int segments = static_cast<int>(rng_.UniformInt(1, max_segments));
    for (int i = 0; i < segments; ++i) {
      TrajectorySegment seg;
      seg.decode_tokens = kLengths[rng_.UniformInt(0, 7)];
      bool last = i + 1 == segments;
      if (!last) {
        // Half the turns call an env; the rest push straight back into the
        // batch at the boundary.
        seg.env_latency = rng_.Bernoulli(0.5) ? rng_.Uniform(0.2, 2.5) : 0.0;
        seg.feedback_tokens = rng_.UniformInt(0, 64);
      }
      rec.spec.AppendSegment(seg);
    }
    return (IsServingId(id) ? serving_store_ : store_).Issue(std::move(rec));
  }

  std::vector<TrajectoryCursor> Fresh(int n) {
    std::vector<TrajectoryCursor> works;
    for (int i = 0; i < n && fed_ < kTotalRollout; ++i) {
      works.push_back(MakeWork(fed_++, 4));
    }
    return works;
  }

  std::vector<TrajectoryCursor> Serving(int n) {
    std::vector<TrajectoryCursor> works;
    for (int i = 0; i < n; ++i) {
      works.push_back(MakeWork(kServingIdBase + serving_++, 1));
    }
    return works;
  }

  // Direct boot mid-advance: the engine and the replica are written to a
  // blob, adopted into fresh instances, and the drive continues there. The
  // adopted pair must re-serialize to the identical bytes.
  void RoundTrip() {
    SnapshotWriter writer;
    SnapshotTx wtx(&writer);
    sim_->Snapshot(wtx);
    replica_->SnapshotState(wtx);
    std::string blob = writer.Finish();

    auto sim = std::make_unique<Simulator>();
    std::unique_ptr<RolloutReplica> replica = NewReplica(sim.get());
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.Parse(blob, &error)) << error;
    SnapshotTx adopt(&reader, SnapshotMode::kAdopt);
    sim->Snapshot(adopt);
    replica->SnapshotState(adopt);
    ASSERT_TRUE(adopt.ok());
    sim->RemintRestoredEvents();
    replica_.reset();
    sim_ = std::move(sim);
    replica_ = std::move(replica);

    SnapshotWriter again;
    SnapshotTx atx(&again);
    sim_->Snapshot(atx);
    replica_->SnapshotState(atx);
    EXPECT_EQ(again.Finish(), blob);
    round_tripped_ = true;
  }

  Rng rng_;
  DecodeModel decode_;
  // The stores outlive the round trip: only the engine and the replica are
  // re-booted from the blob.
  PartialResponsePool store_;
  PartialResponsePool serving_store_{kServingIdBase};
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<RolloutReplica> replica_;
  uint64_t digest_ = 1469598103934665603ull;
  TrajId fed_ = 0;
  TrajId serving_ = 0;
  int64_t completed_ = 0;
  int64_t progress_calls_ = 0;
  int64_t killed_ = 0;
  int64_t serving_evicted_ = 0;
  bool round_tripped_ = false;
};

TEST(ReplicaDriveTest, PinnedDigestOverEveryBatchPath) {
  ReplicaDrive drive(20261017);
  uint64_t digest = drive.Run();
  ASSERT_FALSE(HasFatalFailure());
  // Every path the drive scripts actually ran.
  EXPECT_TRUE(drive.round_tripped());
  EXPECT_GT(drive.killed(), 0);
  EXPECT_EQ(drive.completed() + drive.killed(), ReplicaDrive::kTotalRollout + 6);
  EXPECT_GT(drive.serving_evicted(), 0);
  EXPECT_GT(drive.preemptions(), drive.serving_evicted());  // headroom preemption ran
  EXPECT_GT(drive.progress_calls(), ReplicaDrive::kTotalRollout);
  EXPECT_EQ(digest, 0x46aa95fe899d713full) << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace laminar
