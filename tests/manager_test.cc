// RolloutManager integration tests: assignment cycles, weight updates via
// the relay tier, backlog gating, repack execution and failure recovery.
#include <gtest/gtest.h>

#include "src/cluster/hardware.h"
#include "src/data/experience_buffer.h"
#include "src/llm/model_spec.h"
#include "src/rollout/manager.h"

namespace laminar {
namespace {

class ManagerTest : public ::testing::Test {
 protected:
  static constexpr int kReplicas = 4;

  ManagerTest() : buffer_(MakeFifoSampler()) {
    DecodeModel decode(Qwen25_7B(), MachineSpec{}, 1);
    for (int i = 0; i < kReplicas; ++i) {
      ReplicaConfig rc;
      rc.id = i;
      rc.machine = i / 2;  // two replicas per machine
      rc.max_concurrency = 256;
      replicas_.push_back(std::make_unique<RolloutReplica>(
          &sim_, rc, decode, decode.KvCapacityTokens(), &partial_pool_, &serving_pool_));
      ptrs_.push_back(replicas_.back().get());
    }
    RelayTierConfig relay_cfg;
    relay_cfg.num_relays = 2;
    relay_cfg.weight_bytes = Qwen25_7B().weight_bytes();
    relays_ = std::make_unique<RelayTier>(&sim_, relay_cfg);
    WorkloadConfig wl;
    pool_ = std::make_unique<PromptPool>(WorkloadGenerator(wl, Rng(3)), 16, Rng(4));
  }

  RolloutManager MakeManager(RolloutManagerConfig cfg, int per_replica_batch = 64) {
    cfg.per_replica_batch = per_replica_batch;
    return RolloutManager(&sim_, cfg, ptrs_, relays_.get(), pool_.get(), &partial_pool_,
                          &serving_pool_);
  }

  void WireCompletions(RolloutManager* manager) {
    for (RolloutReplica* r : ptrs_) {
      // As DriverBase::WireCompletion: serving work is never checkpointed.
      r->set_on_progress([this](const TrajectoryCursor& w, int id) {
        if (!IsServingId(w.id)) {
          partial_pool_.Update(w, id);
        }
      });
      r->set_on_complete([this](TrajId id) {
        TrajectoryRecord rec;
        partial_pool_.MarkCompleted(id, &rec);
        buffer_.Push(std::move(rec));
      });
      r->set_on_batch_done([manager](RolloutReplica* rep) { manager->OnBatchDone(rep); });
    }
  }

  Simulator sim_;
  PartialResponsePool partial_pool_;
  PartialResponsePool serving_pool_{kServingIdBase};
  std::vector<std::unique_ptr<RolloutReplica>> replicas_;
  std::vector<RolloutReplica*> ptrs_;
  std::unique_ptr<RelayTier> relays_;
  std::unique_ptr<PromptPool> pool_;
  ExperienceBuffer buffer_;
};

TEST_F(ManagerTest, StartAssignsWorkEverywhere) {
  RolloutManager manager = MakeManager({});
  WireCompletions(&manager);
  manager.Start();
  for (RolloutReplica* r : ptrs_) {
    EXPECT_TRUE(r->busy());
    EXPECT_EQ(r->num_reqs(), 64);
  }
  EXPECT_EQ(manager.stats().batches_assigned, kReplicas);
}

TEST_F(ManagerTest, BatchDoneTriggersWeightPullAndNextBatch) {
  RolloutManager manager = MakeManager({});
  WireCompletions(&manager);
  manager.Start();
  relays_->Publish(1);
  sim_.RunUntilTrue([&] { return manager.stats().batches_assigned >= kReplicas + 1; });
  // Some replica finished its batch, pulled version 1, and got a new batch.
  bool updated = false;
  for (RolloutReplica* r : ptrs_) {
    updated |= r->weight_version() == 1;
  }
  EXPECT_TRUE(updated);
}

TEST_F(ManagerTest, NoNewVersionSkipsUpdate) {
  RolloutManager manager = MakeManager({});
  WireCompletions(&manager);
  manager.Start();
  sim_.RunUntilTrue([&] { return manager.stats().batches_assigned >= kReplicas + 1; });
  for (RolloutReplica* r : ptrs_) {
    EXPECT_EQ(r->weight_version(), 0);
    EXPECT_EQ(r->metrics().weight_updates, 0);
  }
}

TEST_F(ManagerTest, BacklogCapStarvesAndPublishUnblocks) {
  RolloutManagerConfig cfg;
  cfg.backlog_cap = 1;  // gate as soon as anything is buffered
  RolloutManager manager = MakeManager(cfg);
  WireCompletions(&manager);
  manager.set_backlog_fn([this] { return static_cast<int64_t>(buffer_.size()); });
  manager.Start();
  // Run until every replica drained its first batch; all should be starved.
  sim_.RunUntilTrue([&] {
    for (RolloutReplica* r : ptrs_) {
      if (r->busy()) {
        return false;
      }
    }
    return true;
  });
  EXPECT_EQ(manager.stats().batches_assigned, kReplicas);
  // Consuming the buffer and publishing restarts generation.
  size_t n = buffer_.size();
  buffer_.Sample(n, 1);
  relays_->Publish(1);
  manager.OnActorPublish(1);
  sim_.RunUntilTrue([&] { return manager.stats().batches_assigned > kReplicas; });
  EXPECT_GT(manager.stats().batches_assigned, kReplicas);
}

TEST_F(ManagerTest, RepackConsolidatesTails) {
  RolloutManager manager = MakeManager({}, /*per_replica_batch=*/128);
  WireCompletions(&manager);
  manager.Start();
  sim_.RunUntilTrue([&] { return manager.stats().repack_events > 0; },
                    /*max_events=*/2000000);
  EXPECT_GT(manager.stats().repack_events, 0);
  EXPECT_GT(manager.stats().sources_released, 0);
  EXPECT_GT(manager.stats().trajectories_migrated, 0);
  EXPECT_GT(manager.stats().repack_overhead_seconds.count(), 0u);
}

TEST_F(ManagerTest, RepackDisabledNeverMigrates) {
  RolloutManagerConfig cfg;
  cfg.repack_enabled = false;
  RolloutManager manager = MakeManager(cfg);
  WireCompletions(&manager);
  manager.Start();
  sim_.RunUntil(SimTime(2000.0));
  EXPECT_EQ(manager.stats().repack_events, 0);
  EXPECT_EQ(manager.stats().trajectories_migrated, 0);
}

TEST_F(ManagerTest, MachineFailureRedirectsAndRevives) {
  RolloutManager manager = MakeManager({});
  WireCompletions(&manager);
  manager.Start();
  sim_.RunUntil(SimTime(30.0));
  int64_t pool_before = static_cast<int64_t>(partial_pool_.size());
  EXPECT_GT(pool_before, 0);
  manager.OnMachineFailure(0);  // kills replicas 0 and 1
  EXPECT_EQ(ptrs_[0]->phase(), ReplicaPhase::kDead);
  EXPECT_EQ(ptrs_[1]->phase(), ReplicaPhase::kDead);
  EXPECT_GT(manager.stats().trajectories_redirected, 0);
  // Survivors carry the redirected work.
  EXPECT_GT(ptrs_[2]->num_reqs(), 64);
  // Replacement machine comes back and rejoins generation.
  sim_.RunUntilTrue([&] { return ptrs_[0]->phase() == ReplicaPhase::kGenerating; },
                    5000000);
  EXPECT_TRUE(relays_->IsAlive(0));
  EXPECT_EQ(manager.stats().failures_handled, 1);
}

TEST_F(ManagerTest, FailureWithNoSameVersionHostParksWorkUntilReplacement) {
  RolloutManager manager = MakeManager({});
  WireCompletions(&manager);
  manager.Start();
  sim_.RunUntil(SimTime(20.0));
  // Move the survivors to a newer version so the dead machine's version-0
  // work has no live host.
  for (int i = 2; i < kReplicas; ++i) {
    ptrs_[i]->ExtractAllWork();
    ptrs_[i]->SetWeightVersion(1);
  }
  int64_t in_flight_on_machine0 = ptrs_[0]->num_reqs() + ptrs_[1]->num_reqs();
  EXPECT_GT(in_flight_on_machine0, 0);
  manager.OnMachineFailure(0);
  // No same-version host: work waits for the replacement.
  EXPECT_EQ(manager.stats().trajectories_redirected, 0);
  // The replacement replicas load the old checkpointed version and adopt it,
  // keeping every trajectory single-version.
  sim_.RunUntilTrue(
      [&] { return manager.stats().trajectories_redirected > 0; }, 5000000);
  EXPECT_GT(manager.stats().trajectories_redirected, 0);
  bool adopted = ptrs_[0]->weight_version() == 0 || ptrs_[1]->weight_version() == 0;
  EXPECT_TRUE(adopted);
}

TEST_F(ManagerTest, InflightCountsEverything) {
  RolloutManager manager = MakeManager({});
  WireCompletions(&manager);
  manager.Start();
  EXPECT_EQ(manager.inflight_trajectories(), kReplicas * 64);
}

// Serving deadline boundary (ISSUE 9 satellite): every request is in exactly
// one of the six terminal/live classes, and the expiry boundary is pinned to
// deadline STRICTLY LESS than the sweep timestamp.
void ExpectServingConservation(const ServingStats& s) {
  EXPECT_EQ(s.requests, s.rejected + s.queued_now + s.resident_now + s.completed +
                            s.timed_out + s.failed)
      << "serving conservation broken: requests=" << s.requests
      << " rejected=" << s.rejected << " queued=" << s.queued_now
      << " resident=" << s.resident_now << " completed=" << s.completed
      << " timed_out=" << s.timed_out << " failed=" << s.failed;
}

// A request that survives admission (queued, not load-shed) must never later
// be counted `rejected`: once queued its only terminal classes are completed,
// timed_out or failed. Before the fix, a queued request retried at a sweep
// whose timestamp exactly equals its deadline went back through the admission
// feasibility gate (now + est > deadline, always true at the boundary) and
// was terminally rejected iff a host happened to be eligible — the terminal
// class depended on host availability at the sweep instant.
TEST_F(ManagerTest, ServingDeadlineOnSweepBoundaryIsNotLoadShed) {
  RolloutManagerConfig cfg;
  cfg.serving_enabled = true;
  cfg.serving_dedicated_replicas = 1;  // replica 0 is the only serving host
  RolloutManager manager = MakeManager(cfg);
  WireCompletions(&manager);
  ptrs_[0]->set_on_complete([&manager, this](TrajId id) {
    if (IsServingId(id)) {
      serving_pool_.MarkCompleted(id);
      manager.OnServingComplete(id);
      return;
    }
    TrajectoryRecord rec;
    partial_pool_.MarkCompleted(id, &rec);
    buffer_.Push(std::move(rec));
  });
  manager.Start();
  // Freeze machine 0 so the dedicated host is ineligible at arrival: the
  // request must enter the retry backlog, i.e. it has survived admission.
  manager.OnMachineStall(0, /*duration_seconds=*/0.7);
  ServingRequest req;
  req.seq = 0;
  req.prompt_tokens = 64;
  req.decode_tokens = 16;
  req.deadline_seconds = 1.0;  // exactly the 2nd sweep (period 0.5, armed at 0)
  manager.OnServingArrival(req);
  EXPECT_EQ(manager.serving_stats().queued_now, 1);
  ExpectServingConservation(manager.serving_stats());
  // Thaw at 0.7; at the sweep at t == 1.0 == deadline the host is eligible
  // again. deadline is NOT strictly less than the sweep timestamp, so the
  // request must be placed (resident), not shed and not timed out.
  sim_.RunUntil(SimTime(1.0));
  ServingStats at_boundary = manager.serving_stats();
  EXPECT_EQ(at_boundary.rejected, 0)
      << "queued request was load-shed at the deadline==sweep boundary";
  EXPECT_EQ(at_boundary.timed_out, 0);
  ExpectServingConservation(at_boundary);
  // The placed request runs to completion (a deadline miss, but conserved).
  sim_.RunUntil(SimTime(30.0));
  ServingStats done = manager.serving_stats();
  EXPECT_EQ(done.rejected, 0);
  EXPECT_EQ(done.timed_out, 0);
  EXPECT_EQ(done.completed, 1);
  EXPECT_EQ(done.deadline_misses, 1);
  ExpectServingConservation(done);
}

// The other side of the pin: with no eligible host, a request whose deadline
// exactly equals a sweep timestamp stays queued through that sweep (equality
// is not expiry) and times out at the first sweep strictly past it.
TEST_F(ManagerTest, ServingDeadlineExactlyAtSweepTimesOutOnlyStrictlyAfter) {
  RolloutManagerConfig cfg;
  cfg.serving_enabled = true;
  cfg.serving_dedicated_replicas = 1;
  RolloutManager manager = MakeManager(cfg);
  WireCompletions(&manager);
  manager.Start();
  manager.OnMachineStall(0, /*duration_seconds=*/10.0);  // host never eligible
  ServingRequest req;
  req.seq = 0;
  req.prompt_tokens = 64;
  req.decode_tokens = 16;
  req.deadline_seconds = 1.0;
  manager.OnServingArrival(req);
  sim_.RunUntil(SimTime(1.2));  // past the t == 1.0 == deadline sweep
  ServingStats at_boundary = manager.serving_stats();
  EXPECT_EQ(at_boundary.timed_out, 0) << "deadline == sweep timestamp is not expiry";
  EXPECT_EQ(at_boundary.queued_now, 1);
  EXPECT_EQ(at_boundary.rejected, 0);
  ExpectServingConservation(at_boundary);
  sim_.RunUntil(SimTime(1.6));  // the t == 1.5 sweep is strictly past the deadline
  ServingStats expired = manager.serving_stats();
  EXPECT_EQ(expired.timed_out, 1);
  EXPECT_EQ(expired.queued_now, 0);
  EXPECT_EQ(expired.rejected, 0);
  ExpectServingConservation(expired);
}

}  // namespace
}  // namespace laminar
