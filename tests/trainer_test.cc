#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "src/data/experience_buffer.h"
#include "src/llm/model_spec.h"
#include "src/policy/policy.h"
#include "src/trainer/trainer.h"

namespace laminar {
namespace {

TrajectoryRecord Rec(TrajId id, int version, int64_t prompt_id) {
  TrajectoryRecord r;
  r.id = id;
  r.prompt_id = prompt_id;
  r.difficulty = 0.4;
  r.weight_versions = {version};
  r.behavior_prob = 0.3;
  r.reward = id % 2 == 0 ? 1.0 : 0.0;
  r.success = r.reward > 0.5;
  r.spec.prompt_tokens = 100;
  r.spec.AppendSegment({900, 0.0, 0});
  return r;
}

class TrainerTest : public ::testing::Test {
 protected:
  TrainerTest() : buffer_(MakeFifoSampler()), policy_(PolicyConfig{}) {}

  Trainer MakeTrainer(TrainerMode mode, bool auto_continue, int global_batch = 64,
                      int minibatches = 4) {
    TrainerConfig tc;
    tc.global_batch = global_batch;
    tc.num_minibatches = minibatches;
    tc.mode = mode;
    tc.auto_continue = auto_continue;
    return Trainer(&sim_, tc, TrainCostModel(Qwen25_7B(), GpuSpec{}, 8), &buffer_, &policy_);
  }

  void Fill(int n, int version = 0) {
    for (int i = 0; i < n; ++i) {
      TrajId id = next_id_++;
      buffer_.Push(Rec(id, version, id / 16));
    }
  }

  Simulator sim_;
  ExperienceBuffer buffer_;
  Policy policy_;
  TrajId next_id_ = 0;
};

TEST_F(TrainerTest, WaitsForFullBatchThenPublishes) {
  Trainer trainer = MakeTrainer(TrainerMode::kFullBatch, false);
  double stall_reported = -1.0;
  trainer.set_publish_fn([&](int version) {
    stall_reported = 0.25;
    EXPECT_EQ(version, 1);
    return 0.25;
  });
  trainer.Start();
  Fill(32);
  trainer.NotifyData();
  sim_.RunUntilIdle();
  EXPECT_EQ(trainer.iterations().size(), 0u);  // not enough data
  Fill(32);
  trainer.NotifyData();
  sim_.RunUntilIdle();
  ASSERT_EQ(trainer.iterations().size(), 1u);
  const IterationStats& it = trainer.iterations()[0];
  EXPECT_EQ(it.version, 1);
  EXPECT_DOUBLE_EQ(it.publish_stall_seconds, 0.25);
  EXPECT_GT(it.train_seconds, 0.0);
  EXPECT_DOUBLE_EQ(it.tokens, 64.0 * 1000.0);
  EXPECT_EQ(trainer.version(), 1);
  EXPECT_EQ(policy_.latest_version(), 1);
  EXPECT_EQ(buffer_.size(), 0u);
}

TEST_F(TrainerTest, AutoContinueChainsIterations) {
  Trainer trainer = MakeTrainer(TrainerMode::kFullBatch, true);
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  Fill(192);
  trainer.NotifyData();
  sim_.RunUntilIdle();
  EXPECT_EQ(trainer.iterations().size(), 3u);
  EXPECT_EQ(trainer.version(), 3);
  // Back-to-back iterations have no data wait.
  EXPECT_DOUBLE_EQ(trainer.iterations()[1].data_wait_seconds, 0.0);
}

TEST_F(TrainerTest, StreamingConsumesMinibatchByMinibatch) {
  Trainer trainer = MakeTrainer(TrainerMode::kStreaming, true, 64, 4);
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  // Feed one mini-batch worth: trainer starts before the full batch exists.
  Fill(16);
  trainer.NotifyData();
  sim_.RunUntilIdle();
  EXPECT_TRUE(trainer.busy());
  EXPECT_EQ(trainer.iterations().size(), 0u);
  EXPECT_EQ(buffer_.size(), 0u);  // first mini-batch consumed already
  Fill(48);
  trainer.NotifyData();
  sim_.RunUntilIdle();
  ASSERT_EQ(trainer.iterations().size(), 1u);
  EXPECT_EQ(trainer.version(), 1);
}

TEST_F(TrainerTest, BeginGateBlocksStart) {
  Trainer trainer = MakeTrainer(TrainerMode::kFullBatch, true);
  bool allow = false;
  trainer.set_begin_gate([&] { return allow; });
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  Fill(64);
  trainer.NotifyData();
  sim_.RunUntilIdle();
  EXPECT_EQ(trainer.iterations().size(), 0u);
  allow = true;
  trainer.NotifyData();
  sim_.RunUntilIdle();
  EXPECT_EQ(trainer.iterations().size(), 1u);
}

TEST_F(TrainerTest, StalenessStatsComputedAtConsumption) {
  Trainer trainer = MakeTrainer(TrainerMode::kFullBatch, false);
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  Fill(64, /*version=*/0);
  trainer.NotifyData();
  sim_.RunUntilIdle();
  // Consumed at version 0: staleness 0.
  EXPECT_DOUBLE_EQ(trainer.iterations()[0].mean_consume_staleness, 0.0);
  Fill(64, /*version=*/0);  // still version-0 data, trainer now at version 1
  trainer.NotifyData();
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(trainer.iterations()[1].mean_consume_staleness, 1.0);
  EXPECT_EQ(trainer.iterations()[1].max_consume_staleness, 1);
}

TEST_F(TrainerTest, KillMidIterationRecoversFromCheckpoint) {
  Trainer trainer = MakeTrainer(TrainerMode::kFullBatch, true);
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  Fill(64);
  trainer.NotifyData();
  // Let the iteration start, then kill mid-way.
  EXPECT_TRUE(sim_.RunUntilTrue([&] { return trainer.busy(); }));
  trainer.Kill(/*recovery_seconds=*/30.0);
  EXPECT_TRUE(trainer.dead());
  // Unpublished mini-batch updates rolled back.
  EXPECT_EQ(policy_.parameters(), std::vector<double>(12, 0.0));
  Fill(64);
  sim_.RunUntilIdle();
  EXPECT_FALSE(trainer.dead());
  EXPECT_EQ(trainer.iterations().size(), 1u);
  EXPECT_EQ(trainer.version(), 1);
}

TEST_F(TrainerTest, IterationRecordsRewardAndMixedFraction) {
  Trainer trainer = MakeTrainer(TrainerMode::kFullBatch, false);
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  for (int i = 0; i < 64; ++i) {
    TrajectoryRecord r = Rec(next_id_++, 0, i / 16);
    if (i < 16) {
      r.weight_versions = {0, 1};  // mixed
    }
    buffer_.Push(r);
  }
  trainer.NotifyData();
  sim_.RunUntilIdle();
  EXPECT_NEAR(trainer.iterations()[0].mean_reward, 0.5, 0.05);
  EXPECT_NEAR(trainer.iterations()[0].mixed_version_fraction, 0.25, 1e-9);
}

// Runs `iterations` full-batch iterations of `global_batch` records whose
// generation versions lag the trainer by 0..3, and returns the trainer's
// checkpoint; `consume` receives its consume-staleness counters.
std::string CheckpointAfter(int global_batch, int iterations, IntTally* consume) {
  Simulator sim;
  ExperienceBuffer buffer(MakeFifoSampler());
  Policy policy{PolicyConfig{}};
  TrainerConfig tc;
  tc.global_batch = global_batch;
  tc.num_minibatches = 4;
  tc.auto_continue = false;
  Trainer trainer(&sim, tc, TrainCostModel(Qwen25_7B(), GpuSpec{}, 8), &buffer, &policy);
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  TrajId next_id = 0;
  for (int it = 0; it < iterations; ++it) {
    for (int i = 0; i < global_batch; ++i) {
      TrajId id = next_id++;
      buffer.Push(Rec(id, std::max(0, it - static_cast<int>(id % 4)), id / 16));
    }
    trainer.NotifyData();
    sim.RunUntilIdle();
  }
  EXPECT_EQ(trainer.version(), iterations);
  *consume = trainer.consume_staleness();
  return trainer.Checkpoint();
}

TEST_F(TrainerTest, CheckpointSizeIndependentOfBatch) {
  constexpr int kIterations = 5;
  IntTally small_consume;
  IntTally large_consume;
  std::string small = CheckpointAfter(64, kIterations, &small_consume);
  std::string large = CheckpointAfter(1024, kIterations, &large_consume);
  EXPECT_EQ(small_consume.count, 64 * kIterations);
  EXPECT_EQ(large_consume.count, 1024 * kIterations);
  // The checkpoint holds the iteration history and three staleness counters,
  // never a per-record sample.
  EXPECT_EQ(small.size(), large.size());
}

TEST_F(TrainerTest, CrashRestartKeepsConsumeStalenessExact) {
  Trainer trainer = MakeTrainer(TrainerMode::kFullBatch, false);
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  // Staleness 0..3 per record: a mean with a fractional part, max 3.
  int64_t sum = 0;
  for (int it = 0; it < 4; ++it) {
    for (int i = 0; i < 64; ++i) {
      TrajId id = next_id_++;
      int lag = std::min(it, static_cast<int>(id % 4));
      sum += lag;
      buffer_.Push(Rec(id, it - lag, id / 16));
    }
    trainer.NotifyData();
    sim_.RunUntilIdle();
  }
  ASSERT_EQ(trainer.version(), 4);
  const IntTally before = trainer.consume_staleness();
  EXPECT_EQ(before.count, 4 * 64);
  EXPECT_EQ(before.sum, sum);
  EXPECT_EQ(before.max, 3);
  trainer.CrashRestart(trainer.Checkpoint(), /*recovery_seconds=*/5.0);
  sim_.RunUntilIdle();
  EXPECT_FALSE(trainer.dead());
  EXPECT_EQ(trainer.version(), 4);
  // The report reads mean = sum / count and max from these counters.
  const IntTally& after = trainer.consume_staleness();
  EXPECT_EQ(after.count, before.count);
  EXPECT_EQ(after.sum, before.sum);
  EXPECT_EQ(after.max, before.max);
  EXPECT_EQ(std::bit_cast<uint64_t>(after.mean()), std::bit_cast<uint64_t>(before.mean()));
  EXPECT_DOUBLE_EQ(after.mean(), static_cast<double>(sum) / (4 * 64));
}

}  // namespace
}  // namespace laminar
