#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <span>

#include "src/policy/policy.h"

namespace laminar {
namespace {

// Builds a scored GRPO group of `group` trajectories at the given
// generation/consume versions, outcomes sampled under `gen_version`. With
// `mixed`, a random subset of each group continued under later versions
// (partial rollout), so groups are internally version-inconsistent — as in
// real interrupted generation.
std::vector<TrajectoryRecord> MakeBatch(Policy& policy, Rng& rng, int prompts, int group,
                                        int gen_version, int finish_version,
                                        bool mixed = false) {
  std::vector<TrajectoryRecord> out;
  static int64_t next_prompt = 0;
  for (int p = 0; p < prompts; ++p) {
    int64_t pid = next_prompt++;
    double difficulty = rng.Uniform();
    for (int g = 0; g < group; ++g) {
      TrajectoryRecord rec;
      rec.id = pid * 100 + g;
      rec.prompt_id = pid;
      rec.group_index = g;
      rec.difficulty = difficulty;
      rec.weight_versions = {gen_version};
      if (mixed && rng.Bernoulli(0.6)) {
        for (int v = gen_version + 1; v <= finish_version; ++v) {
          if (rng.Bernoulli(0.7)) {
            rec.weight_versions.push_back(v);
          }
        }
      }
      rec.finish_actor_version = finish_version;
      policy.ScoreTrajectory(rec, rng);
      out.push_back(rec);
    }
  }
  return out;
}

// Runs `iters` on-policy-with-staleness training iterations; returns final
// expected reward.
double TrainLoop(int iters, int staleness, RlAlgorithm algorithm, bool mixed,
                 uint64_t seed) {
  Policy policy{PolicyConfig{}};
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    int current = policy.latest_version();
    int gen_version = std::max(0, current - staleness);
    auto batch = MakeBatch(policy, rng, /*prompts=*/48, /*group=*/16, gen_version, current,
                           mixed);
    // Four mini-batches, as the convergence config does.
    size_t mb = batch.size() / 4;
    for (int m = 0; m < 4; ++m) {
      std::vector<TrajectoryRecord> chunk(batch.begin() + m * mb,
                                          batch.begin() + (m + 1) * mb);
      policy.UpdateMinibatch(chunk, algorithm);
    }
    policy.PublishVersion();
  }
  return policy.EvalExpectedReward();
}

TEST(PolicyTest, InitialRewardIsLow) {
  Policy policy{PolicyConfig{}};
  EXPECT_LT(policy.EvalExpectedReward(), 0.2);
  EXPECT_GT(policy.EvalExpectedReward(), 0.0);
}

TEST(PolicyTest, OnPolicyTrainingImprovesReward) {
  double before = Policy{PolicyConfig{}}.EvalExpectedReward();
  double after = TrainLoop(40, /*staleness=*/0, RlAlgorithm::kGrpo, false, 1);
  EXPECT_GT(after, before + 0.2);
}

TEST(PolicyTest, StalenessSlowsLearning) {
  double fresh = TrainLoop(30, 0, RlAlgorithm::kGrpo, false, 2);
  double stale = TrainLoop(30, 8, RlAlgorithm::kGrpo, false, 2);
  EXPECT_GT(fresh, stale);
}

TEST(PolicyTest, StalenessHarmIsMonotone) {
  // The Laminar regime (staleness <= 4) loses much less than deep staleness.
  double fresh = 0.0;
  double mild = 0.0;
  double deep = 0.0;
  for (uint64_t seed : {3u, 13u, 23u}) {
    fresh += TrainLoop(30, 0, RlAlgorithm::kGrpo, false, seed);
    mild += TrainLoop(30, 2, RlAlgorithm::kGrpo, false, seed);
    deep += TrainLoop(30, 10, RlAlgorithm::kGrpo, false, seed);
  }
  EXPECT_GT(mild, fresh * 0.6);
  EXPECT_GT(mild, deep);
  EXPECT_GT(fresh, deep * 1.1);
}

TEST(PolicyTest, MixedVersionTrajectoriesHurtGrpo) {
  // Partial rollout's within-group version inconsistency degrades GRPO
  // relative to clean single-version groups at the same staleness.
  double clean = 0.0;
  double mixed = 0.0;
  for (uint64_t seed : {4u, 14u, 24u, 34u}) {
    clean += TrainLoop(30, 3, RlAlgorithm::kGrpo, false, seed);
    mixed += TrainLoop(30, 3, RlAlgorithm::kGrpo, true, seed);
  }
  EXPECT_GT(clean, mixed * 0.99);
}

TEST(PolicyTest, DecoupledPpoMitigatesMixedVersions) {
  double naive = TrainLoop(30, 4, RlAlgorithm::kGrpo, true, 5);
  double decoupled = TrainLoop(30, 4, RlAlgorithm::kDecoupledPpo, true, 5);
  EXPECT_GT(decoupled, naive * 0.95);
}

TEST(PolicyTest, UniformGroupsCarryNoSignal) {
  Policy policy{PolicyConfig{}};
  std::vector<TrajectoryRecord> batch;
  for (int g = 0; g < 16; ++g) {
    TrajectoryRecord rec;
    rec.prompt_id = 1;
    rec.difficulty = 0.5;
    rec.weight_versions = {0};
    rec.reward = 1.0;  // everyone succeeded: advantage must be zero
    rec.success = true;
    rec.behavior_prob = 0.5;
    batch.push_back(rec);
  }
  auto before = policy.parameters();
  UpdateStats stats = policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
  EXPECT_DOUBLE_EQ(stats.grad_norm, 0.0);
  EXPECT_EQ(policy.parameters(), before);
}

TEST(PolicyTest, ClipFractionGrowsWithStaleness) {
  Policy fresh_policy{PolicyConfig{}};
  Rng rng(6);
  // Train a while so versions genuinely differ.
  for (int i = 0; i < 20; ++i) {
    auto batch = MakeBatch(fresh_policy, rng, 32, 16, fresh_policy.latest_version(),
                           fresh_policy.latest_version());
    fresh_policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
    fresh_policy.PublishVersion();
  }
  int v = fresh_policy.latest_version();
  auto on_policy = MakeBatch(fresh_policy, rng, 64, 16, v, v);
  auto off_policy = MakeBatch(fresh_policy, rng, 64, 16, std::max(0, v - 10), v);
  UpdateStats on = fresh_policy.UpdateMinibatch(on_policy, RlAlgorithm::kGrpo);
  UpdateStats off = fresh_policy.UpdateMinibatch(off_policy, RlAlgorithm::kGrpo);
  EXPECT_GE(off.clip_fraction, on.clip_fraction);
  EXPECT_GT(off.mean_abs_log_ratio, on.mean_abs_log_ratio);
}

// The mini-batch update as it was written before GRPO groups went flat: one
// std::map of member pointers per prompt, a second map of group statistics.
// Features are recomputed from the config with Policy's formula. Returns the
// stats and the parameters the update would produce, leaving `policy` as is.
std::pair<UpdateStats, std::vector<double>> MapReferenceUpdate(
    const Policy& policy, std::span<const TrajectoryRecord> minibatch,
    RlAlgorithm algorithm) {
  const PolicyConfig& c = policy.config();
  auto features = [&c](double difficulty) {
    std::vector<double> phi(c.num_features);
    double norm = 0.0;
    for (int j = 0; j < c.num_features; ++j) {
      double center =
          c.num_features == 1 ? 0.5 : static_cast<double>(j) / (c.num_features - 1);
      double z = (difficulty - center) / c.feature_width;
      phi[j] = std::exp(-0.5 * z * z);
      norm += phi[j] * phi[j];
    }
    norm = std::sqrt(norm);
    for (double& v : phi) {
      v /= norm;
    }
    return phi;
  };
  std::map<int64_t, std::vector<const TrajectoryRecord*>> groups;
  for (const TrajectoryRecord& rec : minibatch) {
    groups[rec.prompt_id].push_back(&rec);
  }
  std::map<int64_t, std::pair<double, double>> group_stats;  // mean, std
  for (const auto& [pid, members] : groups) {
    double mean = 0.0;
    for (const auto* rec : members) {
      mean += rec->reward;
    }
    mean /= static_cast<double>(members.size());
    double var = 0.0;
    for (const auto* rec : members) {
      var += (rec->reward - mean) * (rec->reward - mean);
    }
    var /= static_cast<double>(members.size());
    group_stats[pid] = {mean, std::sqrt(var)};
  }
  UpdateStats stats;
  std::vector<double> grad(c.num_features, 0.0);
  for (const TrajectoryRecord& rec : minibatch) {
    stats.mean_reward += rec.reward;
    auto [mean, stddev] = group_stats[rec.prompt_id];
    if (stddev < 1e-9) {
      continue;
    }
    double advantage = (rec.reward - mean) / (stddev + 1e-6);
    bool y = rec.success;
    double p_new = policy.CurrentSuccessProb(rec.difficulty);
    double pi_new = y ? p_new : 1.0 - p_new;
    double behavior = std::clamp(rec.behavior_prob, 1e-6, 1.0 - 1e-6);
    double pi_behavior = y ? behavior : 1.0 - behavior;
    double weight = 1.0;
    double ratio;
    if (algorithm == RlAlgorithm::kDecoupledPpo) {
      double prox = std::clamp(policy.SuccessProb(rec.finish_actor_version, rec.difficulty),
                               1e-6, 1.0 - 1e-6);
      double pi_prox = y ? prox : 1.0 - prox;
      weight = std::min(pi_prox / pi_behavior, c.behavior_ratio_cap);
      ratio = pi_new / pi_prox;
    } else {
      ratio = pi_new / pi_behavior;
    }
    stats.mean_abs_log_ratio += std::fabs(std::log(std::max(ratio, 1e-9)));
    if ((advantage > 0.0 && ratio > 1.0 + c.clip_high) ||
        (advantage < 0.0 && ratio < 1.0 - c.clip_low)) {
      stats.clip_fraction += 1.0;
      continue;
    }
    std::vector<double> phi = features(rec.difficulty);
    double scale = weight * advantage * ratio * (y ? 1.0 - p_new : -p_new);
    for (int j = 0; j < c.num_features; ++j) {
      grad[j] += scale * phi[j];
    }
  }
  double n = static_cast<double>(minibatch.size());
  stats.mean_reward /= n;
  stats.clip_fraction /= n;
  stats.mean_abs_log_ratio /= n;
  stats.num_samples = static_cast<int>(minibatch.size());
  double norm = 0.0;
  std::vector<double> theta = policy.parameters();
  for (int j = 0; j < c.num_features; ++j) {
    grad[j] /= n;
    norm += grad[j] * grad[j];
  }
  stats.grad_norm = std::sqrt(norm);
  for (int j = 0; j < c.num_features; ++j) {
    theta[j] += c.learning_rate * grad[j];
  }
  return {stats, theta};
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(PolicyTest, FlatGroupingMatchesMapReference) {
  for (RlAlgorithm algorithm : {RlAlgorithm::kGrpo, RlAlgorithm::kDecoupledPpo}) {
    SCOPED_TRACE(RlAlgorithmName(algorithm));
    // Six times the default step size, so ten published versions move the
    // policy far enough that stale and mixed records reach the clipped side.
    PolicyConfig config;
    config.learning_rate = 0.6;
    Policy policy{config};
    Rng rng(31);
    for (int i = 0; i < 12; ++i) {
      int v = policy.latest_version();
      policy.UpdateMinibatch(MakeBatch(policy, rng, 32, 8, v, v), algorithm);
      policy.PublishVersion();
    }
    int v = policy.latest_version();
    // Multi-member groups, mixed-version and stale (whose proximal version
    // is old too), singleton groups, and groups whose rewards are all equal
    // (no GRPO signal).
    std::vector<TrajectoryRecord> batch = MakeBatch(policy, rng, 16, 6, v - 10, v, true);
    for (const TrajectoryRecord& rec : MakeBatch(policy, rng, 16, 6, v - 10, v - 10)) {
      batch.push_back(rec);
    }
    for (const TrajectoryRecord& rec : MakeBatch(policy, rng, 10, 1, v - 2, v)) {
      batch.push_back(rec);
    }
    for (int g = 0; g < 4; ++g) {
      for (TrajectoryRecord rec : MakeBatch(policy, rng, 1, 5, v - 1, v)) {
        rec.success = g % 2 == 0;
        rec.reward = rec.success ? 1.0 : 0.0;
        batch.push_back(rec);
      }
    }
    // Interleave the groups across the batch.
    rng.Shuffle(batch);
    // Successive mini-batches, so later updates start from earlier ones.
    double clipped = 0.0;
    size_t per_mb = batch.size() / 4;
    for (size_t m = 0; m < 4; ++m) {
      std::span<const TrajectoryRecord> mb(batch.data() + m * per_mb,
                                           m + 1 == 4 ? batch.size() - m * per_mb : per_mb);
      auto [want, want_theta] = MapReferenceUpdate(policy, mb, algorithm);
      UpdateStats got = policy.UpdateMinibatch(mb, algorithm);
      EXPECT_EQ(Bits(got.mean_reward), Bits(want.mean_reward)) << "mini-batch " << m;
      EXPECT_EQ(Bits(got.clip_fraction), Bits(want.clip_fraction)) << "mini-batch " << m;
      EXPECT_EQ(Bits(got.mean_abs_log_ratio), Bits(want.mean_abs_log_ratio))
          << "mini-batch " << m;
      EXPECT_EQ(Bits(got.grad_norm), Bits(want.grad_norm)) << "mini-batch " << m;
      EXPECT_EQ(got.num_samples, want.num_samples) << "mini-batch " << m;
      ASSERT_EQ(policy.parameters().size(), want_theta.size());
      for (size_t j = 0; j < want_theta.size(); ++j) {
        EXPECT_EQ(Bits(policy.parameters()[j]), Bits(want_theta[j]))
            << "mini-batch " << m << " theta[" << j << "]";
      }
      clipped += want.clip_fraction;
      EXPECT_GT(want.grad_norm, 0.0) << "mini-batch " << m;
    }
    // The batch reaches the clipped branch too.
    EXPECT_GT(clipped, 0.0);
  }
}

TEST(PolicyTest, SuccessProbMonotoneInDifficulty) {
  Policy policy{PolicyConfig{}};
  double easy = policy.CurrentSuccessProb(0.1);
  double hard = policy.CurrentSuccessProb(0.9);
  EXPECT_GT(easy, hard);
}

TEST(PolicyTest, VersionSnapshotsAreStable) {
  Policy policy{PolicyConfig{}};
  Rng rng(7);
  double p0 = policy.SuccessProb(0, 0.5);
  for (int i = 0; i < 10; ++i) {
    auto batch = MakeBatch(policy, rng, 16, 16, policy.latest_version(),
                           policy.latest_version());
    policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
    policy.PublishVersion();
  }
  // Old snapshots are immutable.
  EXPECT_DOUBLE_EQ(policy.SuccessProb(0, 0.5), p0);
  EXPECT_NE(policy.SuccessProb(10, 0.5), p0);
}

TEST(PolicyTest, RestoreVersionRollsBack) {
  Policy policy{PolicyConfig{}};
  Rng rng(8);
  auto batch = MakeBatch(policy, rng, 32, 16, 0, 0);
  policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
  EXPECT_NE(policy.parameters(), std::vector<double>(12, 0.0));
  policy.RestoreVersion(0);
  EXPECT_EQ(policy.parameters(), std::vector<double>(12, 0.0));
}

TEST(PolicyTest, ScoreTrajectoryFillsAllFields) {
  Policy policy{PolicyConfig{}};
  Rng rng(9);
  TrajectoryRecord rec;
  rec.difficulty = 0.3;
  rec.weight_versions = {0};
  policy.ScoreTrajectory(rec, rng);
  EXPECT_TRUE(rec.reward == 0.0 || rec.reward == 1.0);
  EXPECT_GT(rec.behavior_prob, 0.0);
  EXPECT_LT(rec.behavior_prob, 1.0);
  EXPECT_EQ(rec.success, rec.reward == 1.0);
}

// Property sweep: learning must be robust across seeds.
class PolicyConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolicyConvergenceTest, ImprovesFromScratch) {
  double final_reward = TrainLoop(25, 0, RlAlgorithm::kGrpo, false, GetParam());
  EXPECT_GT(final_reward, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyConvergenceTest, ::testing::Range<uint64_t>(10, 18));

}  // namespace
}  // namespace laminar
