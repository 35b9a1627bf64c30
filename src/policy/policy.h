// Learnable policy over a synthetic reasoning task, driving the convergence
// experiments (paper Figure 13, Table 3).
//
// The real system trains an LLM with GRPO; what the convergence comparison
// actually measures is how data staleness and mixed-version trajectories
// degrade learning progress per wall-clock second. We reproduce that causal
// chain with a small but genuine RL problem:
//
//  * A prompt has difficulty d ~ U[0,1]; the policy is a linear model over
//    radial-basis features of d whose sigmoid gives the success probability.
//  * A trajectory's binary reward is sampled under the policy version(s) it
//    was generated with; the recorded behaviour probability is what the
//    serving system believes, which diverges from the true sampler when a
//    trajectory mixes versions (partial rollout).
//  * Updates use the PPO-clip surrogate with GRPO group advantages
//    (Clip-Higher, eps_high > eps_low) or AReaL's decoupled-PPO correction.
//
// Staleness therefore hurts exactly the way the paper describes: stale or
// misspecified importance ratios fall outside the clip range and contribute
// zero gradient, so throughput gains can be nullified by data quality.
#ifndef LAMINAR_SRC_POLICY_POLICY_H_
#define LAMINAR_SRC_POLICY_POLICY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/data/trajectory.h"

namespace laminar {

class SnapshotTx;

enum class RlAlgorithm {
  kGrpo,          // GRPO + Clip-Higher (verl, one-step, stream-gen, Laminar)
  kDecoupledPpo,  // AReaL's decoupled PPO (behaviour/proximal split)
};

const char* RlAlgorithmName(RlAlgorithm algorithm);

struct PolicyConfig {
  int num_features = 12;
  // Calibrated so one published version drifts importance ratios by
  // |log ratio| ~ 0.07: staleness <= 4 costs little (as the paper observes
  // for Laminar/AReaL), deep staleness visibly degrades learning.
  double learning_rate = 0.10;
  double clip_low = 0.2;    // eps_low  (Table 3)
  double clip_high = 0.28;  // eps_high (Clip-Higher)
  // Decoupled PPO truncation bound on the behaviour ratio.
  double behavior_ratio_cap = 2.0;
  // Task shape: required skill grows with difficulty.
  double offset_base = 1.0;
  double offset_slope = 3.5;
  double feature_width = 0.16;
};

struct UpdateStats {
  double mean_reward = 0.0;
  double clip_fraction = 0.0;      // samples with zero gradient due to clipping
  double mean_abs_log_ratio = 0.0;
  double grad_norm = 0.0;
  int num_samples = 0;
};

class Policy {
 public:
  explicit Policy(PolicyConfig config);

  // Versioning ---------------------------------------------------------------
  // Snapshot of the current parameters becomes version (num_versions). The
  // initial parameters are version 0.
  int PublishVersion();
  int latest_version() const { return static_cast<int>(history_.size()) - 1; }
  // Resets the live parameters to snapshot `version` (checkpoint recovery
  // after a trainer failure discards unpublished mini-batch updates).
  void RestoreVersion(int version);

  // Generation side ------------------------------------------------------------
  // Success probability of the policy snapshot `version` on difficulty `d`.
  double SuccessProb(int version, double difficulty) const;
  double CurrentSuccessProb(double difficulty) const;
  // Samples the outcome of a finished trajectory: draws success under the
  // true (possibly mixed-version) sampler, sets reward/success and the
  // behaviour probability the serving stack would have recorded (the final
  // version's probability — correct iff the trajectory is single-version).
  void ScoreTrajectory(TrajectoryRecord& record, Rng& rng) const;

  // Training side ---------------------------------------------------------------
  // One mini-batch policy update. Records must carry reward, behaviour prob,
  // difficulty and version metadata (ScoreTrajectory fills all of them).
  // Groups records by prompt_id for GRPO advantages.
  UpdateStats UpdateMinibatch(std::span<const TrajectoryRecord> minibatch,
                              RlAlgorithm algorithm);

  // Exact expected reward of the current parameters over the difficulty
  // distribution (numerical integration) — the smooth convergence metric.
  double EvalExpectedReward() const;
  double EvalExpectedRewardAt(int version) const;

  const PolicyConfig& config() const { return config_; }
  const std::vector<double>& parameters() const { return theta_; }

  // Full-state snapshot (LMSNAP1): live parameters plus the published
  // version history. The memo tables are exact caches keyed on inputs, so
  // they are rebuilt lazily after adoption rather than serialized.
  void Snapshot(SnapshotTx& tx);

 private:
  std::vector<double> Features(double difficulty) const;
  const std::vector<double>& FeaturesCached(double difficulty) const;
  double Logit(const std::vector<double>& theta, double difficulty) const;

  PolicyConfig config_;
  std::vector<double> theta_;
  std::vector<std::vector<double>> history_;  // snapshots per version

  // Exact memo tables (DESIGN.md §11). Policy evaluation is inner-loop work —
  // every trajectory score and every GRPO record evaluates RBF features and a
  // sigmoid, and prompt difficulties repeat heavily (one difficulty per
  // prompt, group_size records per prompt; the expected-reward integral
  // re-walks a fixed grid). A cache row hits only on bit-equality of the
  // query (and, where parameters can change, an equal epoch/version), so a
  // hit returns exactly what a fresh evaluation would: feature vectors are
  // config-only, `history_` snapshots are append-only and immutable, and
  // `theta_epoch_` advances whenever the live parameters mutate.
  struct FeatureEntry {
    bool valid = false;
    double d = 0.0;
    std::vector<double> phi;
  };
  struct ProbEntry {
    bool valid = false;
    int version = 0;
    double d = 0.0;
    double p = 0.0;
  };
  struct CurrentEntry {
    bool valid = false;
    uint64_t epoch = 0;
    double d = 0.0;
    double p = 0.0;
  };
  mutable std::vector<FeatureEntry> feature_cache_;
  mutable std::vector<ProbEntry> prob_cache_;
  mutable std::vector<CurrentEntry> current_cache_;
  uint64_t theta_epoch_ = 0;  // bumped on every in-place theta_ mutation

  // UpdateMinibatch scratch, reused across calls: (prompt_id, position)
  // keys, and each position's group (mean, stddev).
  std::vector<std::pair<int64_t, uint32_t>> group_keys_;
  std::vector<std::pair<double, double>> group_stats_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_POLICY_POLICY_H_
