#include "src/policy/policy.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"

namespace laminar {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Memo-table geometry (powers of two; direct-mapped).
constexpr size_t kFeatureCacheSize = 64;
constexpr size_t kProbCacheSize = 1024;
constexpr size_t kCurrentCacheSize = 256;

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

size_t SlotFor(uint64_t key, size_t table_size) {
  return (key * 0x9E3779B97F4A7C15ull) >> 32 & (table_size - 1);
}

}  // namespace

const char* RlAlgorithmName(RlAlgorithm algorithm) {
  switch (algorithm) {
    case RlAlgorithm::kGrpo:
      return "GRPO";
    case RlAlgorithm::kDecoupledPpo:
      return "Decoupled-PPO";
  }
  return "?";
}

Policy::Policy(PolicyConfig config) : config_(config) {
  LAMINAR_CHECK_GT(config_.num_features, 0);
  theta_.assign(config_.num_features, 0.0);
  history_.push_back(theta_);  // version 0
  feature_cache_.resize(kFeatureCacheSize);
  prob_cache_.resize(kProbCacheSize);
  current_cache_.resize(kCurrentCacheSize);
}

std::vector<double> Policy::Features(double difficulty) const {
  std::vector<double> phi(config_.num_features);
  double norm = 0.0;
  for (int j = 0; j < config_.num_features; ++j) {
    double center = config_.num_features == 1
                        ? 0.5
                        : static_cast<double>(j) / (config_.num_features - 1);
    double z = (difficulty - center) / config_.feature_width;
    phi[j] = std::exp(-0.5 * z * z);
    norm += phi[j] * phi[j];
  }
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (double& v : phi) {
      v /= norm;
    }
  }
  return phi;
}

// Memoized features: the RBF expansion depends only on the (immutable)
// config, so a bit-equal difficulty always maps to the same vector. The
// cached vector is computed by Features() itself, so hits are bit-identical.
const std::vector<double>& Policy::FeaturesCached(double difficulty) const {
  FeatureEntry& entry =
      feature_cache_[SlotFor(BitsOf(difficulty), kFeatureCacheSize)];
  if (!entry.valid || entry.d != difficulty) {
    entry.phi = Features(difficulty);
    entry.d = difficulty;
    entry.valid = true;
  }
  return entry.phi;
}

double Policy::Logit(const std::vector<double>& theta, double difficulty) const {
  const std::vector<double>& phi = FeaturesCached(difficulty);
  double dot = 0.0;
  for (int j = 0; j < config_.num_features; ++j) {
    dot += theta[j] * phi[j];
  }
  return dot - (config_.offset_base + config_.offset_slope * difficulty);
}

int Policy::PublishVersion() {
  history_.push_back(theta_);
  return latest_version();
}

void Policy::RestoreVersion(int version) {
  LAMINAR_CHECK_GE(version, 0);
  LAMINAR_CHECK_LE(version, latest_version());
  theta_ = history_[version];
  ++theta_epoch_;
}

double Policy::SuccessProb(int version, double difficulty) const {
  LAMINAR_CHECK_GE(version, 0);
  int v = std::min<int>(version, latest_version());
  // Keyed on the clamped version: history_[v] never mutates once pushed, so
  // an entry stays exact forever.
  ProbEntry& entry = prob_cache_[SlotFor(
      BitsOf(difficulty) ^ static_cast<uint64_t>(v), kProbCacheSize)];
  if (!entry.valid || entry.version != v || entry.d != difficulty) {
    entry.p = Sigmoid(Logit(history_[v], difficulty));
    entry.version = v;
    entry.d = difficulty;
    entry.valid = true;
  }
  return entry.p;
}

double Policy::CurrentSuccessProb(double difficulty) const {
  // Keyed on the live-parameter epoch: any in-place theta_ mutation bumps it
  // and implicitly invalidates the whole table.
  CurrentEntry& entry = current_cache_[SlotFor(
      BitsOf(difficulty) ^ (theta_epoch_ * 0x100000001B3ull), kCurrentCacheSize)];
  if (!entry.valid || entry.epoch != theta_epoch_ || entry.d != difficulty) {
    entry.p = Sigmoid(Logit(theta_, difficulty));
    entry.epoch = theta_epoch_;
    entry.d = difficulty;
    entry.valid = true;
  }
  return entry.p;
}

void Policy::ScoreTrajectory(TrajectoryRecord& record, Rng& rng) const {
  LAMINAR_CHECK(!record.weight_versions.empty());
  // True sampler: the mixture of every policy version the trajectory used
  // (equal weights; the simulator does not track per-version token counts).
  // Distinct versions are summed in ascending order, each pass picking the
  // smallest version above the last one: the list is a handful of entries,
  // so this beats building a set on every completion.
  double p_true = 0.0;
  int distinct = 0;
  const std::vector<int>& versions = record.weight_versions;
  for (int prev = std::numeric_limits<int>::min();;) {
    bool found = false;
    int next = 0;
    for (int v : versions) {
      if ((distinct == 0 || v > prev) && (!found || v < next)) {
        next = v;
        found = true;
      }
    }
    if (!found) {
      break;
    }
    p_true += SuccessProb(next, record.difficulty);
    ++distinct;
    prev = next;
  }
  p_true /= static_cast<double>(distinct);
  record.success = rng.Bernoulli(p_true);
  record.reward = record.success ? 1.0 : 0.0;
  // What the training stack assumes: the trajectory was produced by the
  // single policy version it is attributed to (its generation version, which
  // also defines its GRPO group's consistency). Exact for single-version
  // trajectories; misspecified for mixed-version ones, whose true sampler is
  // the mixture — the partial-rollout pathology (§2.3, Appendix C).
  record.behavior_prob = SuccessProb(record.generation_version(), record.difficulty);
}

UpdateStats Policy::UpdateMinibatch(std::span<const TrajectoryRecord> minibatch,
                                    RlAlgorithm algorithm) {
  UpdateStats stats;
  if (minibatch.empty()) {
    return stats;
  }
  // GRPO advantages: normalize rewards within each prompt group. Sorting
  // positions on (prompt_id, position) lays every group out contiguously in
  // batch order, so its mean and variance sums add members in batch order.
  group_keys_.resize(minibatch.size());
  for (size_t i = 0; i < minibatch.size(); ++i) {
    group_keys_[i] = {minibatch[i].prompt_id, static_cast<uint32_t>(i)};
  }
  std::sort(group_keys_.begin(), group_keys_.end());
  group_stats_.resize(minibatch.size());
  for (size_t begin = 0, end = 0; begin < group_keys_.size(); begin = end) {
    while (end < group_keys_.size() && group_keys_[end].first == group_keys_[begin].first) {
      ++end;
    }
    double size = static_cast<double>(end - begin);
    double mean = 0.0;
    for (size_t k = begin; k < end; ++k) {
      mean += minibatch[group_keys_[k].second].reward;
    }
    mean /= size;
    double var = 0.0;
    for (size_t k = begin; k < end; ++k) {
      double reward = minibatch[group_keys_[k].second].reward;
      var += (reward - mean) * (reward - mean);
    }
    double stddev = std::sqrt(var / size);
    for (size_t k = begin; k < end; ++k) {
      group_stats_[group_keys_[k].second] = {mean, stddev};
    }
  }

  std::vector<double> grad(config_.num_features, 0.0);
  for (size_t i = 0; i < minibatch.size(); ++i) {
    const TrajectoryRecord& rec = minibatch[i];
    stats.mean_reward += rec.reward;
    auto [mean, stddev] = group_stats_[i];
    if (stddev < 1e-9) {
      continue;  // all-success or all-failure group carries no GRPO signal
    }
    double advantage = (rec.reward - mean) / (stddev + 1e-6);
    bool y = rec.success;

    double p_new = CurrentSuccessProb(rec.difficulty);
    double pi_new = y ? p_new : 1.0 - p_new;

    double behavior = std::clamp(rec.behavior_prob, 1e-6, 1.0 - 1e-6);
    double pi_behavior = y ? behavior : 1.0 - behavior;

    double weight = 1.0;
    double ratio;
    if (algorithm == RlAlgorithm::kDecoupledPpo) {
      // Proximal policy: the actor version live when generation finished.
      double prox = SuccessProb(rec.finish_actor_version, rec.difficulty);
      prox = std::clamp(prox, 1e-6, 1.0 - 1e-6);
      double pi_prox = y ? prox : 1.0 - prox;
      weight = std::min(pi_prox / pi_behavior, config_.behavior_ratio_cap);
      ratio = pi_new / pi_prox;
    } else {
      ratio = pi_new / pi_behavior;
    }
    stats.mean_abs_log_ratio += std::fabs(std::log(std::max(ratio, 1e-9)));

    // PPO-clip: the gradient vanishes on the clipped side.
    bool clipped = (advantage > 0.0 && ratio > 1.0 + config_.clip_high) ||
                   (advantage < 0.0 && ratio < 1.0 - config_.clip_low);
    if (clipped) {
      stats.clip_fraction += 1.0;
      continue;
    }
    // d/dtheta [w * ratio * A] = w * A * ratio * (y - p_new) * phi(d).
    const std::vector<double>& phi = FeaturesCached(rec.difficulty);
    double scale = weight * advantage * ratio * (y ? 1.0 - p_new : -p_new);
    for (int j = 0; j < config_.num_features; ++j) {
      grad[j] += scale * phi[j];
    }
  }
  double n = static_cast<double>(minibatch.size());
  stats.mean_reward /= n;
  stats.clip_fraction /= n;
  stats.mean_abs_log_ratio /= n;
  stats.num_samples = static_cast<int>(minibatch.size());

  double norm = 0.0;
  for (int j = 0; j < config_.num_features; ++j) {
    grad[j] /= n;
    norm += grad[j] * grad[j];
  }
  stats.grad_norm = std::sqrt(norm);
  // Plain SGD ascent on the clipped surrogate.
  for (int j = 0; j < config_.num_features; ++j) {
    theta_[j] += config_.learning_rate * grad[j];
  }
  ++theta_epoch_;
  return stats;
}

void Policy::Snapshot(SnapshotTx& tx) {
  tx.Begin("policy");
  tx.F64Vec("theta", &theta_);
  uint64_t versions = history_.size();
  tx.U64("versions", &versions);
  if (tx.adopting()) {
    history_.assign(versions, {});
  }
  for (std::vector<double>& h : history_) {
    tx.F64Vec("history", &h);
  }
  if (tx.adopting()) {
    // The current-parameter memo is keyed on the epoch; bump it so stale
    // pre-adoption entries can never satisfy a post-adoption query.
    ++theta_epoch_;
  }
  tx.End();
}

double Policy::EvalExpectedReward() const {
  // Trapezoidal integration of p(theta, d) over d in [0, 1].
  constexpr int kGrid = 200;
  double sum = 0.0;
  for (int i = 0; i <= kGrid; ++i) {
    double d = static_cast<double>(i) / kGrid;
    double w = (i == 0 || i == kGrid) ? 0.5 : 1.0;
    sum += w * CurrentSuccessProb(d);
  }
  return sum / kGrid;
}

double Policy::EvalExpectedRewardAt(int version) const {
  constexpr int kGrid = 200;
  double sum = 0.0;
  for (int i = 0; i <= kGrid; ++i) {
    double d = static_cast<double>(i) / kGrid;
    double w = (i == 0 || i == kGrid) ? 0.5 : 1.0;
    sum += w * SuccessProb(version, d);
  }
  return sum / kGrid;
}

}  // namespace laminar
