// Domain example 1: a math-reasoning RL post-training campaign on Laminar.
//
// Runs a multi-iteration GRPO job on the DAPO-style math workload, then
// reports everything an ML engineer would want from a training run: reward
// curve, iteration timing, staleness profile, rollout utilization, and the
// repack mechanism's activity.
//
//   ./math_rl_campaign --gpus 128 --iters 12
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/run.h"

int main(int argc, char** argv) {
  using namespace laminar;
  Flags flags;
  flags.Define("gpus", "128", "total GPUs (Table-2 column for 7B: 16..256)")
      .Define("iters", "12", "RL iterations to train")
      .Define("batch", "4096", "global batch (trajectories)")
      .Define("seed", "7", "random seed");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.scale = ModelScale::k7B;
  cfg.task = TaskKind::kMathReasoning;
  cfg.total_gpus = static_cast<int>(flags.GetInt("gpus"));
  cfg.global_batch = static_cast<int>(flags.GetInt("batch"));
  cfg.warmup_iterations = 0;
  cfg.measure_iterations = static_cast<int>(flags.GetInt("iters"));
  cfg.length_drift = true;  // response lengths evolve as the model learns
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  SystemReport rep = RunExperiment(cfg);

  std::printf("Math RL campaign: %s, %d iterations, %s tokens/s sustained\n\n",
              rep.label.c_str(), rep.iterations_completed,
              Table::Int(rep.throughput_tokens_per_sec).c_str());

  Table iters({"iter", "wall clock", "duration (s)", "data wait (s)", "batch reward",
               "eval reward", "mean staleness", "clip frac"});
  SimTime prev = SimTime::Zero();
  for (size_t i = 0; i < rep.iterations.size(); ++i) {
    const IterationStats& it = rep.iterations[i];
    double eval = i < rep.reward_series.size() ? rep.reward_series.points()[i].value : 0.0;
    iters.AddRow({Table::Int(it.version), it.completed.ToString(),
                  Table::Num(it.completed - prev, 1), Table::Num(it.data_wait_seconds, 1),
                  Table::Num(it.mean_reward, 3), Table::Num(eval, 3),
                  Table::Num(it.mean_consume_staleness, 2), Table::Pct(it.clip_fraction)});
    prev = it.completed;
  }
  iters.Print();

  std::printf("\nInherent staleness distribution (version lag at trajectory finish):\n");
  // One row per version lag 0..7; lag 8 joins the last row, and lags past it
  // count toward the percentages only.
  std::vector<size_t> lags(8, 0);
  for (const auto& [t, s] : rep.staleness_samples) {
    if (s >= 0 && s <= 8) {
      ++lags[static_cast<size_t>(std::min(s, 7))];
    }
  }
  size_t peak = *std::max_element(lags.begin(), lags.end());
  for (size_t lag = 0; lag < lags.size(); ++lag) {
    if (lags[lag] == 0) {
      continue;
    }
    std::printf("[%10.1f, %10.1f) %8zu %5.1f%% %s\n", static_cast<double>(lag),
                static_cast<double>(lag + 1), lags[lag],
                100.0 * static_cast<double>(lags[lag]) /
                    static_cast<double>(rep.staleness_samples.size()),
                std::string(lags[lag] * 50 / peak, '#').c_str());
  }

  Table rollout({"rollout metric", "value"});
  rollout.AddRow({"replicas", Table::Int(rep.num_replicas)});
  rollout.AddRow({"avg KV utilization", Table::Pct(rep.avg_kv_utilization)});
  rollout.AddRow({"avg decode batch", Table::Num(rep.avg_decode_batch, 1)});
  rollout.AddRow({"busy fraction", Table::Pct(rep.rollout_busy_fraction)});
  rollout.AddRow({"mean trajectory latency (s)", Table::Num(rep.mean_traj_seconds, 0)});
  rollout.AddRow({"repack events", Table::Int(rep.repack_events)});
  rollout.AddRow({"replicas released by repack", Table::Int(rep.repack_sources_released)});
  rollout.AddRow({"weight-pull wait, mean (s)", Table::Num(rep.rollout_wait_mean_seconds)});
  std::printf("\n");
  rollout.Print();
  return 0;
}
