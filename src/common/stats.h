// Sample-based statistics used by the metrics collectors.
#ifndef LAMINAR_SRC_COMMON_STATS_H_
#define LAMINAR_SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"

namespace laminar {

class SnapshotTx;

// Sample- and time-series containers. Components count in plain int64_t
// fields and keep distributions here; each container snapshots itself.

// Stores all samples; supports exact quantiles. Suitable for the volumes the
// simulator produces (millions of doubles at most).
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;
  // Quantile via linear interpolation between order statistics, q in [0, 1].
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }
  void Clear() { samples_.clear(); sorted_ = true; }

  // Serializes/verifies/adopts the raw sample vector and sort flag
  // (src/snapshot/snapshot.h). The in-place EnsureSorted ordering is itself
  // deterministic, so raw bytes are a stable witness.
  void Snapshot(SnapshotTx& tx);

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Count, sum and max of integer samples. Mean and max of a run's staleness
// need nothing more, and the double mean sum / count equals the mean of the
// raw samples bit for bit while partial sums stay below 2^53.
struct IntTally {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;  // 0 while empty

  void Add(int64_t x) {
    max = count == 0 || x > max ? x : max;
    ++count;
    sum += x;
  }
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  void Snapshot(SnapshotTx& tx);
};

// A (time, value) series, e.g. throughput over the course of a run.
struct TimePoint {
  SimTime time;
  double value = 0.0;
};

class TimeSeries {
 public:
  void Add(SimTime t, double value) { points_.push_back({t, value}); }
  const std::vector<TimePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }

  // Mean of values whose time lies in [lo, hi). Returns 0 if none.
  double MeanInWindow(SimTime lo, SimTime hi) const;
  // Resamples onto fixed buckets of width `bucket_seconds`, averaging values
  // per bucket; empty buckets carry the previous bucket's value.
  std::vector<TimePoint> Resample(double bucket_seconds) const;

  void Snapshot(SnapshotTx& tx);

 private:
  std::vector<TimePoint> points_;
};

// Utilization integrator: accumulates the time integral of a step function
// (e.g. busy GPUs or KVCache occupancy) so averages over a window are exact.
class StepIntegrator {
 public:
  explicit StepIntegrator(double initial_value = 0.0) : value_(initial_value) {}

  // Records that the tracked quantity changed to `value` at time `t`.
  void Set(SimTime t, double value);
  double current() const { return value_; }
  // Time-weighted average of the quantity over [start, t]; `t` must be >= the
  // last Set() time.
  double AverageUntil(SimTime t) const;
  // Time integral of the quantity over [start, t]; `t` must be >= the last
  // Set() time. Differences of this give exact windowed averages.
  double IntegralUntil(SimTime t) const;
  SimTime last_change() const { return last_time_; }

  void Snapshot(SnapshotTx& tx);

 private:
  double value_ = 0.0;
  double integral_ = 0.0;
  SimTime start_ = SimTime::Zero();
  SimTime last_time_ = SimTime::Zero();
  bool started_ = false;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_COMMON_STATS_H_
