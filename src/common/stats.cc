#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"

namespace laminar {

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum() / static_cast<double>(samples_.size());
}

double SampleSet::sum() const {
  double s = 0.0;
  for (double x : samples_) {
    s += x;
  }
  return s;
}

double SampleSet::min() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::Quantile(double q) const {
  LAMINAR_CHECK(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  if (samples_.size() == 1) {
    return samples_[0];
  }
  double pos = q * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double TimeSeries::MeanInWindow(SimTime lo, SimTime hi) const {
  double sum = 0.0;
  size_t n = 0;
  for (const auto& p : points_) {
    if (p.time >= lo && p.time < hi) {
      sum += p.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<TimePoint> TimeSeries::Resample(double bucket_seconds) const {
  std::vector<TimePoint> out;
  if (points_.empty() || bucket_seconds <= 0.0) {
    return out;
  }
  double end = points_.back().time.seconds();
  size_t idx = 0;
  double carry = 0.0;
  for (double t = 0.0; t <= end + bucket_seconds; t += bucket_seconds) {
    double sum = 0.0;
    size_t n = 0;
    while (idx < points_.size() && points_[idx].time.seconds() < t + bucket_seconds) {
      sum += points_[idx].value;
      ++n;
      ++idx;
    }
    double v = n == 0 ? carry : sum / static_cast<double>(n);
    carry = v;
    out.push_back({SimTime(t), v});
    if (idx >= points_.size()) {
      break;
    }
  }
  return out;
}

void SampleSet::Snapshot(SnapshotTx& tx) {
  tx.F64Vec("samples", &samples_);
  tx.Bool("sorted", &sorted_);
}

void IntTally::Snapshot(SnapshotTx& tx) {
  tx.I64("count", &count);
  tx.I64("sum", &sum);
  tx.I64("max", &max);
}

void TimeSeries::Snapshot(SnapshotTx& tx) {
  // Packed as parallel (times, values) double vectors so the record count
  // stays fixed regardless of series length.
  std::vector<double> times(points_.size());
  std::vector<double> values(points_.size());
  for (size_t i = 0; i < points_.size(); ++i) {
    times[i] = points_[i].time.seconds();
    values[i] = points_[i].value;
  }
  tx.F64Vec("times", &times);
  tx.F64Vec("values", &values);
  if (tx.adopting() && times.size() == values.size()) {
    points_.resize(times.size());
    for (size_t i = 0; i < times.size(); ++i) {
      points_[i] = {SimTime(times[i]), values[i]};
    }
  }
}

void StepIntegrator::Snapshot(SnapshotTx& tx) {
  tx.F64("value", &value_);
  tx.F64("integral", &integral_);
  double start = start_.seconds();
  double last = last_time_.seconds();
  tx.F64("start", &start);
  tx.F64("last_time", &last);
  tx.Bool("started", &started_);
  if (tx.adopting()) {
    start_ = SimTime(start);
    last_time_ = SimTime(last);
  }
}

void StepIntegrator::Set(SimTime t, double value) {
  if (!started_) {
    start_ = t;
    last_time_ = t;
    started_ = true;
  }
  LAMINAR_CHECK(t >= last_time_);
  integral_ += value_ * (t - last_time_);
  last_time_ = t;
  value_ = value;
}

double StepIntegrator::IntegralUntil(SimTime t) const {
  if (!started_ || t <= start_) {
    return 0.0;
  }
  LAMINAR_CHECK(t >= last_time_);
  return integral_ + value_ * (t - last_time_);
}

double StepIntegrator::AverageUntil(SimTime t) const {
  if (!started_ || t <= start_) {
    return value_;
  }
  LAMINAR_CHECK(t >= last_time_);
  double total = integral_ + value_ * (t - last_time_);
  return total / (t - start_);
}

}  // namespace laminar
