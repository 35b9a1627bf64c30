#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"

namespace laminar {

LogHistogram::LogHistogram(double lo, double growth, size_t num_buckets)
    : lo_(lo), growth_(growth), counts_(num_buckets, 0) {
  LAMINAR_CHECK(lo > 0.0);
  LAMINAR_CHECK(growth > 1.0);
  LAMINAR_CHECK(num_buckets > 0);
}

void LogHistogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  // The top edge is closed: only samples strictly above the last bucket's
  // upper bound overflow. The index is clamped rather than compared in log
  // space, where rounding can push a boundary sample out of range.
  if (x > BucketHigh(counts_.size() - 1)) {
    ++overflow_;
    return;
  }
  double idx = std::log(x / lo_) / std::log(growth_);
  size_t i = std::min(static_cast<size_t>(idx), counts_.size() - 1);
  ++counts_[i];
}

double LogHistogram::BucketLow(size_t i) const {
  return lo_ * std::pow(growth_, static_cast<double>(i));
}

double LogHistogram::BucketHigh(size_t i) const { return BucketLow(i) * growth_; }

std::string LogHistogram::ToAscii(size_t max_width) const {
  size_t peak = 0;
  for (size_t c : counts_) {
    peak = std::max(peak, c);
  }
  std::string out;
  char line[160];
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    size_t bar = peak == 0 ? 0 : counts_[i] * max_width / peak;
    double pct = total_ == 0 ? 0.0 : 100.0 * static_cast<double>(counts_[i]) /
                                         static_cast<double>(total_);
    std::snprintf(line, sizeof(line), "[%10.1f, %10.1f) %8zu %5.1f%% ", BucketLow(i),
                  BucketHigh(i), counts_[i], pct);
    out += line;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace laminar
