// Log-bucketed histogram for distribution reporting.
#ifndef LAMINAR_SRC_COMMON_HISTOGRAM_H_
#define LAMINAR_SRC_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace laminar {

// Histogram with exponentially growing bucket edges: [lo, lo*g), [lo*g, lo*g^2)...
// Useful for long-tailed quantities like trajectory lengths and latencies.
class LogHistogram {
 public:
  LogHistogram(double lo, double growth, size_t num_buckets);

  void Add(double x);

  size_t total_count() const { return total_; }
  const std::vector<size_t>& buckets() const { return counts_; }
  double BucketLow(size_t i) const;
  double BucketHigh(size_t i) const;
  std::string ToAscii(size_t max_width = 50) const;

 private:
  double lo_;
  double growth_;
  std::vector<size_t> counts_;
  size_t underflow_ = 0;
  size_t overflow_ = 0;
  size_t total_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_COMMON_HISTOGRAM_H_
