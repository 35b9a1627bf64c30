#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <vector>

#include "src/common/flags.h"
#include "src/common/histogram.h"
#include "src/common/ring_deque.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace laminar {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ForkedStreamsAreIndependentOfParentDraws) {
  Rng parent1(7);
  Rng parent2(7);
  // Consume draws on one parent only; forks must still agree.
  for (int i = 0; i < 50; ++i) {
    parent1.Uniform();
  }
  Rng child1 = parent1.Fork("workload");
  Rng child2 = parent2.Fork("workload");
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(child1.Uniform(), child2.Uniform());
  }
}

TEST(RngTest, ForkNamesProduceDistinctStreams) {
  Rng root(7);
  Rng a = root.Fork("a");
  Rng b = root.Fork("b");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 7);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 7);
    saw_lo |= v == 0;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, LogNormalMedianApproximatelyExpMu) {
  Rng rng(5);
  SampleSet s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.LogNormal(std::log(100.0), 0.8));
  }
  EXPECT_NEAR(s.Median(), 100.0, 5.0);
}

TEST(RngTest, ParetoIsHeavyTailed) {
  Rng rng(5);
  SampleSet s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Pareto(1.0, 1.5));
  }
  EXPECT_GE(s.min(), 1.0);
  EXPECT_GT(s.Quantile(0.99) / s.Median(), 5.0);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(3);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.Categorical(w)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(SampleSetTest, ExactQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.99), 99.01, 0.5);
}

TEST(StepIntegratorTest, TimeWeightedAverage) {
  StepIntegrator g;
  g.Set(SimTime(0.0), 10.0);
  g.Set(SimTime(5.0), 20.0);  // 10 for 5 s
  // 20 for another 5 s -> average 15.
  EXPECT_DOUBLE_EQ(g.AverageUntil(SimTime(10.0)), 15.0);
  g.Set(SimTime(10.0), 0.0);
  EXPECT_DOUBLE_EQ(g.AverageUntil(SimTime(20.0)), 7.5);
}

TEST(TimeSeriesTest, MeanInWindowAndResample) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.Add(SimTime(i), i);
  }
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(SimTime(2.0), SimTime(5.0)), 3.0);
  auto buckets = ts.Resample(2.0);
  ASSERT_GE(buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(buckets[0].value, 0.5);  // points 0,1
}

TEST(LogHistogramTest, TopBoundarySampleLandsInLastBucket) {
  LogHistogram h(1.0, 2.0, 8);
  h.Add(256.0);  // top edge of [128, 256]
  EXPECT_EQ(h.buckets()[7], 1u);
  h.Add(257.0);
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_EQ(h.buckets()[7], 1u);  // 257 overflowed
}

TEST(LogHistogramTest, ExponentialEdges) {
  LogHistogram h(1.0, 2.0, 8);
  h.Add(1.5);   // [1,2)
  h.Add(3.0);   // [2,4)
  h.Add(100.0); // [64,128)
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[6], 1u);
  EXPECT_DOUBLE_EQ(h.BucketLow(3), 8.0);
}

TEST(TableTest, FormattingHelpers) {
  EXPECT_EQ(Table::Int(1234567.0), "1,234,567");
  EXPECT_EQ(Table::Int(-1234.0), "-1,234");
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Factor(2.5), "2.50x");
  EXPECT_EQ(Table::Pct(0.123), "12.3%");
}

TEST(TableTest, AlignedRender) {
  Table t({"a", "long-header"});
  t.AddRow({"x", "1"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.ToCsv(), "a,long-header\nx,1\n");
}

TEST(FlagsTest, ParsesAllForms) {
  Flags f;
  f.Define("alpha", "1", "").Define("beta", "x", "").Define("gamma", "false", "");
  const char* argv[] = {"prog", "--alpha=5", "--beta", "hello", "--gamma"};
  ASSERT_TRUE(f.Parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(f.GetInt("alpha"), 5);
  EXPECT_EQ(f.GetString("beta"), "hello");
  EXPECT_TRUE(f.GetBool("gamma"));
}

// Random push_front/push_back/pop_front/clear against std::deque, so the
// ring wraps and grows with its head at every offset.
TEST(RingDequeTest, MatchesStdDequeUnderRandomOps) {
  RingDeque<int> ring;
  std::deque<int> want;
  Rng rng(17);
  for (int step = 0; step < 20000; ++step) {
    int64_t op = rng.UniformInt(0, 99);
    if (op < 35) {
      ring.push_back(step);
      want.push_back(step);
    } else if (op < 60) {
      ring.push_front(step);
      want.push_front(step);
    } else if (op < 99) {
      if (!want.empty()) {
        ASSERT_EQ(ring.front(), want.front());
        ring.pop_front();
        want.pop_front();
      }
    } else {
      ring.clear();
      want.clear();
    }
    ASSERT_EQ(ring.size(), want.size());
    ASSERT_EQ(ring.empty(), want.empty());
    if (step % 97 == 0) {
      std::vector<int> got;
      for (int v : ring) {
        got.push_back(v);
      }
      ASSERT_EQ(got, std::vector<int>(want.begin(), want.end())) << "step " << step;
    }
  }
}

TEST(FlagsTest, DefaultsApply) {
  Flags f;
  f.Define("x", "2.5", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(f.GetDouble("x"), 2.5);
}

TEST(SimTimeTest, ArithmeticAndFormatting) {
  SimTime t(90.0);
  EXPECT_DOUBLE_EQ((t + 30.0).seconds(), 120.0);
  EXPECT_DOUBLE_EQ(t - SimTime(30.0), 60.0);
  EXPECT_EQ(SimTime(0.5).ToString(), "500.000ms");
  EXPECT_EQ(SimTime(7200.0).ToString(), "2.00h");
  EXPECT_FALSE(SimTime::Max().is_finite());
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(Gbps(400.0), 50e9);
  EXPECT_DOUBLE_EQ(GiB(1.0), 1073741824.0);
  EXPECT_DOUBLE_EQ(Milliseconds(5.0), 0.005);
}

}  // namespace
}  // namespace laminar
