// The benchmark's own tests: the probes must not perturb a run, the span
// accounting must add up, and every metric name must be well formed and
// match BENCHMARK.json.
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lambench/measure.h"
#include "lambench/probe.h"
#include "lambench/workloads.h"
#include "src/core/run.h"
#include "src/rollout/replica.h"

namespace lambench {
namespace {

constexpr uint64_t kSeed = 7;

Workload Make(const std::string& name) {
  Workload w;
  EXPECT_TRUE(MakeWorkload(name, kSeed, &w)) << name;
  return w;
}

// Wrapping the registry (traced rep) and the first-fire sentinel (untraced
// restore leg) leave every run's report byte-identical to the stock driver's.
TEST(LambenchProbeTest, WrappingLeavesReportsByteIdentical) {
  for (const std::string& name : WorkloadNames()) {
    Workload w = Make(name);
    std::string stock;
    for (const laminar::RlSystemConfig& cfg : w.runs) {
      stock += Witness(laminar::RunExperiment(cfg));
    }
    RepResult plain = RunRep(w, nullptr);
    SpanRecorder spans;
    RepResult traced = RunRep(w, &spans);
    EXPECT_TRUE(plain.errors.empty()) << name << ": " << plain.errors.front();
    EXPECT_TRUE(traced.errors.empty()) << name << ": " << traced.errors.front();
    EXPECT_EQ(plain.failed_ops, 0) << name;
    EXPECT_EQ(traced.failed_ops, 0) << name;
    EXPECT_EQ(plain.witness, stock) << name << ": untraced rep drifted from the stock driver";
    EXPECT_EQ(traced.witness, stock) << name << ": traced rep drifted from the stock driver";
  }
}

// Self time: every span's duration minus its children, recomputed from the
// raw span list, matches the recorder's per-layer totals, and the self times
// partition the top-level spans. The engine residual, recomputed as leg time
// minus construction minus the top-level spans of the raw list, matches the
// reported one and is non-negative, and the legs fit in the rep's wall time.
TEST(LambenchProbeTest, SelfTimesSumToTracedRunTime) {
  for (const std::string& name : {std::string("chaos_serving_16gpu"),
                                  std::string("math_32B_1024gpu")}) {
    Workload w = Make(name);
    SpanRecorder spans;
    Clock::time_point t0 = Clock::now();
    RepResult rep = RunRep(w, &spans);
    double wall_s = SecondsBetween(t0, Clock::now());
    ASSERT_EQ(rep.failed_ops, 0) << name;

    const std::vector<Span>& all = spans.spans();
    std::vector<int64_t> child_ns(all.size(), 0);
    int64_t top_level_ns = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      int64_t d = all[i].end_ns - all[i].start_ns;
      ASSERT_GE(d, 0);
      if (all[i].parent >= 0) {
        const Span& p = all[static_cast<size_t>(all[i].parent)];
        ASSERT_LT(static_cast<size_t>(all[i].parent), i);
        ASSERT_GE(all[i].start_ns, p.start_ns);
        ASSERT_LE(all[i].end_ns, p.end_ns);
        child_ns[static_cast<size_t>(all[i].parent)] += d;
      } else {
        top_level_ns += d;
      }
    }
    std::vector<double> self(static_cast<size_t>(NumLayers()), 0.0);
    std::vector<int64_t> calls(static_cast<size_t>(NumLayers()), 0);
    for (size_t i = 0; i < all.size(); ++i) {
      int64_t own = all[i].end_ns - all[i].start_ns - child_ns[i];
      ASSERT_GE(own, 0);
      self[static_cast<size_t>(all[i].layer)] += static_cast<double>(own) * 1e-9;
      ++calls[static_cast<size_t>(all[i].layer)];
    }
    double self_sum = 0.0;
    for (size_t l = 0; l < self.size(); ++l) {
      EXPECT_EQ(rep.layers[l].calls, calls[l]) << name << " " << LayerNames()[l];
      EXPECT_NEAR(rep.layers[l].self_s, self[l], 1e-6) << name << " " << LayerNames()[l];
      self_sum += self[l];
    }
    // Self times partition the top-level spans exactly.
    EXPECT_NEAR(self_sum, static_cast<double>(top_level_ns) * 1e-9, 1e-6) << name;
    EXPECT_GT(rep.construct_s, 0.0) << name;
    EXPECT_LE(rep.run_s, wall_s) << name;
    double engine_s = rep.run_s - rep.construct_s - static_cast<double>(top_level_ns) * 1e-9;
    EXPECT_GE(engine_s, 0.0) << name;
    EXPECT_NEAR(rep.engine_self_s, engine_s, 1e-6) << name;
  }
}

// The coverage check sees a client registered behind the proxies' back.
TEST(LambenchProbeTest, CoverageCheckFlagsUnwrappedComponent) {
  struct Fake : laminar::ContinuationClient {
    void RunContinuation(uint16_t, const laminar::ContinuationPayload&) override {}
    void RestoreContinuation(uint16_t, const laminar::ContinuationPayload&,
                             laminar::SimTime) override {}
  } fake;
  Workload w = Make("chaos_serving_16gpu");
  SpanRecorder spans;
  ProbedLaminar driver(w.runs.front(), ProbeMode::kSpans, &spans);
  driver.SetupOnly();
  EXPECT_GT(driver.wrapped(), 0);
  EXPECT_TRUE(driver.UnwrappedComponents().empty());
  int32_t comp = laminar::ContinuationComponentId(laminar::kContFamilyReplica, 999);
  driver.sim().continuations().Register(comp, &fake);
  EXPECT_EQ(driver.UnwrappedComponents(), std::vector<int32_t>{comp});
  driver.sim().continuations().Unregister(comp);
}

// Layer names are unique, and a kind outside the table has no layer (the
// proxy then fails the run instead of filing its time under a wrong name).
TEST(LambenchProbeTest, LayerNamesAreUniqueAndKindsResolve) {
  std::set<std::string> seen(LayerNames().begin(), LayerNames().end());
  EXPECT_EQ(seen.size(), LayerNames().size());
  EXPECT_EQ(LayerNames()[static_cast<size_t>(ContinuationLayer(
                laminar::kContFamilyReplica, laminar::RolloutReplica::kContAdvance))],
            "rollout.replica.advance");
  EXPECT_EQ(LayerNames()[static_cast<size_t>(ContinuationLayer(
                laminar::kContFamilyDriver, laminar::DriverBase::kContRateTick))],
            "core.driver.rate_tick");
  EXPECT_EQ(ContinuationLayer(laminar::kContFamilyReplica, 99), -1);
  EXPECT_EQ(ContinuationLayer(laminar::kContFamilySystem, laminar::DriverBase::kContRateTick),
            -1);
  EXPECT_EQ(ContinuationLayer(laminar::kContFamilyCount, 0), -1);
}

// (name, unit) of every metric listed in `text`, in order.
std::vector<std::pair<std::string, std::string>> ListedMetrics(const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::regex re("\"name\":\\s*\"([^\"]*)\",\\s*\"unit\":\\s*\"([^\"]*)\"");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1].str(), (*it)[2].str());
  }
  return out;
}

// A short measurement in each mode counts every op it ran and emits exactly
// the metrics BENCHMARK.json lists for that mode, with the same units and
// order; every name is [A-Za-z0-9_.-]+ and used once.
TEST(LambenchMetricsTest, MeasureEmitsTheMetricsBenchmarkJsonLists) {
  std::ifstream in(LAMBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << "cannot read " << LAMBENCH_BENCHMARK_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  size_t e2e = text.find("\"end_to_end\"");
  size_t layer = text.find("\"per_layer\"");
  ASSERT_NE(e2e, std::string::npos);
  ASSERT_NE(layer, std::string::npos);
  ASSERT_LT(e2e, layer);

  std::regex ok("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string> all;
  Workload w = Make("chaos_serving_16gpu");
  for (bool trace : {false, true}) {
    MeasureOptions opt;
    opt.seconds = 0.01;
    opt.trace = trace;
    MeasureResult res = Measure(w, opt);
    EXPECT_EQ(res.failed, 0);
    EXPECT_TRUE(res.errors.empty()) << res.errors.front();
    // Two legs (run + restore) per simulated run, per rep.
    int reps = res.untraced_reps + res.traced_reps;
    EXPECT_EQ(res.attempted, reps * 2 * static_cast<int>(w.runs.size()));

    std::vector<std::pair<std::string, std::string>> emitted;
    for (const Metric& m : res.metrics) {
      emitted.emplace_back(m.name, m.unit);
      EXPECT_TRUE(std::regex_match(m.name, ok)) << m.name;
      EXPECT_TRUE(all.insert(m.name).second) << "duplicate metric " << m.name;
    }
    std::string listed = trace ? text.substr(layer) : text.substr(e2e, layer - e2e);
    EXPECT_EQ(emitted, ListedMetrics(listed)) << (trace ? "per_layer" : "end_to_end");
  }
}

}  // namespace
}  // namespace lambench
