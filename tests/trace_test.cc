// Unit tests for the structured tracing subsystem (src/trace): buffer and
// ring-eviction semantics, sink emission + macro no-op guarantees, binary and
// Chrome-JSON export round-trips, the TraceQuery operators and interval
// algebra, and byte-level trace determinism across sweep thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/run.h"
#include "src/exp/sweep.h"
#include "src/sim/simulator.h"
#include "src/snapshot/snapshot.h"
#include "src/trace/query.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"
#include "tests/lambda_events.h"

namespace laminar {
namespace {

TraceEvent MakeSpan(double begin, double dur, uint32_t name = 0, int32_t entity = -1) {
  TraceEvent e;
  e.time = begin;
  e.duration = dur;
  e.name = name;
  e.entity = entity;
  e.kind = TraceEventKind::kSpan;
  return e;
}

// --- TraceBuffer -------------------------------------------------------------

TEST(TraceBufferTest, InternsNamesInFirstUseOrder) {
  TraceBuffer buffer;
  uint32_t a = buffer.InternName("alpha");
  uint32_t b = buffer.InternName("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  // Repeat interning returns the existing id.
  EXPECT_EQ(buffer.InternName("alpha"), a);
  EXPECT_EQ(buffer.names().size(), 2u);
  // Interning is keyed on a name's text, not its address: the same name from
  // a literal and from heap storage is one id, also past the 15-character
  // small-string limit.
  auto heap_alpha = std::make_unique<std::string>("alpha");
  EXPECT_EQ(buffer.InternName(heap_alpha->c_str()), a);
  uint32_t long_id = buffer.InternName("replica/traj_complete");
  EXPECT_EQ(long_id, 2u);
  std::string heap_long = std::string("replica/") + "traj_complete";
  EXPECT_EQ(buffer.InternName(heap_long.c_str()), long_id);
  EXPECT_EQ(buffer.names().size(), 3u);
  EXPECT_EQ(buffer.name(a), "alpha");
  uint32_t found = 99;
  EXPECT_TRUE(buffer.FindName("beta", &found));
  EXPECT_EQ(found, b);
  EXPECT_FALSE(buffer.FindName("never-emitted", &found));
}

TEST(TraceBufferTest, FullCaptureKeepsEverything) {
  TraceBuffer buffer;
  for (int i = 0; i < 100; ++i) {
    TraceEvent e;
    e.time = i;
    e.arg = i;
    buffer.Add(e);
  }
  EXPECT_EQ(buffer.size(), 100u);
  EXPECT_EQ(buffer.total_emitted(), 100u);
  EXPECT_EQ(buffer.dropped(), 0u);
  std::vector<TraceEvent> events = buffer.InOrder();
  ASSERT_EQ(events.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(events[i].arg, i);
  }
}

TEST(TraceBufferTest, RingModeEvictsOldestAndCountsDrops) {
  TraceBuffer ring(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.arg = i;
    ring.Add(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.ring_capacity(), 4u);
  // The survivors are the newest four, still in emission order.
  std::vector<TraceEvent> events = ring.InOrder();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg, 6 + i);
  }
}

TEST(TraceBufferTest, RingModeExactlyFullDropsNothing) {
  TraceBuffer ring(5);
  for (int i = 0; i < 5; ++i) {
    TraceEvent e;
    e.arg = i;
    ring.Add(e);
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> events = ring.InOrder();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].arg, i);
  }
}

// --- TraceSink + macros ------------------------------------------------------

TEST(TraceSinkTest, StampsEventsWithSimulatorTime) {
  Simulator sim;
  TraceConfig config;
  config.enabled = true;
  TraceSink sink(&sim, config);
  sim.set_trace(&sink);
  LambdaEvents ev(&sim);

  ev.At(SimTime(2.0), [&] {
    LAMINAR_TRACE_INSTANT(&sim, TraceComponent::kTrainer, "t/pub", -1, 7);
  });
  ev.At(SimTime(5.0), [&] {
    LAMINAR_TRACE_SPAN(&sim, TraceComponent::kReplica, "r/busy", 3, SimTime(4.0), 0, 1.5);
  });
  ev.At(SimTime(6.0), [&] {
    LAMINAR_TRACE_COUNTER(&sim, TraceComponent::kData, "d/depth", -1, 42.0);
  });
  sim.RunUntilIdle();

  std::vector<TraceEvent> events = sink.buffer().InOrder();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kInstant);
  EXPECT_DOUBLE_EQ(events[0].time, 2.0);
  EXPECT_EQ(events[0].arg, 7);
  EXPECT_EQ(sink.buffer().name(events[0].name), "t/pub");

  EXPECT_EQ(events[1].kind, TraceEventKind::kSpan);
  EXPECT_DOUBLE_EQ(events[1].time, 4.0);        // caller-supplied begin
  EXPECT_DOUBLE_EQ(events[1].duration, 1.0);    // closed at Now() = 5
  EXPECT_DOUBLE_EQ(events[1].end(), 5.0);
  EXPECT_EQ(events[1].entity, 3);
  EXPECT_DOUBLE_EQ(events[1].value, 1.5);

  EXPECT_EQ(events[2].kind, TraceEventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[2].value, 42.0);
}

TEST(TraceSinkTest, RetroactiveSpanTakesExplicitEnd) {
  Simulator sim;
  TraceConfig config;
  config.enabled = true;
  TraceSink sink(&sim, config);
  sim.set_trace(&sink);
  // Emitted at t=10 but describing [1, 3): the pattern the trainer uses for
  // per-iteration phase spans reconstructed after the fact.
  LambdaEvents ev(&sim);
  ev.At(SimTime(10.0), [&] {
    LAMINAR_TRACE_SPAN_AT(&sim, TraceComponent::kTrainer, "t/train", -1, SimTime(1.0),
                          SimTime(3.0), 5);
  });
  sim.RunUntilIdle();
  std::vector<TraceEvent> events = sink.buffer().InOrder();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_DOUBLE_EQ(events[0].duration, 2.0);
  EXPECT_EQ(events[0].arg, 5);
}

TEST(TraceMacroTest, DisabledTracingSkipsArgumentEvaluation) {
  Simulator sim;
  ASSERT_EQ(sim.trace(), nullptr);
  // The macros must compile to a null test only: argument expressions carry
  // side effects here and none may fire. This is the semantic half of the
  // "zero overhead when disabled" guarantee (the perf half is the
  // bench_sim_core delta guard in the README verify recipe).
  int evaluations = 0;
  auto touch = [&](int32_t v) {
    ++evaluations;
    return v;
  };
  LAMINAR_TRACE_INSTANT(&sim, TraceComponent::kTrainer, "t/pub", touch(1));
  LAMINAR_TRACE_SPAN(&sim, TraceComponent::kReplica, "r/busy", touch(2), SimTime(0.0));
  LAMINAR_TRACE_SPAN_AT(&sim, TraceComponent::kReplica, "r/busy", touch(3), SimTime(0.0),
                        SimTime(1.0));
  LAMINAR_TRACE_COUNTER(&sim, TraceComponent::kData, "d/depth", touch(4), 1.0);
  EXPECT_EQ(evaluations, 0);
}

// --- Export round-trips ------------------------------------------------------

TraceBuffer BuildSampleBuffer(size_t ring_capacity = 0) {
  Simulator sim;
  TraceConfig config;
  config.enabled = true;
  config.ring_capacity = ring_capacity;
  TraceSink sink(&sim, config);
  sim.set_trace(&sink);
  LambdaEvents ev(&sim);
  for (int i = 0; i < 20; ++i) {
    ev.At(SimTime(0.5 * i), [&sim, i] {
      switch (i % 3) {
        case 0:
          LAMINAR_TRACE_INSTANT(&sim, TraceComponent::kTrainer, "trainer/publish", -1, i);
          break;
        case 1:
          LAMINAR_TRACE_SPAN(&sim, TraceComponent::kReplica, "replica/decode_busy", i % 4,
                             sim.Now() - 0.25, i, 0.125 * i);
          break;
        default:
          LAMINAR_TRACE_COUNTER(&sim, TraceComponent::kData, "data/buffer_depth", -1,
                                3.0 * i);
      }
    });
  }
  sim.RunUntilIdle();
  // Copy out: TraceBuffer is a value type.
  return *sink.shared_buffer();
}

TEST(TraceIoTest, BinaryRoundTripIsExact) {
  TraceBuffer original = BuildSampleBuffer();
  std::string bytes = TraceToBinary(original);
  TraceBuffer restored;
  ASSERT_TRUE(TraceFromBinary(bytes, &restored));
  EXPECT_EQ(restored.names(), original.names());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.dropped(), original.dropped());
  std::vector<TraceEvent> a = original.InOrder();
  std::vector<TraceEvent> b = restored.InOrder();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
    EXPECT_EQ(a[i].arg, b[i].arg);
    EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].entity, b[i].entity);
    EXPECT_EQ(a[i].component, b[i].component);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
  // Serialize-parse-serialize is byte-stable.
  EXPECT_EQ(TraceToBinary(restored), bytes);
}

TEST(TraceIoTest, BinaryRoundTripPreservesRingDropCount) {
  TraceBuffer ring = BuildSampleBuffer(/*ring_capacity=*/8);
  ASSERT_GT(ring.dropped(), 0u);
  std::string bytes = TraceToBinary(ring);
  TraceBuffer restored;
  ASSERT_TRUE(TraceFromBinary(bytes, &restored));
  EXPECT_EQ(restored.dropped(), ring.dropped());
  EXPECT_EQ(restored.total_emitted(), ring.total_emitted());
}

uint64_t Fnv1a(const std::string& bytes) { return SnapshotFnv1a(bytes.data(), bytes.size()); }

// A fixed script of `count` events: all three kinds, every component,
// negative entities and args, and names past the small-string limit.
void AddPinnedEvents(TraceBuffer* buffer, int count) {
  const char* names[] = {"replica/traj_complete", "x", "manager/serving_admit_reject",
                         "trainer/iteration"};
  for (int i = 0; i < count; ++i) {
    TraceEvent e;
    e.kind = static_cast<TraceEventKind>(i % 3);
    e.time = 0.1 * i + 1.0 / 3.0;
    e.duration = e.kind == TraceEventKind::kSpan ? 0.25 * (i % 5) + 1e-9 : 0.0;
    e.arg = i % 2 == 0 ? -(int64_t{1} << 40) - i : 7 * i;
    e.value = -1.5 * i + 1e-3;
    e.name = buffer->InternName(names[i % 4]);
    e.entity = i % 3 == 0 ? -1 : (i % 7) - 3;
    e.component = static_cast<TraceComponent>(i % kNumTraceComponents);
    buffer->Add(e);
  }
}

// The LMTRACE1 bytes are pinned by hash: any change to field order, byte
// order, the name table or the ring's oldest-first order fails here.
TEST(TraceIoTest, BinaryBytesArePinned) {
  TraceBuffer full;
  AddPinnedEvents(&full, 40);
  std::string bytes = TraceToBinary(full);
  // Magic, name count, names (length-prefixed), event count, drop count,
  // then one fixed 42-byte record per event.
  EXPECT_EQ(bytes.size(), 8u + 8u + (4 + 21) + (4 + 1) + (4 + 28) + (4 + 17) + 8u + 8u +
                              40u * 42u);
  EXPECT_EQ(Fnv1a(bytes), 0xb9da694349e1eab0ull);

  // A wrapped ring: 40 events through 16 slots leave the write cursor mid-
  // array, so the oldest survivors sit at the back.
  TraceBuffer ring(16);
  AddPinnedEvents(&ring, 40);
  ASSERT_EQ(ring.dropped(), 24u);
  EXPECT_EQ(Fnv1a(TraceToBinary(ring)), 0x9316cf8f8ef5881bull);

  EXPECT_EQ(Fnv1a(TraceToBinary(TraceBuffer())), 0xa65a6fe5637964d8ull);
}

TEST(TraceIoTest, RejectsMalformedBinary) {
  TraceBuffer out;
  EXPECT_FALSE(TraceFromBinary("", &out));
  EXPECT_FALSE(TraceFromBinary("NOTATRACE", &out));
  std::string good = TraceToBinary(BuildSampleBuffer());
  // Any truncation must be detected, not silently accepted.
  for (size_t cut : {good.size() - 1, good.size() / 2, size_t{9}}) {
    EXPECT_FALSE(TraceFromBinary(good.substr(0, cut), &out)) << "cut=" << cut;
  }
  // Corrupt the magic.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(TraceFromBinary(bad_magic, &out));
  // A repeated name in the table: the ids after it would index past it.
  TraceBuffer two_names;
  TraceEvent e;
  e.name = two_names.InternName("a");
  two_names.Add(e);
  e.name = two_names.InternName("b");
  two_names.Add(e);
  std::string repeated = TraceToBinary(two_names);
  size_t second_name = repeated.find('b', sizeof(uint64_t) * 2);
  ASSERT_NE(second_name, std::string::npos);
  repeated[second_name] = 'a';
  EXPECT_FALSE(TraceFromBinary(repeated, &out));
}

TEST(TraceIoTest, ChromeJsonHasOneRecordPerEventPlusMetadata) {
  TraceBuffer buffer = BuildSampleBuffer();
  std::string json = TraceToChromeJson(buffer);
  auto count = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  std::vector<TraceEvent> events = buffer.InOrder();
  size_t spans = 0, instants = 0, counters = 0;
  for (const TraceEvent& e : events) {
    spans += e.kind == TraceEventKind::kSpan;
    instants += e.kind == TraceEventKind::kInstant;
    counters += e.kind == TraceEventKind::kCounter;
  }
  EXPECT_EQ(count("\"ph\":\"X\""), spans);
  EXPECT_EQ(count("\"ph\":\"i\""), instants);
  EXPECT_EQ(count("\"ph\":\"C\""), counters);
  EXPECT_EQ(count("\"ph\":\"M\""), static_cast<size_t>(kNumTraceComponents));
  // Every interned name appears, quoted, and the document is brace-balanced
  // (no quoting subtleties: event names contain no braces or quotes).
  for (const std::string& name : buffer.names()) {
    EXPECT_GE(count("\"name\":\"" + name + "\""), 1u) << name;
  }
  EXPECT_EQ(count("{"), count("}"));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the root
}

TEST(TraceIoTest, ChromeJsonEscapesNames) {
  TraceBuffer buffer;
  TraceEvent e;
  e.name = buffer.InternName("weird\"name\\with");
  buffer.Add(e);
  std::string json = TraceToChromeJson(buffer);
  EXPECT_NE(json.find("weird\\\"name\\\\with"), std::string::npos);
}

// --- TraceQuery --------------------------------------------------------------

class TraceQueryTest : public ::testing::Test {
 protected:
  TraceQueryTest() {
    TraceConfig config;
    config.enabled = true;
    sink_ = std::make_unique<TraceSink>(&sim_, config);
    sim_.set_trace(sink_.get());
    // A small scripted timeline:
    //   t=1 instant  trainer/publish arg=1
    //   t=2 counter  data/depth = 4
    //   t=5 span     replica/busy entity 0 over [3, 5)
    //   t=6 counter  data/depth = 10
    //   t=7 span     replica/busy entity 1 over [6, 7)
    //   t=8 instant  trainer/publish arg=2
    //   t=9 span     trainer/train over [2, 9)   (retroactive: emitted last,
    //                                             earliest begin)
    LambdaEvents ev(&sim_);
    ev.At(SimTime(1.0), [this] {
      LAMINAR_TRACE_INSTANT(&sim_, TraceComponent::kTrainer, "trainer/publish", -1, 1);
    });
    ev.At(SimTime(2.0), [this] {
      LAMINAR_TRACE_COUNTER(&sim_, TraceComponent::kData, "data/depth", -1, 4.0);
    });
    ev.At(SimTime(5.0), [this] {
      LAMINAR_TRACE_SPAN(&sim_, TraceComponent::kReplica, "replica/busy", 0, SimTime(3.0));
    });
    ev.At(SimTime(6.0), [this] {
      LAMINAR_TRACE_COUNTER(&sim_, TraceComponent::kData, "data/depth", -1, 10.0);
    });
    ev.At(SimTime(7.0), [this] {
      LAMINAR_TRACE_SPAN(&sim_, TraceComponent::kReplica, "replica/busy", 1, SimTime(6.0));
    });
    ev.At(SimTime(8.0), [this] {
      LAMINAR_TRACE_INSTANT(&sim_, TraceComponent::kTrainer, "trainer/publish", -1, 2);
    });
    ev.At(SimTime(9.0), [this] {
      LAMINAR_TRACE_SPAN_AT(&sim_, TraceComponent::kTrainer, "trainer/train", -1,
                            SimTime(2.0), SimTime(9.0));
    });
    sim_.RunUntilIdle();
    query_ = std::make_unique<TraceQuery>(sink_->buffer());
  }

  Simulator sim_;
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<TraceQuery> query_;
};

TEST_F(TraceQueryTest, SelectsByComponentNameEntityAndWindow) {
  EXPECT_EQ(query_->Events(TraceSelector()).size(), 7u);
  EXPECT_EQ(query_->Events(TraceSelector().Component(TraceComponent::kTrainer)).size(), 3u);
  EXPECT_EQ(query_->Events(TraceSelector().Name("trainer/publish")).size(), 2u);
  EXPECT_EQ(query_->Events(TraceSelector().Name("no/such/event")).size(), 0u);
  EXPECT_EQ(query_->Events(TraceSelector().Entity(1)).size(), 1u);
  // Window selects instants in [after, before)...
  EXPECT_EQ(query_->Instants(TraceSelector().Window(1.0, 8.0)).size(), 1u);
  // ...and spans that *intersect* it: [2,9) and [6,7) intersect (5.5, 6.5);
  // [3,5) ended before the window opens and is excluded.
  EXPECT_EQ(query_->Spans(TraceSelector().Window(5.5, 6.5)).size(), 2u);
  EXPECT_EQ(query_->Spans(TraceSelector().Window(4.9, 6.5)).size(), 3u);
  EXPECT_EQ(query_->Spans(TraceSelector().Window(0.0, 1.0)).size(), 0u);
}

TEST_F(TraceQueryTest, SpansSortByBeginNotEmissionOrder) {
  std::vector<TraceEvent> spans = query_->Spans(TraceSelector());
  ASSERT_EQ(spans.size(), 3u);
  // trainer/train was emitted last but begins first: a retroactively emitted
  // span is indistinguishable from a live one at query time.
  EXPECT_DOUBLE_EQ(spans[0].time, 2.0);
  EXPECT_DOUBLE_EQ(spans[1].time, 3.0);
  EXPECT_DOUBLE_EQ(spans[2].time, 6.0);
  EXPECT_TRUE(std::is_sorted(spans.begin(), spans.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.time < b.time;
                             }));
}

TEST_F(TraceQueryTest, CounterIntegralUsesStepSemantics) {
  TraceSelector depth = TraceSelector().Name("data/depth");
  // 0 before the first sample at t=2; 4 on [2,6); 10 from t=6.
  EXPECT_DOUBLE_EQ(query_->CounterIntegral(depth, 0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(query_->CounterIntegral(depth, 0.0, 10.0), 4.0 * 4 + 10.0 * 4);
  EXPECT_DOUBLE_EQ(query_->CounterIntegral(depth, 3.0, 7.0), 4.0 * 3 + 10.0 * 1);
  EXPECT_DOUBLE_EQ(query_->CounterMean(depth, 2.0, 6.0), 4.0);
  EXPECT_DOUBLE_EQ(query_->CounterMean(depth, 0.0, 10.0), (16.0 + 40.0) / 10.0);
}

TEST_F(TraceQueryTest, HappensBeforeFollowsEmissionOrder) {
  TraceSelector pub = TraceSelector().Name("trainer/publish");
  TraceSelector busy = TraceSelector().Name("replica/busy");
  TraceSelector train = TraceSelector().Name("trainer/train");
  TraceSelector missing = TraceSelector().Name("no/such/event");
  EXPECT_TRUE(query_->HappensBefore(pub, busy));
  EXPECT_FALSE(query_->HappensBefore(busy, pub));
  // trainer/train *begins* at t=2 but was emitted at t=9 — emission order,
  // not begin order, is what counts for causality.
  EXPECT_TRUE(query_->HappensBefore(busy, train));
  // An unmatched selector never satisfies happens-before in either role.
  EXPECT_FALSE(query_->HappensBefore(missing, pub));
  EXPECT_FALSE(query_->HappensBefore(pub, missing));
}

TEST_F(TraceQueryTest, EndTimeIsLargestEventEnd) {
  EXPECT_DOUBLE_EQ(query_->EndTime(), 9.0);
  TraceBuffer empty;
  EXPECT_DOUBLE_EQ(TraceQuery(empty).EndTime(), 0.0);
}

// --- Interval algebra --------------------------------------------------------

TEST(IntervalAlgebraTest, MergeUnionAndTotal) {
  std::vector<TraceEvent> spans = {MakeSpan(0.0, 2.0), MakeSpan(1.0, 2.0),
                                   MakeSpan(5.0, 1.0)};
  EXPECT_DOUBLE_EQ(TotalSeconds(spans), 5.0);  // double-counts the overlap
  std::vector<std::pair<double, double>> merged = MergeSpans(spans);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].first, 0.0);
  EXPECT_DOUBLE_EQ(merged[0].second, 3.0);
  EXPECT_DOUBLE_EQ(merged[1].first, 5.0);
  EXPECT_DOUBLE_EQ(merged[1].second, 6.0);
  EXPECT_DOUBLE_EQ(UnionSeconds(spans), 4.0);
  EXPECT_DOUBLE_EQ(UnionSeconds({}), 0.0);
}

TEST(IntervalAlgebraTest, OverlapSeconds) {
  std::vector<TraceEvent> a = {MakeSpan(0.0, 4.0), MakeSpan(10.0, 2.0)};
  std::vector<TraceEvent> b = {MakeSpan(3.0, 8.0)};
  // intersection: [3,4) and [10,11) -> 2 seconds.
  EXPECT_DOUBLE_EQ(OverlapSeconds(a, b), 2.0);
  EXPECT_DOUBLE_EQ(OverlapSeconds(b, a), 2.0);
  EXPECT_DOUBLE_EQ(OverlapSeconds(a, {}), 0.0);
}

TEST(IntervalAlgebraTest, MaxUncoveredGap) {
  std::vector<TraceEvent> spans = {MakeSpan(2.0, 2.0), MakeSpan(7.0, 1.0)};
  // Over [0, 10]: gaps are [0,2] (2s), [4,7] (3s), [8,10] (2s).
  EXPECT_DOUBLE_EQ(MaxUncoveredGap(spans, 0.0, 10.0), 3.0);
  // Fully covered window has no gap.
  EXPECT_DOUBLE_EQ(MaxUncoveredGap(spans, 2.0, 4.0), 0.0);
  // No spans at all: the whole window is one gap.
  EXPECT_DOUBLE_EQ(MaxUncoveredGap({}, 0.0, 10.0), 10.0);
}

TEST(IntervalAlgebraTest, OverlapsAndContains) {
  TraceEvent outer = MakeSpan(0.0, 10.0);
  TraceEvent inner = MakeSpan(2.0, 3.0);
  TraceEvent disjoint = MakeSpan(11.0, 1.0);
  EXPECT_TRUE(Overlaps(outer, inner));
  EXPECT_TRUE(Overlaps(inner, outer));
  EXPECT_FALSE(Overlaps(outer, disjoint));
  EXPECT_TRUE(Contains(outer, inner));
  EXPECT_FALSE(Contains(inner, outer));
  EXPECT_FALSE(Contains(outer, disjoint));
}

// --- End-to-end determinism --------------------------------------------------

RlSystemConfig TracedConfig(SystemKind system, uint64_t seed = 1234) {
  RlSystemConfig cfg;
  cfg.system = system;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = 16;
  cfg.global_batch = 512;
  cfg.max_concurrency = 256;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 2;
  cfg.seed = seed;
  cfg.trace.enabled = true;
  return cfg;
}

TEST(TraceDeterminismTest, ReportCarriesTraceOnlyWhenEnabled) {
  RlSystemConfig cfg = TracedConfig(SystemKind::kLaminar);
  SystemReport on = RunExperiment(cfg);
  ASSERT_NE(on.trace, nullptr);
  EXPECT_GT(on.trace->size(), 100u);
  cfg.trace.enabled = false;
  EXPECT_EQ(RunExperiment(cfg).trace, nullptr);
}

TEST(TraceDeterminismTest, SameSeedSameBytes) {
  RlSystemConfig cfg = TracedConfig(SystemKind::kLaminar);
  SystemReport a = RunExperiment(cfg);
  SystemReport b = RunExperiment(cfg);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  EXPECT_EQ(TraceToBinary(*a.trace), TraceToBinary(*b.trace));
  // A different seed must not produce the same trace (the check has teeth).
  cfg.seed = 99;
  EXPECT_NE(TraceToBinary(*RunExperiment(cfg).trace), TraceToBinary(*a.trace));
}

// One small traced Laminar run, pinned by hash like the fixed buffer above.
// A declared change to simulated behaviour updates these two constants, as
// it regenerates tests/corpus/fingerprints.golden.
TEST(TraceDeterminismTest, LaminarRunTraceBytesArePinned) {
  SystemReport report = RunExperiment(TracedConfig(SystemKind::kLaminar));
  ASSERT_NE(report.trace, nullptr);
  std::string bytes = TraceToBinary(*report.trace);
  EXPECT_EQ(bytes.size(), 505683u);
  EXPECT_EQ(Fnv1a(bytes), 0xf8427aae2e43e324ull);
}

TEST(TraceDeterminismTest, IdenticalBytesAcrossSweepThreadCounts) {
  // The acceptance bar from DESIGN.md §9: for a fixed seed, trace files are
  // byte-identical no matter how the sweep fans experiments across threads.
  std::vector<RlSystemConfig> grid = {
      TracedConfig(SystemKind::kLaminar),
      TracedConfig(SystemKind::kVerlSync),
      TracedConfig(SystemKind::kOneStep, /*seed=*/77),
  };
  SweepOptions serial;
  serial.num_threads = 1;
  SweepOptions wide;
  wide.num_threads = 4;
  std::vector<SystemReport> a = RunExperiments(grid, serial);
  std::vector<SystemReport> b = RunExperiments(grid, wide);
  ASSERT_EQ(a.size(), grid.size());
  ASSERT_EQ(b.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    ASSERT_NE(a[i].trace, nullptr);
    ASSERT_NE(b[i].trace, nullptr);
    EXPECT_EQ(TraceToBinary(*a[i].trace), TraceToBinary(*b[i].trace)) << "config " << i;
    // And the sweep path matches the serial entry point exactly.
    SystemReport direct = RunExperiment(grid[i]);
    EXPECT_EQ(TraceToBinary(*direct.trace), TraceToBinary(*a[i].trace)) << "config " << i;
  }
}

TEST(TraceDeterminismTest, RingCaptureIsDeterministicToo) {
  RlSystemConfig cfg = TracedConfig(SystemKind::kLaminar);
  cfg.trace.ring_capacity = 512;
  SystemReport a = RunExperiment(cfg);
  SystemReport b = RunExperiment(cfg);
  ASSERT_NE(a.trace, nullptr);
  EXPECT_EQ(a.trace->ring_capacity(), 512u);
  EXPECT_GT(a.trace->dropped(), 0u);
  EXPECT_EQ(TraceToBinary(*a.trace), TraceToBinary(*b.trace));
}

}  // namespace
}  // namespace laminar
