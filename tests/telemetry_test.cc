// Telemetry contract tests (DESIGN.md §10): registry semantics, histogram
// bucketing/quantiles, deterministic sampled tracing (including end-to-end
// through an Eddy under a VirtualClock), and rate-limited logging.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cacq/engine.h"
#include "common/clock.h"
#include "common/logging.h"
#include "eddy/eddy.h"
#include "eddy/operators.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace tcq {
namespace {

// The registry is process-global and this binary runs many tests, so each
// test uses names under its own prefix and never assumes registry size.

TEST(MetricsTest, CounterGaugeBasics) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter* c = reg.GetCounter("test.basics.counter");
  Gauge* g = reg.GetGauge("test.basics.gauge");

  c->Add(3);
  ++*c;
  *c += 6;
  EXPECT_EQ(c->value(), 10u);
  EXPECT_EQ(static_cast<uint64_t>(*c), 10u);

  g->Set(-5);
  g->Add(7);
  EXPECT_EQ(g->value(), 2);
}

TEST(MetricsTest, SameNameSharesMetricAcrossCallers) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter* a = reg.GetCounter("test.shared.counter");
  Counter* b = reg.GetCounter("test.shared.counter");
  EXPECT_EQ(a, b);
  a->Add(1);
  b->Add(1);
  EXPECT_EQ(a->value(), 2u);
}

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  Histogram h;
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketBound(2), 3u);

  for (int i = 0; i < 90; ++i) h.Record(1);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u + 10u * 1000u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 1u);
  // p99 lands in 1000's bucket: its inclusive upper bound.
  EXPECT_GE(h.ApproxQuantile(0.99), 1000u);
  EXPECT_LE(h.ApproxQuantile(0.99), 2047u);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, SnapshotAndJsonCoverRegisteredNames) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("test.json.counter")->Add(42);
  reg.GetGauge("test.json.gauge")->Set(-3);
  reg.GetHistogram("test.json.histo")->Record(5);

  bool saw_counter = false, saw_gauge = false, saw_histo = false;
  for (const MetricSample& s : reg.Snapshot()) {
    if (s.name == "test.json.counter") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricKind::kCounter);
      EXPECT_DOUBLE_EQ(s.value, 42.0);
    } else if (s.name == "test.json.gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(s.value, -3.0);
    } else if (s.name == "test.json.histo") {
      saw_histo = true;
      EXPECT_EQ(s.kind, MetricKind::kHistogram);
      EXPECT_DOUBLE_EQ(s.value, 1.0);  // Count.
      EXPECT_DOUBLE_EQ(s.sum, 5.0);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histo);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"test.json.counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.histo\":{"), std::string::npos);
}

TEST(MetricsTest, JsonEscaping) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().SetClock(nullptr);
    Tracer::Global().ResetForTest();
  }
};

TEST_F(TracerTest, DisabledSamplesNothing) {
  Tracer& tr = Tracer::Global();
  tr.ResetForTest();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tr.MaybeStartTrace(), 0u);
  EXPECT_EQ(tr.sampled(), 0u);
}

TEST_F(TracerTest, SamplingIsCounterBasedAndDeterministic) {
  Tracer& tr = Tracer::Global();
  tr.Enable(/*sample_every=*/3);
  tr.ResetForTest();

  std::vector<size_t> sampled_arrivals;
  for (size_t i = 0; i < 12; ++i) {
    if (tr.MaybeStartTrace() != 0) sampled_arrivals.push_back(i);
  }
  // Arrivals 0, 3, 6, 9 — a pure function of arrival order.
  EXPECT_EQ(sampled_arrivals, (std::vector<size_t>{0, 3, 6, 9}));
  EXPECT_EQ(tr.sampled(), 4u);

  // Re-running the same arrival sequence reproduces the same choice.
  tr.ResetForTest();
  std::vector<size_t> again;
  for (size_t i = 0; i < 12; ++i) {
    if (tr.MaybeStartTrace() != 0) again.push_back(i);
  }
  EXPECT_EQ(again, sampled_arrivals);
}

TEST_F(TracerTest, RingEvictsOldestAtCapacity) {
  Tracer& tr = Tracer::Global();
  tr.Enable(/*sample_every=*/1, /*capacity=*/2);
  tr.ResetForTest();
  for (uint64_t i = 1; i <= 5; ++i) {
    TraceEvent ev;
    ev.trace_id = i;
    tr.Record(ev);
  }
  std::vector<TraceEvent> events = tr.Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, 4u);
  EXPECT_EQ(events[1].trace_id, 5u);
  EXPECT_EQ(tr.evicted(), 3u);
}

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

Tuple KVTuple(int64_t k, int64_t v, Timestamp ts = 0) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

/// Runs 8 tuples through a one-filter eddy at 1-in-4 sampling and returns
/// the drained trace.
std::vector<TraceEvent> TraceEddyRun(const VirtualClock* clock) {
  Tracer& tr = Tracer::Global();
  tr.Enable(/*sample_every=*/4);
  tr.SetClock(clock);
  tr.ResetForTest();

  SourceLayout layout;
  const size_t s = layout.AddSource("s", KV());
  SmallBitset sources(layout.num_sources());
  sources.Set(s);
  Eddy eddy(&layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  ExprPtr pred = Expr::Binary(BinaryOp::kGe, Expr::Column("k"),
                              Expr::Literal(Value::Int64(4)));
  auto bound = pred->Bind(*layout.full_schema());
  EXPECT_TRUE(bound.ok()) << bound.status();
  eddy.AddOperator(std::make_shared<FilterOp>("k>=4", *bound, sources));
  eddy.SetSink([](RoutedTuple&&) {});
  for (int64_t k = 0; k < 8; ++k) eddy.Inject(s, KVTuple(k, k));
  eddy.Drain();
  return tr.Drain();
}

#ifndef TCQ_METRICS_DISABLED
TEST_F(TracerTest, EddyHopsAreRecordedDeterministically) {
  VirtualClock clock;
  clock.AdvanceTo(77);
  std::vector<TraceEvent> events = TraceEddyRun(&clock);

  // 1-in-4 over 8 injected tuples: arrivals 0 (k=0, filtered out) and
  // 4 (k=4, emitted) are traced. Each shows a filter hop; the pass gets
  // an [emit] marker, the drop a [discard] marker.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].trace_id, 1u);
  EXPECT_EQ(events[0].op, "k>=4");
  EXPECT_EQ(events[0].decision, TraceDecision::kPolicy);
  EXPECT_FALSE(events[0].passed);
  EXPECT_EQ(events[1].op, "[discard]");
  EXPECT_EQ(events[1].trace_id, 1u);
  EXPECT_EQ(events[2].trace_id, 2u);
  EXPECT_EQ(events[2].op, "k>=4");
  EXPECT_TRUE(events[2].passed);
  EXPECT_EQ(events[3].op, "[emit]");
  for (const TraceEvent& ev : events) EXPECT_EQ(ev.at, 77);

  // Determinism: the identical run yields the identical trace.
  std::vector<TraceEvent> rerun = TraceEddyRun(&clock);
  ASSERT_EQ(rerun.size(), events.size());
  for (size_t i = 0; i < rerun.size(); ++i) {
    EXPECT_EQ(rerun[i].trace_id, events[i].trace_id);
    EXPECT_EQ(rerun[i].op, events[i].op);
    EXPECT_EQ(rerun[i].decision, events[i].decision);
    EXPECT_EQ(rerun[i].passed, events[i].passed);
  }
}

TEST_F(TracerTest, UntracedTuplesRecordNothing) {
  Tracer& tr = Tracer::Global();
  tr.Disable();
  tr.ResetForTest();

  SourceLayout layout;
  const size_t s = layout.AddSource("s", KV());
  SmallBitset sources(layout.num_sources());
  sources.Set(s);
  Eddy eddy(&layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  eddy.AddOperator(std::make_shared<FilterOp>(
      "t", Expr::Literal(Value::Bool(true)), sources));
  eddy.SetSink([](RoutedTuple&&) {});
  for (int64_t k = 0; k < 16; ++k) eddy.Inject(s, KVTuple(k, k));
  eddy.Drain();
  EXPECT_TRUE(tr.Drain().empty());
  EXPECT_EQ(tr.sampled(), 0u);
}

TEST(MetricsTest, GroupedFilterAppliesFlushedPerDrain) {
  // Grouped filters count applies locally and the eddy publishes them once
  // per Drain: after each injection the registry moved by exactly the
  // visits the eddy routed to its grouped-filter operators.
  Counter* applies =
      MetricRegistry::Global().GetCounter("tcq.grouped_filter.applies");
  CacqEngine engine;
  ASSERT_TRUE(engine
                  .AddStream("S", Schema::Make({{"a", ValueType::kInt64, ""},
                                                {"b", ValueType::kInt64, ""}}))
                  .ok());
  for (int64_t i = 0; i < 6; ++i) {
    CacqQuerySpec q;
    q.sources = {"S"};
    q.where = Expr::Binary(
        BinaryOp::kAnd,
        Expr::Binary(BinaryOp::kGt, Expr::Column("a"),
                     Expr::Literal(Value::Int64(i))),
        Expr::Binary(BinaryOp::kLt, Expr::Column("b"),
                     Expr::Literal(Value::Int64(10 - i))));
    ASSERT_TRUE(engine.AddQuery(q).ok());
  }
  auto gf_visits = [&engine] {
    uint64_t n = 0;
    for (size_t i = 0; i < engine.eddy().num_operators(); ++i) {
      if (engine.eddy().op(i)->name().rfind("gf[", 0) == 0) {
        n += engine.eddy().op_stats()[i].routed;
      }
    }
    return n;
  };
  std::vector<Tuple> batch;
  for (int64_t k = 0; k < 64; ++k) {
    batch.push_back(Tuple::Make({Value::Int64(k % 8), Value::Int64(k % 12)}, k));
  }
  const uint64_t before = applies->value();
  ASSERT_TRUE(engine.InjectBatch("S", batch).ok());
  EXPECT_GT(gf_visits(), 64u);  // Both columns' filters ran.
  EXPECT_EQ(applies->value() - before, gf_visits());
  ASSERT_TRUE(engine.Inject("S", batch[5]).ok());
  EXPECT_EQ(applies->value() - before, gf_visits());
}
#endif  // TCQ_METRICS_DISABLED

class LogEveryNTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Logger::SetSinkForTest(nullptr);
    Logger::set_threshold(LogLevel::kWarn);
  }
};

TEST_F(LogEveryNTest, EmitsFirstOfEveryN) {
  std::vector<std::string> lines;
  Logger::SetSinkForTest(
      [&lines](LogLevel, const std::string& msg) { lines.push_back(msg); });
  Logger::set_threshold(LogLevel::kInfo);

  for (int i = 0; i < 10; ++i) {
    TCQ_LOG_EVERY_N(Info, 4) << "occurrence " << i;
  }
  // Occurrences 0, 4 and 8 of this site emit.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("occurrence 0"), std::string::npos);
  EXPECT_NE(lines[1].find("occurrence 4"), std::string::npos);
  EXPECT_NE(lines[2].find("occurrence 8"), std::string::npos);
}

TEST_F(LogEveryNTest, DisabledSeverityDoesNotCount) {
  std::vector<std::string> lines;
  Logger::SetSinkForTest(
      [&lines](LogLevel, const std::string& msg) { lines.push_back(msg); });

  Logger::set_threshold(LogLevel::kError);
  for (int i = 0; i < 7; ++i) {
    TCQ_LOG_EVERY_N(Warn, 2) << "suppressed " << i;
  }
  EXPECT_TRUE(lines.empty());

  // Enabling later starts the site fresh: its next occurrence emits.
  Logger::set_threshold(LogLevel::kWarn);
  TCQ_LOG_EVERY_N(Warn, 2) << "first enabled";
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("first enabled"), std::string::npos);
}

TEST_F(LogEveryNTest, UsableAsUnbracedIfArm) {
  std::vector<std::string> lines;
  Logger::SetSinkForTest(
      [&lines](LogLevel, const std::string& msg) { lines.push_back(msg); });
  Logger::set_threshold(LogLevel::kInfo);

  // Compiles and binds correctly as a single statement.
  for (int i = 0; i < 4; ++i)
    if (i % 2 == 0)
      TCQ_LOG_EVERY_N(Info, 1) << "even " << i;
    else
      TCQ_LOG_EVERY_N(Info, 1) << "odd " << i;
  ASSERT_EQ(lines.size(), 4u);
}

}  // namespace
}  // namespace tcq
