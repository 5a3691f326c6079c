#include "eddy/eddy.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eddy/operators.h"
#include "telemetry/trace.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

Tuple KVTuple(int64_t k, int64_t v, Timestamp ts = 0) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

/// Layout with a single source "s".
struct SingleSourceFixture {
  SourceLayout layout;
  size_t s;

  SingleSourceFixture() { s = layout.AddSource("s", KV()); }

  SmallBitset SourceSet() const {
    SmallBitset b(layout.num_sources());
    b.Set(s);
    return b;
  }

  ExprPtr BindOrDie(ExprPtr e) const {
    auto bound = e->Bind(*layout.full_schema());
    EXPECT_TRUE(bound.ok()) << bound.status();
    return *bound;
  }
};

TEST(SourceLayoutTest, SingleSourceWidenSharesTheCellBlock) {
  SingleSourceFixture fx;
  Tuple narrow = KVTuple(3, 4, /*ts=*/17);
  narrow.set_seq(9);
  narrow.set_retraction(true);
  const Tuple wide = fx.layout.Widen(fx.s, narrow);
  EXPECT_EQ(wide.cells().data(), narrow.cells().data());
  EXPECT_EQ(wide.arity(), 2u);
  EXPECT_EQ(wide.timestamp(), 17);
  EXPECT_EQ(wide.seq(), 9);
  EXPECT_TRUE(wide.retraction());
}

TEST(SourceLayoutTest, SeqOnTheWideCopyLeavesTheNarrowTupleAlone) {
  SingleSourceFixture fx;
  Tuple narrow = KVTuple(3, 4, /*ts=*/17);
  narrow.set_seq(9);
  Tuple wide = fx.layout.Widen(fx.s, narrow);
  wide.set_seq(42);
  wide.set_timestamp(99);
  wide.set_retraction(true);
  EXPECT_EQ(narrow.seq(), 9);
  EXPECT_EQ(narrow.timestamp(), 17);
  EXPECT_FALSE(narrow.retraction());
  EXPECT_EQ(wide.cells().data(), narrow.cells().data());
}

TEST(SourceLayoutTest, MultiSourceWidenBuildsAFreshNullPaddedBlock) {
  SourceLayout layout;
  const size_t a = layout.AddSource("a", KV());
  const size_t b = layout.AddSource("b", KV());
  Tuple narrow = KVTuple(5, 6, /*ts=*/8);
  narrow.set_seq(3);
  const Tuple wide = layout.Widen(b, narrow);
  EXPECT_NE(wide.cells().data(), narrow.cells().data());
  ASSERT_EQ(wide.arity(), 4u);
  EXPECT_TRUE(wide.cell(layout.offset(a)).is_null());
  EXPECT_TRUE(wide.cell(layout.offset(a) + 1).is_null());
  EXPECT_EQ(wide.cell(layout.offset(b)).int64_value(), 5);
  EXPECT_EQ(wide.cell(layout.offset(b) + 1).int64_value(), 6);
  EXPECT_EQ(wide.timestamp(), 8);
  EXPECT_EQ(wide.seq(), 3);
  EXPECT_FALSE(wide.retraction());
}

TEST(EddyTest, SingleFilterPassesAndDrops) {
  SingleSourceFixture fx;
  Eddy eddy(&fx.layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  ExprPtr pred = fx.BindOrDie(Expr::Binary(
      BinaryOp::kGt, Expr::Column("k"), Expr::Literal(Value::Int64(5))));
  eddy.AddOperator(
      std::make_shared<FilterOp>("k>5", pred, fx.SourceSet()));

  TupleVector out;
  eddy.SetSink([&](RoutedTuple&& rt) { out.push_back(rt.tuple); });
  for (int64_t k = 0; k < 10; ++k) eddy.Inject(fx.s, KVTuple(k, k));
  eddy.Drain();
  ASSERT_EQ(out.size(), 4u);  // k = 6..9.
  for (const Tuple& t : out) EXPECT_GT(t.cell(0).int64_value(), 5);
}

TEST(EddyTest, TupleVisitsEveryFilterExactlyOnce) {
  SingleSourceFixture fx;
  Eddy eddy(&fx.layout, std::make_unique<RandomPolicy>(3));
  // Two always-true filters: every tuple must pass both exactly once.
  ExprPtr truth = Expr::Literal(Value::Bool(true));
  eddy.AddOperator(std::make_shared<FilterOp>("f1", truth, fx.SourceSet()));
  eddy.AddOperator(std::make_shared<FilterOp>("f2", truth, fx.SourceSet()));

  size_t emitted = 0;
  eddy.SetSink([&](RoutedTuple&&) { ++emitted; });
  for (int64_t k = 0; k < 100; ++k) eddy.Inject(fx.s, KVTuple(k, k));
  eddy.Drain();
  EXPECT_EQ(emitted, 100u);
  EXPECT_EQ(eddy.op_stats()[0].routed, 100u);
  EXPECT_EQ(eddy.op_stats()[1].routed, 100u);
  EXPECT_EQ(eddy.visits(), 200u);
}

TEST(EddyTest, ConjunctionOrderInvariant) {
  // Whatever order the policy picks, output = AND of the predicates.
  for (const char* policy_name : {"fixed", "random", "lottery"}) {
    SingleSourceFixture fx;
    Eddy eddy(&fx.layout, MakePolicy(policy_name, 99));
    ExprPtr p1 = fx.BindOrDie(Expr::Binary(
        BinaryOp::kGt, Expr::Column("k"), Expr::Literal(Value::Int64(10))));
    ExprPtr p2 = fx.BindOrDie(Expr::Binary(
        BinaryOp::kLt, Expr::Column("k"), Expr::Literal(Value::Int64(20))));
    ExprPtr p3 = fx.BindOrDie(Expr::Binary(
        BinaryOp::kEq,
        Expr::Binary(BinaryOp::kMod, Expr::Column("k"),
                     Expr::Literal(Value::Int64(2))),
        Expr::Literal(Value::Int64(0))));
    eddy.AddOperator(std::make_shared<FilterOp>("p1", p1, fx.SourceSet()));
    eddy.AddOperator(std::make_shared<FilterOp>("p2", p2, fx.SourceSet()));
    eddy.AddOperator(std::make_shared<FilterOp>("p3", p3, fx.SourceSet()));

    std::vector<int64_t> out;
    eddy.SetSink(
        [&](RoutedTuple&& rt) { out.push_back(rt.tuple.cell(0).int64_value()); });
    for (int64_t k = 0; k < 50; ++k) eddy.Inject(fx.s, KVTuple(k, k));
    eddy.Drain();
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, (std::vector<int64_t>{12, 14, 16, 18})) << policy_name;
  }
}

TEST(EddyTest, LotteryLearnsSelectiveOperatorFirst) {
  // One filter drops 90%, the other 10%. After convergence the selective
  // filter should receive (nearly) every tuple while the weak filter sees
  // only survivors, so its routed count collapses toward the join rate.
  SingleSourceFixture fx;
  Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(17));
  auto selective = std::make_shared<SyntheticFilterOp>(
      "selective", fx.SourceSet(), [](uint64_t) { return 0.1; }, 1.0, 5);
  auto weak = std::make_shared<SyntheticFilterOp>(
      "weak", fx.SourceSet(), [](uint64_t) { return 0.9; }, 1.0, 6);
  const size_t weak_idx = eddy.AddOperator(weak);
  const size_t sel_idx = eddy.AddOperator(selective);

  for (int64_t k = 0; k < 5000; ++k) eddy.Inject(fx.s, KVTuple(k, k));
  eddy.Drain();

  const auto& stats = eddy.op_stats();
  // The selective op must end up routed-first for most tuples: the weak op
  // then sees only ~10% of the stream.
  EXPECT_GT(stats[sel_idx].routed, stats[weak_idx].routed);
  EXPECT_LT(static_cast<double>(stats[weak_idx].routed),
            0.6 * static_cast<double>(stats[sel_idx].routed));
}

TEST(EddyTest, BatchingReducesDecisions) {
  auto run = [](size_t batch) {
    SingleSourceFixture fx;
    Eddy::Options opts;
    opts.batch_size = batch;
    Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(3), opts);
    ExprPtr truth = Expr::Literal(Value::Bool(true));
    eddy.AddOperator(std::make_shared<FilterOp>("f1", truth, fx.SourceSet()));
    eddy.AddOperator(std::make_shared<FilterOp>("f2", truth, fx.SourceSet()));
    for (int64_t k = 0; k < 1000; ++k) eddy.Inject(fx.s, KVTuple(k, k));
    eddy.Drain();
    return eddy.decisions();
  };
  const uint64_t d1 = run(1);
  const uint64_t d64 = run(64);
  EXPECT_GT(d1, d64 * 10);  // Decision count collapses with batching.
}

TEST(EddyTest, BatchSizeBudgetPersistsAcrossDrains) {
  // Retiring an injected batch at the end of Drain() must not discard the
  // remaining reuse budget of the configured batch_size knob: entries are
  // clamped back to the knob's span, not cleared, so interleaving batch
  // injections leaves the decision count where single-tuple injections
  // would have put it. (Result sets are routing-invariant either way.)
  auto run = [](bool use_batches) {
    SingleSourceFixture fx;
    Eddy::Options opts;
    opts.batch_size = 64;
    Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(3), opts);
    ExprPtr truth = Expr::Literal(Value::Bool(true));
    eddy.AddOperator(std::make_shared<FilterOp>("f1", truth, fx.SourceSet()));
    eddy.AddOperator(std::make_shared<FilterOp>("f2", truth, fx.SourceSet()));
    int64_t k = 0;
    for (int chunk = 0; chunk < 100; ++chunk) {
      if (use_batches) {
        std::vector<Tuple> batch;
        for (int i = 0; i < 10; ++i, ++k) batch.push_back(KVTuple(k, k));
        eddy.InjectBatch(fx.s, batch);
      } else {
        for (int i = 0; i < 10; ++i, ++k) eddy.Inject(fx.s, KVTuple(k, k));
      }
      eddy.Drain();
    }
    EXPECT_EQ(eddy.emitted(), 1000u);
    return eddy.decisions();
  };
  const uint64_t single = run(false);
  const uint64_t batched = run(true);
  // 1000 tuples / budget 64 ≈ 16 decisions per routing stage, either way.
  // The regression being guarded against paid one fresh decision per
  // stage per Drain (~100 per stage) when batches were in play.
  EXPECT_LE(batched, single);
  EXPECT_LT(batched, 100u);
}

TEST(EddyTest, FixedSequenceReducesDecisions) {
  auto run = [](size_t seq_len) {
    SingleSourceFixture fx;
    Eddy::Options opts;
    opts.fixed_sequence_length = seq_len;
    Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(3), opts);
    ExprPtr truth = Expr::Literal(Value::Bool(true));
    for (int i = 0; i < 4; ++i) {
      eddy.AddOperator(std::make_shared<FilterOp>("f" + std::to_string(i),
                                                  truth, fx.SourceSet()));
    }
    for (int64_t k = 0; k < 500; ++k) eddy.Inject(fx.s, KVTuple(k, k));
    eddy.Drain();
    EXPECT_EQ(eddy.emitted(), 500u);  // Correctness unaffected.
    return eddy.decisions();
  };
  EXPECT_GT(run(1), run(4) * 3);
}

// --- Run-at-a-time routing ------------------------------------------------

/// Three always-true filters on one source: every tuple passes all three
/// hops, so a batch stays one run through three routing stages.
struct ThreeFilterEddy {
  SingleSourceFixture fx;
  std::unique_ptr<Eddy> eddy;
  std::vector<int64_t> emitted;

  ThreeFilterEddy(std::unique_ptr<RoutingPolicy> policy, size_t batch_size) {
    Eddy::Options opts;
    opts.batch_size = batch_size;
    eddy = std::make_unique<Eddy>(&fx.layout, std::move(policy), opts);
    ExprPtr truth = Expr::Literal(Value::Bool(true));
    for (int i = 0; i < 3; ++i) {
      eddy->AddOperator(std::make_shared<FilterOp>("f" + std::to_string(i),
                                                   truth, fx.SourceSet()));
    }
    eddy->SetSink([this](RoutedTuple&& rt) {
      emitted.push_back(rt.tuple.cell(0).int64_value());
    });
  }
};

TEST(EddyRunTest, BatchAtOneStageCostsOneDecisionPerStage) {
  ThreeFilterEddy e(std::make_unique<LotteryPolicy>(3), /*batch_size=*/1);
  std::vector<Tuple> batch;
  for (int64_t k = 0; k < 64; ++k) batch.push_back(KVTuple(k, k));
  e.eddy->InjectBatch(e.fx.s, batch);
  e.eddy->Drain();
  // Three stages, each: one policy decision (a cache miss) for the run's
  // head, then 63 reuses.
  EXPECT_EQ(e.eddy->decisions(), 3u);
  EXPECT_EQ(e.eddy->decision_cache_misses(), 3u);
  EXPECT_EQ(e.eddy->decision_cache_hits(), 3u * 63u);
  EXPECT_EQ(e.eddy->visits(), 3u * 64u);
  ASSERT_EQ(e.emitted.size(), 64u);
  for (int64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(e.emitted[static_cast<size_t>(k)], k);  // Input order.
  }
}

TEST(EddyRunTest, SingleInjectsWithoutReuseSpanDrawPerTuple) {
  // 64 single injections drained together: with batch_size 1 there is no
  // reuse span, so each tuple is a run of one and draws its own decision
  // at every stage — queued same-stage neighbours are not folded in.
  ThreeFilterEddy e(std::make_unique<LotteryPolicy>(3), /*batch_size=*/1);
  for (int64_t k = 0; k < 64; ++k) e.eddy->Inject(e.fx.s, KVTuple(k, k));
  e.eddy->Drain();
  EXPECT_EQ(e.eddy->decisions(), 3u * 64u);
  EXPECT_EQ(e.eddy->decision_cache_hits(), 0u);
  EXPECT_EQ(e.eddy->decision_cache_misses(), 0u);
  ASSERT_EQ(e.emitted.size(), 64u);
  for (int64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(e.emitted[static_cast<size_t>(k)], k);
  }
}

TEST(EddyRunTest, BatchSizeKnobBoundsTheRun) {
  // batch_size 16 over 60 queued singles: a decision serves its tuple and
  // up to 15 reuses, so the runs are 16, 16, 16 and 12 long — 4 decisions
  // and 56 hits per stage, the counts per-tuple routing through the same
  // cache records. Each stage's entry keeps 4 reuses.
  ThreeFilterEddy e(std::make_unique<LotteryPolicy>(3), /*batch_size=*/16);
  for (int64_t k = 0; k < 60; ++k) e.eddy->Inject(e.fx.s, KVTuple(k, k));
  e.eddy->Drain();
  EXPECT_EQ(e.eddy->decisions(), 3u * 4u);
  EXPECT_EQ(e.eddy->decision_cache_misses(), 3u * 4u);
  EXPECT_EQ(e.eddy->decision_cache_hits(), 3u * 56u);

  // The leftover budget carries into the next Drain: a 64-tuple batch's
  // first 4 tuples reuse those entries, and the run splits there; the
  // other 60 take one fresh decision per stage sized to the batch.
  std::vector<Tuple> batch;
  for (int64_t k = 60; k < 124; ++k) batch.push_back(KVTuple(k, k));
  e.eddy->InjectBatch(e.fx.s, batch);
  e.eddy->Drain();
  EXPECT_EQ(e.eddy->decisions(), 3u * 5u);
  EXPECT_EQ(e.eddy->decision_cache_misses(), 3u * 5u);
  EXPECT_EQ(e.eddy->decision_cache_hits(), 3u * (56u + 4u + 59u));
  EXPECT_EQ(e.eddy->visits(), 3u * 124u);
  ASSERT_EQ(e.emitted.size(), 124u);
  for (int64_t k = 0; k < 124; ++k) {
    EXPECT_EQ(e.emitted[static_cast<size_t>(k)], k);
  }
}

TEST(EddyRunTest, RunStatisticsMatchPerTupleRouting) {
  // Under a fixed policy a batch and single injections take the same path
  // per tuple, so every per-run count must add up to the per-tuple ones;
  // each per-tuple decision becomes either a run decision or a reuse.
  auto run = [](bool batched) {
    SingleSourceFixture fx;
    auto eddy = std::make_unique<Eddy>(
        &fx.layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
    auto bind = [&](ExprPtr e) { return fx.BindOrDie(std::move(e)); };
    eddy->AddOperator(std::make_shared<FilterOp>(
        "k%3", bind(Expr::Binary(
                   BinaryOp::kNe,
                   Expr::Binary(BinaryOp::kMod, Expr::Column("k"),
                                Expr::Literal(Value::Int64(3))),
                   Expr::Literal(Value::Int64(0)))),
        fx.SourceSet()));
    eddy->AddOperator(std::make_shared<FilterOp>(
        "k<50", bind(Expr::Binary(BinaryOp::kLt, Expr::Column("k"),
                                  Expr::Literal(Value::Int64(50)))),
        fx.SourceSet()));
    std::vector<Tuple> batch;
    for (int64_t k = 0; k < 64; ++k) batch.push_back(KVTuple(k, k));
    if (batched) {
      eddy->InjectBatch(fx.s, batch);
      eddy->Drain();
    } else {
      for (const Tuple& t : batch) {
        eddy->Inject(fx.s, t);
        eddy->Drain();
      }
    }
    return eddy;
  };
  auto single = run(false);
  auto batched = run(true);
  EXPECT_EQ(batched->visits(), single->visits());
  EXPECT_EQ(batched->emitted(), single->emitted());
  EXPECT_EQ(batched->decisions() + batched->decision_cache_hits(),
            single->decisions());
  ASSERT_EQ(batched->op_stats().size(), single->op_stats().size());
  for (size_t i = 0; i < single->op_stats().size(); ++i) {
    const EddyOpStats& a = batched->op_stats()[i];
    const EddyOpStats& b = single->op_stats()[i];
    EXPECT_EQ(a.routed, b.routed) << i;
    EXPECT_EQ(a.passed, b.passed) << i;
    EXPECT_EQ(a.produced, b.produced) << i;
  }
}

#ifndef TCQ_METRICS_DISABLED
TEST(EddyRunTest, SampledTupleInsideBatchTracesLikeAlone) {
  // Every tuple is sampled; a fixed policy gives each tuple the same path
  // whether it routes inside a batch or alone, so each trace must list
  // the same hops and end on the same [emit]/[discard] marker.
  struct Hop {
    std::string op;
    bool passed;
    TraceDecision decision;
  };
  auto trace = [](bool batched) {
    Tracer& tr = Tracer::Global();
    tr.Enable(/*sample_every=*/1);
    tr.ResetForTest();
    SingleSourceFixture fx;
    Eddy eddy(&fx.layout,
              std::make_unique<FixedPolicy>(std::vector<size_t>{}));
    eddy.AddOperator(std::make_shared<FilterOp>(
        "k>=2",
        fx.BindOrDie(Expr::Binary(BinaryOp::kGe, Expr::Column("k"),
                                  Expr::Literal(Value::Int64(2)))),
        fx.SourceSet()));
    eddy.AddOperator(std::make_shared<FilterOp>(
        "even",
        fx.BindOrDie(Expr::Binary(
            BinaryOp::kEq,
            Expr::Binary(BinaryOp::kMod, Expr::Column("k"),
                         Expr::Literal(Value::Int64(2))),
            Expr::Literal(Value::Int64(0)))),
        fx.SourceSet()));
    eddy.SetSink([](RoutedTuple&&) {});
    std::vector<Tuple> batch;
    for (int64_t k = 0; k < 8; ++k) batch.push_back(KVTuple(k, k));
    if (batched) {
      eddy.InjectBatch(fx.s, batch);
      eddy.Drain();
    } else {
      for (const Tuple& t : batch) {
        eddy.Inject(fx.s, t);
        eddy.Drain();
      }
    }
    std::map<int64_t, std::vector<Hop>> by_tuple;
    for (const TraceEvent& ev : tr.Drain()) {
      by_tuple[ev.tuple_seq].push_back({ev.op, ev.passed, ev.decision});
    }
    tr.Disable();
    tr.ResetForTest();
    return by_tuple;
  };
  const auto alone = trace(false);
  const auto batched = trace(true);
  ASSERT_EQ(alone.size(), 8u);
  ASSERT_EQ(batched.size(), alone.size());
  for (const auto& [seq, hops] : alone) {
    const auto it = batched.find(seq);
    ASSERT_NE(it, batched.end()) << seq;
    ASSERT_EQ(it->second.size(), hops.size()) << seq;
    for (size_t h = 0; h < hops.size(); ++h) {
      EXPECT_EQ(it->second[h].op, hops[h].op) << seq;
      EXPECT_EQ(it->second[h].passed, hops[h].passed) << seq;
    }
    const std::string& terminal = hops.back().op;
    EXPECT_TRUE(terminal == "[emit]" || terminal == "[discard]") << seq;
  }
  // Alone, every hop is a policy draw; in the batch only the run's head
  // (the first tuple, seq 1) draws and the others reuse its decision.
  EXPECT_EQ(alone.at(4).front().decision, TraceDecision::kPolicy);
  EXPECT_EQ(batched.at(1).front().decision, TraceDecision::kPolicy);
  EXPECT_EQ(batched.at(4).front().decision, TraceDecision::kCached);
}
#endif  // TCQ_METRICS_DISABLED

TEST(EddyTest, DynamicOperatorAddition) {
  SingleSourceFixture fx;
  Eddy eddy(&fx.layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  ExprPtr p1 = fx.BindOrDie(Expr::Binary(
      BinaryOp::kGe, Expr::Column("k"), Expr::Literal(Value::Int64(0))));
  eddy.AddOperator(std::make_shared<FilterOp>("p1", p1, fx.SourceSet()));

  size_t emitted = 0;
  eddy.SetSink([&](RoutedTuple&&) { ++emitted; });
  for (int64_t k = 0; k < 10; ++k) eddy.Inject(fx.s, KVTuple(k, k));
  eddy.Drain();
  EXPECT_EQ(emitted, 10u);

  // Fold in a second, selective filter; subsequent tuples face both.
  ExprPtr p2 = fx.BindOrDie(Expr::Binary(
      BinaryOp::kLt, Expr::Column("k"), Expr::Literal(Value::Int64(5))));
  eddy.AddOperator(std::make_shared<FilterOp>("p2", p2, fx.SourceSet()));
  emitted = 0;
  for (int64_t k = 0; k < 10; ++k) eddy.Inject(fx.s, KVTuple(k, k));
  eddy.Drain();
  EXPECT_EQ(emitted, 5u);
}

// Property: under any policy and knob setting, no tuples are lost or
// duplicated by the routing machinery itself.
struct KnobParam {
  const char* policy;
  size_t batch;
  size_t seq;
};

class EddyRoutingPropertyTest : public ::testing::TestWithParam<KnobParam> {};

TEST_P(EddyRoutingPropertyTest, NoLossNoDuplication) {
  const KnobParam param = GetParam();
  SingleSourceFixture fx;
  Eddy::Options opts;
  opts.batch_size = param.batch;
  opts.fixed_sequence_length = param.seq;
  Eddy eddy(&fx.layout, MakePolicy(param.policy, 12345), opts);
  ExprPtr truth = Expr::Literal(Value::Bool(true));
  for (int i = 0; i < 5; ++i) {
    eddy.AddOperator(std::make_shared<FilterOp>("f" + std::to_string(i),
                                                truth, fx.SourceSet()));
  }
  std::vector<int64_t> seen;
  eddy.SetSink(
      [&](RoutedTuple&& rt) { seen.push_back(rt.tuple.cell(0).int64_value()); });
  const int64_t n = 777;
  for (int64_t k = 0; k < n; ++k) eddy.Inject(fx.s, KVTuple(k, k));
  eddy.Drain();
  ASSERT_EQ(seen.size(), static_cast<size_t>(n));
  std::sort(seen.begin(), seen.end());
  for (int64_t k = 0; k < n; ++k) EXPECT_EQ(seen[static_cast<size_t>(k)], k);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyKnobMatrix, EddyRoutingPropertyTest,
    ::testing::Values(KnobParam{"fixed", 1, 1}, KnobParam{"random", 1, 1},
                      KnobParam{"lottery", 1, 1}, KnobParam{"lottery", 16, 1},
                      KnobParam{"lottery", 1, 3}, KnobParam{"lottery", 16, 3},
                      KnobParam{"random", 8, 2}, KnobParam{"fixed", 4, 5}));

}  // namespace
}  // namespace tcq
