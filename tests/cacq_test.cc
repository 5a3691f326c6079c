#include "cacq/engine.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace tcq {
namespace {

SchemaPtr StockSchema() {
  return Schema::Make({{"timestamp", ValueType::kInt64, ""},
                       {"stockSymbol", ValueType::kString, ""},
                       {"closingPrice", ValueType::kDouble, ""}});
}

Tuple Stock(int64_t ts, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(ts), Value::String(sym), Value::Double(price)}, ts);
}

ExprPtr SymEq(const std::string& sym) {
  return Expr::Binary(BinaryOp::kEq, Expr::Column("stockSymbol"),
                      Expr::Literal(Value::String(sym)));
}

ExprPtr PriceGt(double p) {
  return Expr::Binary(BinaryOp::kGt, Expr::Column("closingPrice"),
                      Expr::Literal(Value::Double(p)));
}

TEST(CacqEngineTest, TwoSelectionQueriesShareOneEddy) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());

  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  CacqQuerySpec q0;
  q0.sources = {"Stocks"};
  q0.where = SymEq("MSFT");
  CacqQuerySpec q1;
  q1.sources = {"Stocks"};
  q1.where = Expr::Binary(BinaryOp::kAnd, SymEq("MSFT"), PriceGt(50));
  ASSERT_TRUE(engine.AddQuery(q0).ok());
  ASSERT_TRUE(engine.AddQuery(q1).ok());

  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "MSFT", 45)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(2, "MSFT", 55)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(3, "IBM", 60)).ok());

  EXPECT_EQ(hits[0], 2);  // Both MSFT rows.
  EXPECT_EQ(hits[1], 1);  // Only the >50 row.
}

TEST(CacqEngineTest, QueryWithNoPredicateSeesEverything) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  CacqQuerySpec q;
  q.sources = {"Stocks"};
  ASSERT_TRUE(engine.AddQuery(q).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "A", 1)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(2, "B", 2)).ok());
  EXPECT_EQ(hits, 2);
}

TEST(CacqEngineTest, NoQueriesNoWork) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "A", 1)).ok());
  EXPECT_EQ(engine.eddy().visits(), 0u);
}

TEST(CacqEngineTest, DynamicAddAndRemove) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  CacqQuerySpec spec;
  spec.sources = {"Stocks"};
  spec.where = SymEq("MSFT");
  auto q0 = engine.AddQuery(spec);
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "MSFT", 1)).ok());
  EXPECT_EQ(hits[*q0], 1);

  // A second query folds in mid-stream; the first keeps matching.
  spec.where = PriceGt(10);
  auto q1 = engine.AddQuery(spec);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(2, "MSFT", 20)).ok());
  EXPECT_EQ(hits[*q0], 2);
  EXPECT_EQ(hits[*q1], 1);

  // Remove the first; only the second fires afterwards.
  ASSERT_TRUE(engine.RemoveQuery(*q0).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(3, "MSFT", 30)).ok());
  EXPECT_EQ(hits[*q0], 2);
  EXPECT_EQ(hits[*q1], 2);
  EXPECT_EQ(engine.num_active_queries(), 1u);
}

TEST(CacqEngineTest, RemoveUnknownQueryFails) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("S", StockSchema()).ok());
  EXPECT_FALSE(engine.RemoveQuery(5).ok());
}

TEST(CacqEngineTest, ResidualPredicates) {
  // OR predicates cannot enter grouped filters; they run as residuals.
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  CacqQuerySpec q;
  q.sources = {"Stocks"};
  q.where = Expr::Binary(BinaryOp::kOr, SymEq("MSFT"), SymEq("IBM"));
  ASSERT_TRUE(engine.AddQuery(q).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "MSFT", 1)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(2, "IBM", 1)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(3, "ORCL", 1)).ok());
  EXPECT_EQ(hits, 2);
}

TEST(CacqEngineTest, SharedJoinAcrossQueries) {
  // Two join queries with different selections share the SteM pair.
  CacqEngine engine;
  SchemaPtr ab =
      Schema::Make({{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  ASSERT_TRUE(engine.AddStream("A", ab).ok());
  ASSERT_TRUE(engine.AddStream("B", ab).ok());

  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  auto join = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                           Expr::Column("B.k"));
  CacqQuerySpec q0;  // All joins.
  q0.sources = {"A", "B"};
  q0.where = join;
  CacqQuerySpec q1;  // Joins with A.v > 10.
  q1.sources = {"A", "B"};
  q1.where = Expr::Binary(
      BinaryOp::kAnd, join,
      Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                   Expr::Literal(Value::Int64(10))));
  ASSERT_TRUE(engine.AddQuery(q0).ok());
  ASSERT_TRUE(engine.AddQuery(q1).ok());

  auto row = [](int64_t k, int64_t v, Timestamp ts) {
    return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
  };
  ASSERT_TRUE(engine.Inject("A", row(1, 5, 1)).ok());
  ASSERT_TRUE(engine.Inject("B", row(1, 0, 2)).ok());   // Join: q0 only.
  ASSERT_TRUE(engine.Inject("A", row(2, 50, 3)).ok());
  ASSERT_TRUE(engine.Inject("B", row(2, 0, 4)).ok());   // Join: q0 and q1.

  EXPECT_EQ(hits[0], 2);
  EXPECT_EQ(hits[1], 1);
}

TEST(CacqEngineTest, SingleStreamQueriesAlongsideJoinQueries) {
  CacqEngine engine;
  SchemaPtr ab =
      Schema::Make({{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  ASSERT_TRUE(engine.AddStream("A", ab).ok());
  ASSERT_TRUE(engine.AddStream("B", ab).ok());

  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  CacqQuerySpec sel;  // Selection on A only.
  sel.sources = {"A"};
  sel.where = Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                           Expr::Literal(Value::Int64(10)));
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  auto sq = engine.AddQuery(sel);
  auto jq = engine.AddQuery(join);
  ASSERT_TRUE(sq.ok() && jq.ok());

  auto row = [](int64_t k, int64_t v, Timestamp ts) {
    return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
  };
  ASSERT_TRUE(engine.Inject("A", row(1, 20, 1)).ok());  // sel hit.
  ASSERT_TRUE(engine.Inject("B", row(1, 0, 2)).ok());   // join hit.
  ASSERT_TRUE(engine.Inject("A", row(2, 5, 3)).ok());   // Neither (v<=10)...
  ASSERT_TRUE(engine.Inject("B", row(2, 0, 4)).ok());   // ...but join hits.

  EXPECT_EQ(hits[*sq], 1);
  EXPECT_EQ(hits[*jq], 2);
}

// Per-query delivery sequences: query -> rows in delivery order.
using Deliveries = std::map<QueryId, std::vector<std::string>>;

TEST(CacqEngineTest, FilterBatchDeliversEachQueryInInputOrder) {
  // A batch routes as runs; each query must still receive its rows in the
  // batch's input order — the exact sequence single-tuple injection gives.
  auto run = [](bool batched) {
    CacqEngine engine;
    EXPECT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
    Deliveries out;
    engine.SetSink([&](QueryId q, const Tuple& t) {
      out[q].push_back(t.ToString());
    });
    const char* syms[] = {"MSFT", "IBM", "ORCL"};
    for (int i = 0; i < 12; ++i) {
      CacqQuerySpec q;
      q.sources = {"Stocks"};
      q.where = Expr::Binary(BinaryOp::kAnd, SymEq(syms[i % 3]),
                             PriceGt(10.0 * (i % 4)));
      EXPECT_TRUE(engine.AddQuery(q).ok());
    }
    Rng rng(21);
    std::vector<Tuple> batch;
    for (int64_t ts = 1; ts <= 200; ++ts) {
      batch.push_back(Stock(ts, syms[rng.NextBounded(3)],
                            static_cast<double>(rng.NextBounded(50))));
      if (batch.size() == 64 || ts == 200) {
        if (batched) {
          EXPECT_TRUE(engine.InjectBatch("Stocks", batch).ok());
        } else {
          for (const Tuple& t : batch) {
            EXPECT_TRUE(engine.Inject("Stocks", t).ok());
          }
        }
        batch.clear();
      }
    }
    return out;
  };
  const Deliveries single = run(false);
  const Deliveries batched = run(true);
  ASSERT_EQ(single.size(), 12u);
  EXPECT_EQ(batched, single);  // Ordered comparison per query.
}

TEST(CacqEngineTest, JoinBatchDeliversLikeSingleInjection) {
  // Two-source SteM join (plus a selection on each side): alternating
  // same-source batches must deliver every query's rows in the order
  // single-tuple injection does.
  auto run = [](bool batched) {
    CacqEngine engine;
    SchemaPtr ab = Schema::Make(
        {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
    EXPECT_TRUE(engine.AddStream("A", ab).ok());
    EXPECT_TRUE(engine.AddStream("B", ab).ok());
    Deliveries out;
    engine.SetSink([&](QueryId q, const Tuple& t) {
      out[q].push_back(t.ToString());
    });
    CacqQuerySpec join;
    join.sources = {"A", "B"};
    join.where = Expr::Binary(
        BinaryOp::kAnd,
        Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"), Expr::Column("B.k")),
        Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                     Expr::Literal(Value::Int64(3))));
    CacqQuerySpec sel_a;
    sel_a.sources = {"A"};
    sel_a.where = Expr::Binary(BinaryOp::kLt, Expr::Column("A.v"),
                               Expr::Literal(Value::Int64(6)));
    CacqQuerySpec sel_b;
    sel_b.sources = {"B"};
    sel_b.where = Expr::Binary(BinaryOp::kGt, Expr::Column("B.v"),
                               Expr::Literal(Value::Int64(2)));
    EXPECT_TRUE(engine.AddQuery(join).ok());
    EXPECT_TRUE(engine.AddQuery(sel_a).ok());
    EXPECT_TRUE(engine.AddQuery(sel_b).ok());
    Rng rng(33);
    Timestamp ts = 0;
    for (int round = 0; round < 8; ++round) {
      const std::string stream = round % 2 == 0 ? "A" : "B";
      std::vector<Tuple> batch;
      for (int i = 0; i < 24; ++i) {
        batch.push_back(Tuple::Make(
            {Value::Int64(static_cast<int64_t>(rng.NextBounded(6))),
             Value::Int64(static_cast<int64_t>(rng.NextBounded(10)))},
            ++ts));
      }
      if (batched) {
        EXPECT_TRUE(engine.InjectBatch(stream, batch).ok());
      } else {
        for (const Tuple& t : batch) {
          EXPECT_TRUE(engine.Inject(stream, t).ok());
        }
      }
    }
    return out;
  };
  const Deliveries single = run(false);
  const Deliveries batched = run(true);
  ASSERT_EQ(single.size(), 3u);
  EXPECT_FALSE(single.at(0).empty());  // The join produced matches.
  EXPECT_EQ(batched, single);
}

TEST(CacqEngineTest, EvictBeforeLimitsJoinState) {
  CacqEngine engine;
  SchemaPtr ab =
      Schema::Make({{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  ASSERT_TRUE(engine.AddStream("A", ab).ok());
  ASSERT_TRUE(engine.AddStream("B", ab).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  ASSERT_TRUE(engine.AddQuery(join).ok());

  auto row = [](int64_t k, Timestamp ts) {
    return Tuple::Make({Value::Int64(k), Value::Int64(0)}, ts);
  };
  ASSERT_TRUE(engine.Inject("A", row(1, 1)).ok());
  engine.EvictBefore(10);  // A's tuple leaves the window.
  ASSERT_TRUE(engine.Inject("B", row(1, 11)).ok());
  EXPECT_EQ(hits, 0);
  ASSERT_TRUE(engine.Inject("A", row(1, 12)).ok());
  ASSERT_TRUE(engine.Inject("B", row(1, 13)).ok());
  EXPECT_EQ(hits, 2);  // B(11)⋈A(12)? No: A(12) probes B-stem -> B(11),
                       // and B(13) probes A-stem -> A(12).
}

// Stable symbol names for the property test.
std::string StockTickerSourceSymbolForTest(uint64_t i) {
  const char* symbols[] = {"MSFT", "IBM", "ORCL", "AAPL"};
  return symbols[i % 4];
}

// Property: shared execution of N random selection queries produces
// exactly what N independent evaluations produce.
TEST(CacqEngineTest, SharedJoinCountsStemMatches) {
  CacqEngine engine;
  SchemaPtr ab =
      Schema::Make({{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  ASSERT_TRUE(engine.AddStream("A", ab).ok());
  ASSERT_TRUE(engine.AddStream("B", ab).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  CacqQuerySpec q;
  q.sources = {"A", "B"};
  q.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                         Expr::Column("B.k"));
  ASSERT_TRUE(engine.AddQuery(q).ok());
  auto row = [](int64_t k, Timestamp ts) {
    return Tuple::Make({Value::Int64(k), Value::Int64(0)}, ts);
  };
  ASSERT_TRUE(engine.Inject("A", row(1, 1)).ok());
  ASSERT_TRUE(engine.Inject("A", row(2, 2)).ok());
  ASSERT_TRUE(engine.Inject("B", row(1, 3)).ok());  // One join result.
  ASSERT_TRUE(engine.Inject("B", row(3, 4)).ok());  // Probes, no match.
  ASSERT_EQ(hits, 1);
  uint64_t matches = 0, probes = 0;
  for (const CacqEngine::StemSnapshot& s : engine.stem_snapshots()) {
    matches += s.matches;
    probes += s.probes;
  }
  EXPECT_EQ(matches, 1u);
  EXPECT_GT(probes, matches);
}

TEST(CacqEngineTest, RemovedSlotsAreReusedLowestFirst) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  CacqQuerySpec spec;
  spec.sources = {"Stocks"};
  spec.where = SymEq("MSFT");
  std::vector<QueryId> ids;
  for (int i = 0; i < 4; ++i) {
    auto q = engine.AddQuery(spec);
    ASSERT_TRUE(q.ok());
    ids.push_back(*q);
  }
  EXPECT_EQ(ids, (std::vector<QueryId>{0, 1, 2, 3}));
  ASSERT_TRUE(engine.RemoveQuery(2).ok());
  ASSERT_TRUE(engine.RemoveQuery(1).ok());
  EXPECT_EQ(*engine.AddQuery(spec), 1u);
  EXPECT_EQ(*engine.AddQuery(spec), 2u);
  EXPECT_EQ(*engine.AddQuery(spec), 4u);
  EXPECT_EQ(engine.num_query_slots(), 5u);
  // Explicit placement: a live slot is refused, a slot past the table
  // leaves the gap free for AddQuery.
  EXPECT_EQ(engine.AddQueryAt(3, spec).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(engine.AddQueryAt(7, spec).ok());
  EXPECT_EQ(*engine.AddQuery(spec), 5u);
  EXPECT_EQ(engine.num_active_queries(), 7u);
}

TEST(CacqEngineTest, ReusedSlotStartsWithoutTheOldQuerysJoinState) {
  CacqEngine engine;
  SchemaPtr ab =
      Schema::Make({{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  ASSERT_TRUE(engine.AddStream("A", ab).ok());
  ASSERT_TRUE(engine.AddStream("B", ab).ok());
  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  auto row = [](int64_t k, Timestamp ts) {
    return Tuple::Make({Value::Int64(k), Value::Int64(0)}, ts);
  };
  auto old_q = engine.AddQuery(join);
  ASSERT_TRUE(old_q.ok());
  ASSERT_TRUE(engine.Inject("A", row(1, 1)).ok());  // Stored with old_q's bit.
  ASSERT_TRUE(engine.RemoveQuery(*old_q).ok());
  auto new_q = engine.AddQuery(join);
  ASSERT_TRUE(new_q.ok());
  ASSERT_EQ(*new_q, *old_q);  // Same slot...
  ASSERT_TRUE(engine.Inject("B", row(1, 2)).ok());
  EXPECT_EQ(hits[*new_q], 0);  // ...but no history from before it arrived.
  ASSERT_TRUE(engine.Inject("A", row(1, 3)).ok());
  EXPECT_EQ(hits[*new_q], 1);  // Joins the B row stored after it arrived.
}

/// 10k submit/cancel cycles over 10 live queries: every width the engine
/// sizes per tuple stays at the peak live count, and each injected tuple
/// reaches exactly the live queries whose predicate it satisfies.
TEST(CacqEngineTest, ChurnKeepsWidthsAtPeakLiveCount) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });
  constexpr size_t kLive = 10;
  constexpr int kCycles = 10000;
  const std::vector<std::string> symbols = {"MSFT", "IBM", "ORCL"};
  struct Live {
    QueryId id;
    std::string sym;
    double price;
  };
  auto spec_for = [](const Live& l) {
    CacqQuerySpec spec;
    spec.sources = {"Stocks"};
    spec.where = Expr::Binary(BinaryOp::kAnd, SymEq(l.sym), PriceGt(l.price));
    return spec;
  };
  std::deque<Live> live;
  Rng rng(11);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    if (live.size() == kLive) {
      ASSERT_TRUE(engine.RemoveQuery(live.front().id).ok());
      live.pop_front();
    }
    Live l{0, symbols[rng.NextBounded(symbols.size())],
           static_cast<double>(rng.NextBounded(100))};
    auto q = engine.AddQuery(spec_for(l));
    ASSERT_TRUE(q.ok());
    l.id = *q;
    live.push_back(l);

    const std::string sym = symbols[rng.NextBounded(symbols.size())];
    const double price = static_cast<double>(rng.NextBounded(100));
    hits.clear();
    ASSERT_TRUE(engine.Inject("Stocks", Stock(cycle + 1, sym, price)).ok());
    for (const Live& x : live) {
      const int want = (x.sym == sym && price > x.price) ? 1 : 0;
      ASSERT_EQ(hits[x.id], want) << "cycle " << cycle << " slot " << x.id;
    }
    ASSERT_EQ(hits.size(), live.size()) << "a removed slot emitted";
  }
  EXPECT_LE(engine.num_query_slots(), kLive);
  size_t filters = 0;
  for (size_t i = 0; i < engine.eddy().num_operators(); ++i) {
    const auto* gf = dynamic_cast<const GroupedFilterOp*>(engine.eddy().op(i).get());
    if (gf == nullptr) continue;
    ++filters;
    EXPECT_LE(gf->filter().num_queries(), kLive);
  }
  EXPECT_EQ(filters, 2u);  // stockSymbol and closingPrice.
}

class CacqSharingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacqSharingPropertyTest, MatchesIndependentEvaluation) {
  Rng rng(GetParam());
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());

  const size_t num_queries = 1 + rng.NextBounded(40);
  std::vector<ExprPtr> predicates;
  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  SchemaPtr schema = StockSchema();
  for (size_t i = 0; i < num_queries; ++i) {
    // Random conjunction of a symbol equality and/or price range.
    std::vector<ExprPtr> conj;
    if (rng.NextBool(0.6)) {
      conj.push_back(
          SymEq(StockTickerSourceSymbolForTest(rng.NextBounded(4))));
    }
    if (rng.NextBool(0.7)) {
      conj.push_back(PriceGt(static_cast<double>(rng.NextInt(20, 80))));
    }
    if (rng.NextBool(0.3)) {
      conj.push_back(Expr::Binary(BinaryOp::kLt, Expr::Column("closingPrice"),
                                  Expr::Literal(Value::Double(
                                      static_cast<double>(rng.NextInt(40, 120))))));
    }
    ExprPtr where = conj.empty() ? nullptr : MakeConjunction(conj);
    predicates.push_back(where);
    CacqQuerySpec spec;
    spec.sources = {"Stocks"};
    spec.where = where;
    ASSERT_TRUE(engine.AddQuery(spec).ok());
  }

  std::vector<int> expected(num_queries, 0);
  std::vector<ExprPtr> bound(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    if (predicates[i] != nullptr) bound[i] = *predicates[i]->Bind(*schema);
  }

  const char* symbols[] = {"MSFT", "IBM", "ORCL", "AAPL"};
  for (int i = 0; i < 500; ++i) {
    Tuple t = Stock(i + 1, symbols[rng.NextBounded(4)],
                    static_cast<double>(rng.NextInt(0, 130)));
    for (size_t q = 0; q < num_queries; ++q) {
      if (bound[q] == nullptr) {
        ++expected[q];
        continue;
      }
      const Value keep = bound[q]->Eval(t);
      if (!keep.is_null() && keep.bool_value()) ++expected[q];
    }
    ASSERT_TRUE(engine.Inject("Stocks", t).ok());
  }
  for (size_t q = 0; q < num_queries; ++q) {
    ASSERT_EQ(hits[static_cast<QueryId>(q)], expected[q]) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacqSharingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace tcq
