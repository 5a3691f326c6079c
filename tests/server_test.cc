#include "core/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ingress/sources.h"
#include "telemetry/metrics.h"

namespace tcq {
namespace {

SchemaPtr StockSchema() { return StockTickerSource::MakeSchema(); }

Tuple Stock(int64_t day, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(day), Value::String(sym), Value::Double(price)}, day);
}

/// A deterministic price series for MSFT: price(day) = 40 + day.
/// Day d has closing price 40 + d, so price > 50 from day 11 on.
void FeedMsft(Server* server, int64_t days) {
  for (int64_t d = 1; d <= days; ++d) {
    ASSERT_TRUE(server->Push("ClosingStockPrices",
                             Stock(d, "MSFT", 40.0 + d))
                    .ok());
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_
                    .DefineStream("ClosingStockPrices", StockSchema(),
                                  /*timestamp_field=*/0)
                    .ok());
  }
  Server server_;
};

// ---- The four §4.1.1 example queries, end to end. -------------------------

TEST_F(ServerTest, PaperExample1SnapshotQuery) {
  // "closing prices for MSFT on the first five days of trading".
  auto q = server_.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 10);
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);  // Snapshot: exactly one result set.
  ASSERT_EQ(sets[0].rows.size(), 5u);
  for (int64_t d = 1; d <= 5; ++d) {
    EXPECT_DOUBLE_EQ(sets[0].rows[static_cast<size_t>(d - 1)]
                         .cell(0)
                         .double_value(),
                     40.0 + d);
    EXPECT_EQ(sets[0].rows[static_cast<size_t>(d - 1)].cell(1).int64_value(),
              d);
  }
  // No further sets ever.
  FeedMsft(&server_, 0);
  EXPECT_FALSE(server_.Poll(*q).has_value());
}

TEST_F(ServerTest, PaperExample2LandmarkQuery) {
  // "all days after the hundredth trading day with price > 50, standing
  //  for 1000 days" — scaled down: after day 10, standing to day 30.
  auto q = server_.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' and closingPrice > 50.00 "
      "for (t = 10; t <= 30; t++) { WindowIs(ClosingStockPrices, 10, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 31);  // One day past the last window (punctuation).
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 21u);  // One per t in [10, 30].
  // Window [10, 10]: price 50 is not > 50 — empty.
  EXPECT_TRUE(sets[0].rows.empty());
  // Window [10, 30]: days 11..30 qualify.
  EXPECT_EQ(sets[20].rows.size(), 20u);
  // The landmark keeps *all* qualifying days, not a sliding suffix.
  EXPECT_EQ(sets[20].rows.front().cell(1).int64_value(), 11);
}

TEST_F(ServerTest, PaperExample3SlidingAvg) {
  // "every fifth day, average closing price of the five most recent days".
  auto q = server_.Submit(
      "Select AVG(closingPrice) From ClosingStockPrices "
      "Where stockSymbol = 'MSFT' "
      "for (t = ST; t < ST + 50; t += 5) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  // ST resolves to 1 (no data yet when submitted).
  FeedMsft(&server_, 55);
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 10u);
  // First window [ -3, 1 ] holds only day 1: avg = 41.
  ASSERT_EQ(sets[0].rows.size(), 1u);
  EXPECT_DOUBLE_EQ(sets[0].rows[0].cell(0).double_value(), 41.0);
  // Second window [2, 6]: prices 42..46, avg 44.
  EXPECT_DOUBLE_EQ(sets[1].rows[0].cell(0).double_value(), 44.0);
  // Last window [42, 46]: avg 84+...: prices 82..86 -> 84.
  EXPECT_DOUBLE_EQ(sets[9].rows[0].cell(0).double_value(), 84.0);
}

TEST_F(ServerTest, PaperExample4TemporalBandJoin) {
  // "stocks that closed higher than MSFT on the same day".
  auto q = server_.Submit(
      "Select c2.* FROM ClosingStockPrices as c1, "
      "ClosingStockPrices as c2 "
      "WHERE c1.stockSymbol = 'MSFT' and c2.stockSymbol != 'MSFT' and "
      "c2.closingPrice > c1.closingPrice and "
      "c2.timestamp = c1.timestamp "
      "for (t = ST; t < ST + 5; t++) { "
      "WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  // Each day: MSFT at 50, IBM above at 60, ORCL below at 40. Day 6 is
  // fed as punctuation so the t=5 window (right end 5) can fire.
  for (int64_t d = 1; d <= 6; ++d) {
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "MSFT", 50)).ok());
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "IBM", 60)).ok());
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "ORCL", 40)).ok());
  }
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 5u);
  // Window t covers days [t-4, t]: t days exist, IBM beats MSFT each day.
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i].rows.size(), i + 1) << "window t=" << sets[i].t;
    for (const Tuple& row : sets[i].rows) {
      EXPECT_EQ(row.cell(1).string_value(), "IBM");
      EXPECT_DOUBLE_EQ(row.cell(2).double_value(), 60.0);
    }
  }
}

// ---- Other server behaviours. ------------------------------------------------

TEST_F(ServerTest, StandingFilterUsesCacqPath) {
  auto q1 = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT'");
  auto q2 = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 45");
  ASSERT_TRUE(q1.ok() && q2.ok());
  FeedMsft(&server_, 10);  // Prices 41..50.
  EXPECT_EQ(server_.PollAll(*q1).size(), 10u);  // All MSFT.
  EXPECT_EQ(server_.PollAll(*q2).size(), 5u);   // 46..50.
}

TEST_F(ServerTest, CallbackDelivery) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 45");
  ASSERT_TRUE(q.ok());
  int called = 0;
  ASSERT_TRUE(server_
                  .SetCallback(*q,
                               [&](const ResultSet& rs) {
                                 called += static_cast<int>(rs.rows.size());
                               })
                  .ok());
  FeedMsft(&server_, 10);
  EXPECT_EQ(called, 5);
  EXPECT_FALSE(server_.Poll(*q).has_value());  // Callback consumed them.
}

TEST_F(ServerTest, CancelStopsDelivery) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 0");
  ASSERT_TRUE(q.ok());
  FeedMsft(&server_, 3);
  ASSERT_TRUE(server_.Cancel(*q).ok());
  FeedMsft(&server_, 0);
  ASSERT_TRUE(
      server_.Push("ClosingStockPrices", Stock(4, "MSFT", 44)).ok());
  EXPECT_TRUE(server_.PollAll(*q).empty());
  EXPECT_EQ(server_.num_active_queries(), 0u);
  EXPECT_FALSE(server_.Cancel(*q).ok());
}

TEST_F(ServerTest, LateQuerySeesOnlyNewData) {
  FeedMsft(&server_, 10);
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 0");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(
      server_.Push("ClosingStockPrices", Stock(11, "MSFT", 51)).ok());
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);  // Only the post-registration tuple.
}

TEST_F(ServerTest, WindowedQueryStartsAtSubmissionTime) {
  FeedMsft(&server_, 10);
  // ST should resolve to 11 (watermark + 1).
  auto q = server_.Submit(
      "SELECT AVG(closingPrice) FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (t = ST; t < ST + 2; t++) { "
      "WindowIs(ClosingStockPrices, t, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t d = 11; d <= 13; ++d) {  // Day 13 punctuates window [12,12].
    ASSERT_TRUE(server_.Push("ClosingStockPrices",
                             Stock(d, "MSFT", 40.0 + d))
                    .ok());
  }
  auto sets = server_.PollAll(*q);
  // Windows [11,11] and [12,12]: prices 51, 52.
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_DOUBLE_EQ(sets[0].rows[0].cell(0).double_value(), 51.0);
  EXPECT_DOUBLE_EQ(sets[1].rows[0].cell(0).double_value(), 52.0);
}

TEST_F(ServerTest, TableSnapshotAnswersImmediately) {
  SchemaPtr cschema = Schema::Make({{"symbol", ValueType::kString, ""},
                                    {"sector", ValueType::kString, ""}});
  TupleVector rows;
  rows.push_back(
      Tuple::Make({Value::String("MSFT"), Value::String("tech")}, 0));
  rows.push_back(
      Tuple::Make({Value::String("XOM"), Value::String("energy")}, 0));
  ASSERT_TRUE(server_.DefineTable("Companies", cschema, rows).ok());
  auto q = server_.Submit(
      "SELECT symbol FROM Companies WHERE sector = 'tech'");
  ASSERT_TRUE(q.ok()) << q.status();
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  ASSERT_EQ(sets[0].rows.size(), 1u);
  EXPECT_EQ(sets[0].rows[0].cell(0).string_value(), "MSFT");
}

TEST_F(ServerTest, StreamTableJoin) {
  SchemaPtr cschema = Schema::Make({{"symbol", ValueType::kString, ""},
                                    {"sector", ValueType::kString, ""}});
  TupleVector rows;
  rows.push_back(
      Tuple::Make({Value::String("MSFT"), Value::String("tech")}, 0));
  ASSERT_TRUE(server_.DefineTable("Companies", cschema, rows).ok());
  auto q = server_.Submit(
      "SELECT s.closingPrice, c.sector "
      "FROM ClosingStockPrices as s, Companies as c "
      "WHERE s.stockSymbol = c.symbol "
      "for (t = 1; t <= 3; t++) { WindowIs(s, t, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t d = 1; d <= 4; ++d) {  // Day 4 punctuates window [3,3].
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "MSFT", 50 + d)).ok());
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "XOM", 80)).ok());
  }
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 3u);
  for (const auto& rs : sets) {
    ASSERT_EQ(rs.rows.size(), 1u);  // Only MSFT joins Companies.
    EXPECT_EQ(rs.rows[0].cell(1).string_value(), "tech");
  }
}

TEST_F(ServerTest, GroupByAggregateOverWindows) {
  auto q = server_.Submit(
      "SELECT stockSymbol, COUNT(*) FROM ClosingStockPrices "
      "GROUP BY stockSymbol "
      "for (t = 1; t <= 9; t += 3) { "
      "WindowIs(ClosingStockPrices, t, t + 2); }");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t d = 1; d <= 10; ++d) {  // Day 10 punctuates window [7,9].
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "MSFT", 50)).ok());
    if (d % 3 == 0) {
      ASSERT_TRUE(
          server_.Push("ClosingStockPrices", Stock(d, "IBM", 90)).ok());
    }
  }
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 3u);
  for (const auto& rs : sets) {
    ASSERT_EQ(rs.rows.size(), 2u);
    EXPECT_EQ(rs.rows[0].cell(0).string_value(), "IBM");
    EXPECT_EQ(rs.rows[0].cell(1).int64_value(), 1);
    EXPECT_EQ(rs.rows[1].cell(0).string_value(), "MSFT");
    EXPECT_EQ(rs.rows[1].cell(1).int64_value(), 3);
  }
}

TEST_F(ServerTest, ErrorPaths) {
  EXPECT_FALSE(server_.Push("NoSuchStream", Stock(1, "A", 1)).ok());
  EXPECT_FALSE(server_.Submit("SELECT FROM").ok());
  EXPECT_FALSE(server_.Submit("SELECT x FROM NoSuchStream").ok());
  // Arity mismatch.
  EXPECT_FALSE(
      server_.Push("ClosingStockPrices", Tuple::Make({Value::Int64(1)}, 1))
          .ok());
  // Out-of-order timestamps rejected.
  ASSERT_TRUE(
      server_.Push("ClosingStockPrices", Stock(5, "MSFT", 1)).ok());
  EXPECT_FALSE(
      server_.Push("ClosingStockPrices", Stock(3, "MSFT", 1)).ok());
  // Poll on bogus id.
  EXPECT_FALSE(server_.Poll(42).has_value());
}

TEST_F(ServerTest, PushAllFromGenerator) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT'");
  ASSERT_TRUE(q.ok());
  StockTickerSource::Options opts;
  opts.num_symbols = 4;
  opts.num_days = 25;
  StockTickerSource src(opts);
  ASSERT_TRUE(server_.PushAll("ClosingStockPrices", &src).ok());
  EXPECT_EQ(server_.PollAll(*q).size(), 25u);  // One MSFT row per day.
}

TEST_F(ServerTest, OutputSchemaReflectsSelectList) {
  auto q = server_.Submit(
      "SELECT closingPrice AS px FROM ClosingStockPrices "
      "WHERE closingPrice > 0");
  ASSERT_TRUE(q.ok());
  auto schema = server_.OutputSchema(*q);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->field(0).name, "px");
  EXPECT_EQ((*schema)->field(0).type, ValueType::kDouble);
}

// ---- CACQ egress: one delivery path for the inline engine. ---------------

/// One day of `n` symbols sharing timestamp `day`; symbol i closes at i.
std::vector<Tuple> OneDay(int64_t day, int n) {
  std::vector<Tuple> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(Stock(day, "S" + std::to_string(i), static_cast<double>(i)));
  }
  return batch;
}

TEST_F(ServerTest, OneDayBatchYieldsOneResultSetPerRowInPerQueryOrder) {
  auto all = server_.Submit(
      "SELECT stockSymbol, closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice >= 0");
  auto upper = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 47");
  auto one = server_.Submit(
      "SELECT stockSymbol FROM ClosingStockPrices WHERE stockSymbol = 'S9'");
  ASSERT_TRUE(all.ok() && upper.ok() && one.ok());
  ASSERT_TRUE(server_.PushBatch("ClosingStockPrices", OneDay(3, 64)).ok());

  const auto all_sets = server_.PollAll(*all);
  ASSERT_EQ(all_sets.size(), 64u);
  for (size_t i = 0; i < all_sets.size(); ++i) {
    EXPECT_EQ(all_sets[i].t, 3);
    ASSERT_EQ(all_sets[i].rows.size(), 1u);
    EXPECT_EQ(all_sets[i].rows[0].cell(0).string_value(),
              "S" + std::to_string(i));
    EXPECT_EQ(all_sets[i].rows[0].timestamp(), 3);
  }
  const auto upper_sets = server_.PollAll(*upper);
  ASSERT_EQ(upper_sets.size(), 16u);  // Prices 48..63, in input order.
  for (size_t i = 0; i < upper_sets.size(); ++i) {
    ASSERT_EQ(upper_sets[i].rows.size(), 1u);
    EXPECT_DOUBLE_EQ(upper_sets[i].rows[0].cell(0).double_value(),
                     48.0 + static_cast<double>(i));
  }
  const auto one_sets = server_.PollAll(*one);
  ASSERT_EQ(one_sets.size(), 1u);
  EXPECT_EQ(one_sets[0].rows[0].cell(0).string_value(), "S9");
}

TEST_F(ServerTest, RetractDeliversItsCacqRowsBeforeReturning) {
  auto q = server_.Submit(
      "SELECT stockSymbol, closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 1");
  ASSERT_TRUE(q.ok());
  std::vector<Tuple> seen;
  ASSERT_TRUE(server_
                  .SetCallback(*q,
                               [&](const ResultSet& rs) {
                                 for (const Tuple& r : rs.rows) {
                                   seen.push_back(r);
                                 }
                               })
                  .ok());
  ASSERT_TRUE(server_.PushBatch("ClosingStockPrices", OneDay(1, 4)).ok());
  ASSERT_EQ(seen.size(), 2u);  // S2 and S3.
  ASSERT_TRUE(server_.Retract("ClosingStockPrices", Stock(1, "S3", 3)).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen.back().retraction());
  EXPECT_EQ(seen.back().cell(0).string_value(), "S3");
  EXPECT_EQ(seen.back().timestamp(), 1);
}

TEST_F(ServerTest, ReplayStreamDeliversItsCacqRowsBeforeReturning) {
  for (int64_t d = 1; d <= 3; ++d) {
    ASSERT_TRUE(server_.PushBatch("ClosingStockPrices", OneDay(d, 8)).ok());
  }
  auto q = server_.Submit(
      "SELECT stockSymbol FROM ClosingStockPrices WHERE closingPrice > 5");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(server_.PollAll(*q).empty());  // Registered after the data.
  ASSERT_TRUE(server_.ReplayStream("ClosingStockPrices", 2).ok());
  const auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 4u);  // S6 and S7 on days 2 and 3.
  EXPECT_EQ(sets[0].t, 2);
  EXPECT_EQ(sets[0].rows[0].cell(0).string_value(), "S6");
  EXPECT_EQ(sets[3].t, 3);
  EXPECT_EQ(sets[3].rows[0].cell(0).string_value(), "S7");
}

TEST_F(ServerTest, QueryCancelledBetweenBatchesGetsNothingMore) {
  const std::string sql =
      "SELECT stockSymbol FROM ClosingStockPrices WHERE closingPrice < 10";
  auto gone = server_.Submit(sql);
  auto kept = server_.Submit(sql);
  ASSERT_TRUE(gone.ok() && kept.ok());
  size_t gone_rows = 0;
  ASSERT_TRUE(server_
                  .SetCallback(*gone,
                               [&](const ResultSet& rs) {
                                 gone_rows += rs.rows.size();
                               })
                  .ok());
  ASSERT_TRUE(server_.PushBatch("ClosingStockPrices", OneDay(1, 64)).ok());
  EXPECT_EQ(gone_rows, 10u);
  ASSERT_TRUE(server_.Cancel(*gone).ok());
  ASSERT_TRUE(server_.PushBatch("ClosingStockPrices", OneDay(2, 64)).ok());
  EXPECT_EQ(gone_rows, 10u);
  EXPECT_EQ(server_.PollAll(*kept).size(), 20u);
}

TEST_F(ServerTest, PollSeesTheSameRowsAsACallback) {
  const std::string sql =
      "SELECT closingPrice, stockSymbol FROM ClosingStockPrices "
      "WHERE closingPrice > 20";
  auto called = server_.Submit(sql);
  auto polled = server_.Submit(sql);
  ASSERT_TRUE(called.ok() && polled.ok());
  std::vector<ResultSet> via_callback;
  ASSERT_TRUE(server_
                  .SetCallback(*called,
                               [&](const ResultSet& rs) {
                                 via_callback.push_back(rs);
                               })
                  .ok());
  for (int64_t d = 1; d <= 3; ++d) {
    ASSERT_TRUE(server_.PushBatch("ClosingStockPrices", OneDay(d, 32)).ok());
  }
  ASSERT_TRUE(server_.Retract("ClosingStockPrices", Stock(2, "S25", 25)).ok());
  const auto via_poll = server_.PollAll(*polled);
  ASSERT_EQ(via_poll.size(), via_callback.size());
  ASSERT_EQ(via_poll.size(), 3u * 11u + 1u);
  for (size_t i = 0; i < via_poll.size(); ++i) {
    EXPECT_EQ(via_poll[i].t, via_callback[i].t);
    EXPECT_EQ(via_poll[i].rows, via_callback[i].rows) << "set " << i;
  }
  EXPECT_TRUE(via_poll.back().rows[0].retraction());
}

// ---- Landmark aggregates after history changes (DESIGN.md §15). -----------

/// Runs a landmark SUM beside the same window without the aggregate (the
/// re-execution path, summed here) over days 1..8 at price 10 * day, with
/// `change` applied after day 5. Returns {landmark, re-executed} sums of
/// the windows t = 5, 6, 7.
std::pair<std::vector<double>, std::vector<double>> LandmarkVsReexecution(
    Server* server, const std::function<void()>& change) {
  auto landmark = server->Submit(
      "SELECT SUM(closingPrice) FROM ClosingStockPrices "
      "for (t = 1; true; t++) { WindowIs(ClosingStockPrices, 1, t); }");
  auto rows = server->Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = 1; true; t++) { WindowIs(ClosingStockPrices, 1, t); }");
  EXPECT_TRUE(landmark.ok() && rows.ok());
  auto push = [&](int64_t from, int64_t to) {
    for (int64_t d = from; d <= to; ++d) {
      EXPECT_TRUE(server->Push("ClosingStockPrices",
                               Stock(d, "MSFT", 10.0 * static_cast<double>(d)))
                      .ok());
    }
  };
  push(1, 5);
  change();
  push(6, 8);
  std::pair<std::vector<double>, std::vector<double>> out;
  for (const ResultSet& rs : server->PollAll(*landmark)) {
    if (rs.t >= 5) out.first.push_back(rs.rows.at(0).cell(0).double_value());
  }
  for (const ResultSet& rs : server->PollAll(*rows)) {
    if (rs.t < 5) continue;
    double sum = 0;
    for (const Tuple& r : rs.rows) sum += r.cell(0).double_value();
    out.second.push_back(sum);
  }
  return out;
}

TEST_F(ServerTest, LandmarkAggregateMatchesReexecutionAfterRetract) {
  const auto [landmark, reexecuted] = LandmarkVsReexecution(&server_, [&] {
    ASSERT_TRUE(
        server_.Retract("ClosingStockPrices", Stock(2, "MSFT", 20)).ok());
  });
  EXPECT_EQ(reexecuted, (std::vector<double>{130, 190, 260}));
  EXPECT_EQ(landmark, reexecuted);
}

TEST_F(ServerTest, LandmarkAggregateMatchesReexecutionAfterLateBackfill) {
  ASSERT_TRUE(server_
                  .SetDisorderBound("ClosingStockPrices", 0,
                                    LatePolicy::kIngestLate)
                  .ok());
  const auto [landmark, reexecuted] = LandmarkVsReexecution(&server_, [&] {
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(2, "MSFT", 1000)).ok());
  });
  EXPECT_EQ(reexecuted, (std::vector<double>{1150, 1210, 1280}));
  EXPECT_EQ(landmark, reexecuted);
}

// ---- Query lifecycle: public ids vs engine slots. --------------------------

TEST_F(ServerTest, PublicIdsNeverRepeatAndCancelledIdsAreNotFound) {
  const std::string filter =
      "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 0";
  const std::string windowed =
      "SELECT AVG(closingPrice) FROM ClosingStockPrices "
      "for (t = ST; t < ST + 100; t++) { WindowIs(ClosingStockPrices, t, t); }";
  std::vector<QueryId> live;
  QueryId last = 0;
  bool first = true;
  // Churn both query paths with a small live set: engine slots are reused,
  // public ids keep climbing.
  for (int cycle = 0; cycle < 200; ++cycle) {
    auto q = server_.Submit(cycle % 3 == 0 ? windowed : filter);
    ASSERT_TRUE(q.ok()) << q.status();
    if (!first) EXPECT_GT(*q, last);
    first = false;
    last = *q;
    live.push_back(*q);
    if (live.size() > 4) {
      const QueryId gone = live.front();
      live.erase(live.begin());
      ASSERT_TRUE(server_.Cancel(gone).ok());
      EXPECT_EQ(server_.Cancel(gone).code(), StatusCode::kNotFound);
      EXPECT_EQ(server_.SetCallback(gone, [](const ResultSet&) {}).code(),
                StatusCode::kNotFound);
      EXPECT_FALSE(server_.Poll(gone).has_value());
      EXPECT_TRUE(server_.PollAll(gone).empty());
      // Only the output schema outlives the query.
      EXPECT_TRUE(server_.OutputSchema(gone).ok());
    }
  }
  EXPECT_EQ(server_.num_active_queries(), live.size());
  EXPECT_EQ(server_.Cancel(last + 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(server_.OutputSchema(last + 1).status().code(),
            StatusCode::kNotFound);

  // Live queries still answer; the cancelled ones got nothing more.
  FeedMsft(&server_, 3);
  size_t delivering = 0;
  for (QueryId q : live) {
    if (!server_.PollAll(q).empty()) ++delivering;
  }
  EXPECT_EQ(delivering, live.size());
  const std::string snapshot = server_.SnapshotMetrics();
  EXPECT_EQ(snapshot.find("\"" + std::to_string(live.front() - 1) + "\":{"),
            std::string::npos)
      << "cancelled queries must not appear in the snapshot";
#ifndef TCQ_METRICS_DISABLED
  EXPECT_NE(snapshot.find("\"tcq.server.cancelled_queries\""),
            std::string::npos);
#endif
}

TEST_F(ServerTest, CancelledWindowedQueryIsNoLongerAdvanced) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = ST; t < ST + 100; t++) { WindowIs(ClosingStockPrices, t, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 3);  // Windows [1,1] and [2,2] fire.
  EXPECT_EQ(server_.PollAll(*q).size(), 2u);
  ASSERT_TRUE(server_.Cancel(*q).ok());
  ASSERT_TRUE(
      server_.Push("ClosingStockPrices", Stock(4, "MSFT", 44)).ok());
  EXPECT_TRUE(server_.PollAll(*q).empty());
}

// ---- Bad input becomes a Status, never a hang or a throw. -----------------

TEST_F(ServerTest, ForLoopThatNeverAdvancesIsRejectedAndPushReturns) {
  const char* const kStuck[] = {
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = ST; true; t += 0) { WindowIs(ClosingStockPrices, t, t); }",
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = ST; true; t -= 1) { WindowIs(ClosingStockPrices, t, t); }",
      // The loop variable never moves: the same window fires forever.
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = ST; t > 0; t += 0) { WindowIs(ClosingStockPrices, t, t); }",
      // Walks backwards with a condition that never ends the loop.
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = ST; t <= ST; t -= 1) { WindowIs(ClosingStockPrices, t, t); }",
      // The loop runs forever but the window never moves forward.
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = ST; t > 0; t++) { WindowIs(ClosingStockPrices, 1, 2); }",
  };
  for (const char* sql : kStuck) {
    auto q = server_.Submit(sql);
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // Bounded reverse and forward loops stay legal.
  auto reverse = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = ST + 4; t >= ST; t -= 2) { WindowIs(ClosingStockPrices, t, t); "
      "}");
  EXPECT_TRUE(reverse.ok()) << reverse.status();
  auto standing = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = ST; t > 0; t++) { WindowIs(ClosingStockPrices, 1, t); }");
  EXPECT_TRUE(standing.ok()) << standing.status();
  // Before the fix, the first query was accepted and this push fired its
  // window forever while holding the server lock.
  std::vector<Tuple> batch;
  for (int64_t d = 1; d <= 8; ++d) batch.push_back(Stock(d, "MSFT", 40.0 + d));
  EXPECT_TRUE(server_.PushBatch("ClosingStockPrices", std::move(batch)).ok());
  EXPECT_EQ(server_.PollAll(*standing).size(), 7u);
}

TEST_F(ServerTest, SumOrAvgOverNonNumericColumnIsRejectedAtSubmit) {
  for (const char* agg : {"AVG", "SUM"}) {
    auto q = server_.Submit(
        std::string("SELECT ") + agg +
        "(stockSymbol) FROM ClosingStockPrices "
        "for (t = ST; t < ST + 10; t++) { WindowIs(ClosingStockPrices, t, t); "
        "}");
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << agg;
  }
  // MIN/MAX/COUNT over strings stay legal, and ingest is unaffected.
  auto q = server_.Submit(
      "SELECT MAX(stockSymbol), COUNT(stockSymbol) FROM ClosingStockPrices "
      "for (t = ST; t < ST + 10; t++) { WindowIs(ClosingStockPrices, t, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> batch;
  for (int64_t d = 1; d <= 3; ++d) batch.push_back(Stock(d, "MSFT", 40.0 + d));
  EXPECT_TRUE(server_.PushBatch("ClosingStockPrices", std::move(batch)).ok());
  EXPECT_EQ(server_.PollAll(*q).size(), 2u);
}

/// A quote whose DOUBLE closingPrice cell holds a string.
Tuple StringPrice(int64_t day) {
  return Tuple::Make(
      {Value::Int64(day), Value::String("MSFT"), Value::String("high")}, day);
}

/// Registers the two queries that read closingPrice as a number: a
/// windowed AVG and a standing filter with arithmetic.
std::pair<QueryId, QueryId> SubmitPriceReaders(Server* server) {
  auto avg = server->Submit(
      "SELECT AVG(closingPrice) FROM ClosingStockPrices "
      "for (t = ST; true; t += 1) { WindowIs(ClosingStockPrices, t - 1, t); "
      "}");
  auto filter = server->Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice + 1 > 50");
  EXPECT_TRUE(avg.ok()) << avg.status();
  EXPECT_TRUE(filter.ok()) << filter.status();
  return {avg.ok() ? *avg : 0, filter.ok() ? *filter : 0};
}

TEST_F(ServerTest, WrongTypedCellIsRejectedByPushAndIsNoArrival) {
  const auto [avg, filter] = SubmitPriceReaders(&server_);
  ASSERT_TRUE(server_.Push("ClosingStockPrices", Stock(1, "MSFT", 60)).ok());
  Status st;
  EXPECT_NO_THROW(st = server_.Push("ClosingStockPrices", StringPrice(2)));
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st;
  // A timestamp cell of the wrong type is rejected the same way.
  EXPECT_NO_THROW(
      st = server_.Push("ClosingStockPrices",
                        Tuple::Make({Value::String("2"), Value::String("MSFT"),
                                     Value::Double(61)},
                                    2)));
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st;
  // NULL cells stay legal; valid tuples keep flowing.
  ASSERT_TRUE(server_
                  .Push("ClosingStockPrices",
                        Tuple::Make({Value::Int64(2), Value::Null(),
                                     Value::Double(61)},
                                    2))
                  .ok());
  ASSERT_TRUE(server_.Push("ClosingStockPrices", Stock(3, "MSFT", 62)).ok());
  EXPECT_EQ(server_.PollAll(filter).size(), 3u);
  EXPECT_FALSE(server_.PollAll(avg).empty());
  // Rejected tuples are counted as rejections, not as arrivals.
  EXPECT_NE(server_.SnapshotMetrics().find("\"arrivals\":3,\"rejected\":2"),
            std::string::npos)
      << server_.SnapshotMetrics();
}

TEST_F(ServerTest, WrongTypedCellInABatchIsRejectedAndNeverThrows) {
  const auto [avg, filter] = SubmitPriceReaders(&server_);
  auto batch = [] {
    return std::vector<Tuple>{Stock(1, "MSFT", 60), StringPrice(2),
                              Stock(3, "MSFT", 62)};
  };
  // Without `rejected`: the valid prefix is ingested, then the error.
  Status st;
  EXPECT_NO_THROW(st = server_.PushBatch("ClosingStockPrices", batch()));
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st;
  EXPECT_EQ(server_.PollAll(filter).size(), 1u);

  // With `rejected`: the bad tuple is skipped and counted.
  Server counted;
  ASSERT_TRUE(counted
                  .DefineStream("ClosingStockPrices", StockSchema(),
                                /*timestamp_field=*/0)
                  .ok());
  const auto [avg2, filter2] = SubmitPriceReaders(&counted);
  size_t rejected = 0;
  EXPECT_NO_THROW(
      st = counted.PushBatch("ClosingStockPrices", batch(), &rejected));
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(counted.PollAll(filter2).size(), 2u);
  (void)avg;
  (void)avg2;
}

TEST_F(ServerTest, NonInt64TimestampColumnIsRejectedAtDefine) {
  // Pushes check every cell against its declared type and timestamps must
  // be INT64, so such a stream could never accept a tuple.
  auto schema = Schema::Make(
      {{"ts", ValueType::kDouble, ""}, {"v", ValueType::kInt64, ""}});
  EXPECT_EQ(server_.DefineStream("DoubleClock", schema, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(server_.DefineStream("ArrivalClock", schema, -1).ok());
}

TEST_F(ServerTest, WrongTypedCellIsRejectedByRetract) {
  // Pushed before any query reads the cell, the bad tuple must already be
  // refused, or it would sit in the archive for a retraction to match.
  Status st = server_.Push("ClosingStockPrices", StringPrice(1));
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st;
  SubmitPriceReaders(&server_);
  EXPECT_NO_THROW(st = server_.Retract("ClosingStockPrices", StringPrice(1)));
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st;
  // The arity check lives in the same place.
  st = server_.Retract("ClosingStockPrices", Tuple::Make({Value::Int64(1)}, 1));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
}

#ifndef TCQ_METRICS_DISABLED
TEST_F(ServerTest, WindowedEquiJoinCountsStemMatches) {
  ASSERT_TRUE(server_
                  .DefineStream("OtherPrices", StockSchema(),
                                /*timestamp_field=*/0)
                  .ok());
  auto q = server_.Submit(
      "SELECT a.closingPrice, b.closingPrice "
      "FROM ClosingStockPrices AS a, OtherPrices AS b "
      "WHERE a.stockSymbol = b.stockSymbol "
      "for (t = ST; t < ST + 10; t++) { WindowIs(a, t - 2, t); "
      "WindowIs(b, t - 2, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  Counter* matches = MetricRegistry::Global().GetCounter("tcq.stem.matches");
  const uint64_t before = matches->value();
  for (int64_t d = 1; d <= 6; ++d) {
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "MSFT", 40.0 + d)).ok());
    ASSERT_TRUE(server_.Push("OtherPrices", Stock(d, "MSFT", 10.0 + d)).ok());
  }
  size_t rows = 0;
  for (const ResultSet& rs : server_.PollAll(*q)) rows += rs.rows.size();
  ASSERT_GT(rows, 0u);
  EXPECT_GT(matches->value() - before, 0u);
}
#endif  // TCQ_METRICS_DISABLED

// ---- Mixed consistency under a disorder bound (DESIGN.md §15). ----------

SchemaPtr KV() {
  return Schema::Make(
      {{"ts", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

std::vector<Tuple> KVRange(int64_t from, int64_t to) {
  std::vector<Tuple> out;
  for (int64_t ts = from; ts <= to; ++ts) {
    out.push_back(Tuple::Make({Value::Int64(ts), Value::Int64(ts)}, ts));
  }
  return out;
}

/// A server over S(ts, v) with disorder bound 10 and `shards` CACQ shards.
std::unique_ptr<Server> DisorderedServer(size_t shards) {
  Server::Options o;
  o.max_disorder = 10;
  o.cacq_shards = shards;
  auto server = std::make_unique<Server>(o);
  EXPECT_TRUE(server->DefineStream("S", KV(), /*timestamp_field=*/0,
                                   /*partition_field=*/1)
                  .ok());
  return server;
}

/// Cancels a delayed query while its rows wait for release, lets a new
/// query take its engine slot, then releases everything: neither sees the
/// cancelled query's rows.
void CancelWithRowsHeld(size_t shards) {
  auto server = DisorderedServer(shards);
  const std::string sql = "SELECT v FROM S WHERE v > 0";
  auto gone = server->Submit(sql);
  ASSERT_TRUE(gone.ok()) << gone.status();
  std::mutex mu;
  size_t gone_rows = 0;
  ASSERT_TRUE(server
                  ->SetCallback(*gone,
                                [&](const ResultSet& rs) {
                                  std::lock_guard<std::mutex> lock(mu);
                                  gone_rows += rs.rows.size();
                                })
                  .ok());
  // Raw watermark 5, bound 10: nothing is released, every row is held.
  ASSERT_TRUE(server->PushBatch("S", KVRange(1, 5)).ok());
  server->Quiesce();
  EXPECT_NE(server->SnapshotMetrics().find("\"held\":5"), std::string::npos);
  ASSERT_TRUE(server->Cancel(*gone).ok());
  server->Quiesce();  // Sharded: the slot is free once egress drained it.
  EXPECT_EQ(server->SnapshotMetrics().find("\"held\":5"), std::string::npos);
  auto fresh = server->Submit(sql);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  // Release everything the cancelled query had waiting, then new data.
  ASSERT_TRUE(server->Heartbeat("S", 10).ok());
  server->Quiesce();
  EXPECT_TRUE(server->PollAll(*fresh).empty());
  ASSERT_TRUE(server->PushBatch("S", KVRange(11, 13)).ok());
  ASSERT_TRUE(server->Heartbeat("S", 20).ok());
  server->Quiesce();
  std::vector<int64_t> fresh_rows;
  for (const ResultSet& rs : server->PollAll(*fresh)) {
    for (const Tuple& row : rs.rows) {
      fresh_rows.push_back(row.cell(0).int64_value());
    }
  }
  std::sort(fresh_rows.begin(), fresh_rows.end());
  EXPECT_EQ(fresh_rows, (std::vector<int64_t>{11, 12, 13}));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(gone_rows, 0u);
}

TEST(ServerDisorderTest, CancelWithRowsHeldInline) { CancelWithRowsHeld(1); }

TEST(ServerDisorderTest, CancelWithRowsHeldSharded) { CancelWithRowsHeld(2); }

TEST(ServerDisorderTest, DelayedRowsLeaveOnTheBatchThatReleasesThem) {
  auto server = DisorderedServer(1);
  Server::SubmitOptions spec;
  spec.consistency = Consistency::kSpeculative;
  auto delayed = server->Submit("SELECT v FROM S WHERE v > 0");
  auto speculative = server->Submit("SELECT v FROM S WHERE v > 0", spec);
  ASSERT_TRUE(delayed.ok() && speculative.ok());
  // Arrival order 3, 1, 2: speculative rows come at once, as they arrive.
  std::vector<Tuple> batch = KVRange(1, 3);
  std::rotate(batch.begin(), batch.begin() + 2, batch.end());
  ASSERT_TRUE(server->PushBatch("S", std::move(batch)).ok());
  EXPECT_TRUE(server->PollAll(*delayed).empty());
  EXPECT_EQ(server->PollAll(*speculative).size(), 3u);
  // Raw watermark 13 releases ts <= 3: the delayed rows leave with this
  // batch, in timestamp order; 13 itself waits.
  ASSERT_TRUE(server->PushBatch("S", KVRange(13, 13)).ok());
  std::vector<int64_t> rows;
  for (const ResultSet& rs : server->PollAll(*delayed)) {
    rows.push_back(rs.rows.at(0).cell(0).int64_value());
  }
  EXPECT_EQ(rows, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(server->PollAll(*speculative).size(), 1u);
}

/// Submits a delayed query while tuples sit in the reorder buffer. Those
/// were routed before it existed, so it starts above the raw watermark at
/// Submit: its output is the in-order replay's suffix past that mark, not
/// a mix of later arrivals on both sides of it.
void DelayedSubmitMidStream(size_t shards) {
  auto server = DisorderedServer(shards);
  // Raw watermark 5, bound 10: 1..5 are all still buffered.
  ASSERT_TRUE(server->PushBatch("S", KVRange(1, 5)).ok());
  auto q = server->Submit("SELECT v FROM S WHERE v > 0");
  ASSERT_TRUE(q.ok()) << q.status();
  // After Submit: 7, a within-bound 4 (v 104), 6 and 8.
  std::vector<Tuple> later = {
      Tuple::Make({Value::Int64(7), Value::Int64(7)}, 7),
      Tuple::Make({Value::Int64(4), Value::Int64(104)}, 4),
      Tuple::Make({Value::Int64(6), Value::Int64(6)}, 6),
      Tuple::Make({Value::Int64(8), Value::Int64(8)}, 8)};
  ASSERT_TRUE(server->PushBatch("S", std::move(later)).ok());
  ASSERT_TRUE(server->Heartbeat("S", 20).ok());
  server->Quiesce();
  std::vector<int64_t> rows;
  for (const ResultSet& rs : server->PollAll(*q)) {
    for (const Tuple& row : rs.rows) rows.push_back(row.cell(0).int64_value());
  }
  if (shards > 1) std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<int64_t>{6, 7, 8}));
}

TEST(ServerDisorderTest, DelayedSubmitMidStreamSeesATimestampSuffixInline) {
  DelayedSubmitMidStream(1);
}

TEST(ServerDisorderTest, DelayedSubmitMidStreamSeesATimestampSuffixSharded) {
  DelayedSubmitMidStream(2);
}

#ifndef TCQ_METRICS_DISABLED
/// Pushes `n` disordered tuples through a stream carrying a delayed and a
/// speculative filter; returns eddy injections per accepted tuple.
double InjectionsPerTuple(size_t shards) {
  auto server = DisorderedServer(shards);
  Server::SubmitOptions spec;
  spec.consistency = Consistency::kSpeculative;
  EXPECT_TRUE(server->Submit("SELECT v FROM S WHERE v > 3").ok());
  EXPECT_TRUE(server->Submit("SELECT v FROM S WHERE v < 50", spec).ok());
  Counter* injected = MetricRegistry::Global().GetCounter("tcq.eddy.injected");
  const uint64_t before = injected->value();
  std::vector<Tuple> batch = KVRange(1, 64);
  for (size_t i = 0; i + 4 <= batch.size(); i += 4) {
    std::swap(batch[i], batch[i + 3]);  // Disorder 3, inside the bound.
  }
  EXPECT_TRUE(server->PushBatch("S", std::move(batch)).ok());
  EXPECT_TRUE(server->Heartbeat("S", 64).ok());
  server->Quiesce();
  return static_cast<double>(injected->value() - before) / 64.0;
}

TEST(ServerDisorderTest, StatelessQueriesRouteEachArrivalOnceInline) {
  EXPECT_EQ(InjectionsPerTuple(1), 1.0);
}

TEST(ServerDisorderTest, StatelessQueriesRouteEachArrivalOnceSharded) {
  EXPECT_EQ(InjectionsPerTuple(2), 1.0);
}
#endif  // TCQ_METRICS_DISABLED

}  // namespace
}  // namespace tcq
