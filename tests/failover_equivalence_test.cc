// Failover equivalence: the process-pair engine may lose any primary at
// any feed slice and promote its standby, but the §2.2 routing-invariance
// obligation extends across promotions — the emitted RESULT SET must stay
// byte-identical to one inline CacqEngine, with zero lost and zero
// duplicated rows. This suite mirrors sharded_equivalence_test.cc (same
// 12 explorer seeds, same workloads) and additionally kills a rotating
// shard after every third feed slice.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cacq/sharded_engine.h"
#include "testing/crash_injector.h"
#include "testing/schedule_explorer.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

Tuple KVTuple(int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

using Labelled = std::pair<size_t, std::string>;

std::string Fingerprint(std::vector<Labelled> rows) {
  std::sort(rows.begin(), rows.end());
  std::ostringstream fp;
  for (const Labelled& r : rows) fp << "q" << r.first << "|" << r.second
                                    << "\n";
  return fp.str();
}

struct Workload {
  std::vector<std::tuple<std::string, SchemaPtr, size_t>> streams;
  std::vector<CacqQuerySpec> queries;
  std::vector<std::pair<std::string, std::vector<Tuple>>> feed;
};

std::string RunInline(const Workload& w) {
  CacqEngine engine;
  for (const auto& [name, schema, col] : w.streams) {
    (void)col;
    EXPECT_TRUE(engine.AddStream(name, schema).ok());
  }
  std::vector<Labelled> rows;
  std::map<QueryId, size_t> label;
  engine.SetSink([&](QueryId q, const Tuple& t) {
    rows.emplace_back(label.at(q), t.ToString());
  });
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto q = engine.AddQuery(w.queries[i]);
    EXPECT_TRUE(q.ok()) << q.status();
    label[*q] = i;
  }
  for (const auto& [stream, batch] : w.feed) {
    EXPECT_TRUE(engine.InjectBatch(stream, batch).ok());
  }
  return Fingerprint(std::move(rows));
}

/// RunSharded from the base suite, plus replication and a crash after
/// every third feed slice: kill a rotating shard, wait for the worker to
/// die, promote the standby, keep feeding. The checkpoint cadence is
/// varied per trial so some recoveries replay long changelog tails and
/// some restore fresh snapshots.
/// A query that never matches: churning it moves slots around without
/// changing any result.
CacqQuerySpec NeverMatches(const Workload& w) {
  const std::string& stream = std::get<0>(w.streams.front());
  CacqQuerySpec q;
  q.sources = {stream};
  q.where = Expr::Binary(BinaryOp::kLt, Expr::Column(stream + ".k"),
                         Expr::Literal(Value::Int64(-1)));
  return q;
}

/// With `churn`, never-matching queries are added and removed around the
/// workload's registrations and after every fourth feed slice, so the
/// workload's queries sit on reused, non-contiguous engine slots and every
/// promotion rebuilds its fresh standby from a table with gaps.
std::string RunShardedWithCrashes(const Workload& w, size_t num_shards,
                                  uint64_t seed,
                                  const std::vector<size_t>& order,
                                  size_t chunk, bool churn = false) {
  ShardedEngine::Options opts;
  opts.num_shards = num_shards;
  opts.seed = seed;
  opts.num_replicas = 1;
  opts.checkpoint_interval = 1 + seed % 7;
  ShardedEngine engine(opts);
  for (const auto& [name, schema, col] : w.streams) {
    EXPECT_TRUE(engine.AddStream(name, schema, col).ok());
  }
  std::mutex mu;
  std::vector<Labelled> rows;
  std::map<QueryId, size_t> label;
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [q, t] : batch) {
      rows.emplace_back(label.at(q), t.ToString());
    }
  });
  engine.Start();
  // tcq.ha.* counters are process-global (telemetry registry), so trials
  // in one process see each other's failovers: assert on the delta.
  const uint64_t failovers_before = engine.ha_stats().failovers;
  // Registrations never race a kill: standby promotion rebuilds them from
  // the engine's slot table, which assumes no AddQuery races a dead
  // primary (see DESIGN.md §13 limitations).
  auto churn_once = [&](size_t extra) {
    std::vector<QueryId> dummies;
    for (size_t j = 0; j < extra; ++j) {
      auto d = engine.AddQuery(NeverMatches(w));
      EXPECT_TRUE(d.ok()) << d.status();
      dummies.push_back(*d);
    }
    for (QueryId d : dummies) EXPECT_TRUE(engine.RemoveQuery(d).ok());
  };
  if (churn) churn_once(3);
  for (size_t i : order) {
    auto q = engine.AddQuery(w.queries[i]);
    EXPECT_TRUE(q.ok()) << q.status();
    std::lock_guard<std::mutex> lock(mu);
    label[*q] = i;
    if (churn) churn_once(1 + i % 2);
  }
  size_t slice = 0;
  size_t crashes = 0;
  for (const auto& [stream, batch] : w.feed) {
    for (size_t at = 0; at < batch.size(); at += chunk) {
      const size_t n = std::min(chunk, batch.size() - at);
      std::vector<Tuple> slab(batch.begin() + static_cast<ptrdiff_t>(at),
                              batch.begin() + static_cast<ptrdiff_t>(at + n));
      EXPECT_TRUE(engine.PushBatch(stream, std::move(slab)).ok());
      if (churn && slice % 4 == 1) churn_once(2);
      if (++slice % 3 == 0) {
        CrashInjector::CrashAndRecover(&engine,
                                       (crashes + seed) % num_shards);
        ++crashes;
      }
    }
  }
  EXPECT_TRUE(engine.Quiesce().ok());
  EXPECT_EQ(engine.ha_stats().failovers - failovers_before, crashes);
  engine.Stop();
  std::lock_guard<std::mutex> lock(mu);
  return Fingerprint(std::move(rows));
}

Workload FilterWorkload() {
  Workload w;
  w.streams.emplace_back("S", KV(), /*partition col=*/0);
  auto filter = [](ExprPtr e) {
    CacqQuerySpec q;
    q.sources = {"S"};
    q.where = std::move(e);
    return q;
  };
  w.queries.push_back(filter(Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                                          Expr::Literal(Value::Int64(10)))));
  w.queries.push_back(filter(Expr::Binary(BinaryOp::kLt, Expr::Column("k"),
                                          Expr::Literal(Value::Int64(40)))));
  w.queries.push_back(filter(Expr::Binary(
      BinaryOp::kEq,
      Expr::Binary(BinaryOp::kMod, Expr::Column("v"),
                   Expr::Literal(Value::Int64(3))),
      Expr::Literal(Value::Int64(0)))));
  std::vector<Tuple> batch;
  for (int64_t k = 0; k < 60; ++k) batch.push_back(KVTuple(k, k * 7, k + 1));
  w.feed.emplace_back("S", std::move(batch));
  return w;
}

Workload JoinWorkload() {
  Workload w;
  w.streams.emplace_back("A", KV(), 0);
  w.streams.emplace_back("B", KV(), 0);
  auto join = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                           Expr::Column("B.k"));
  CacqQuerySpec q0;
  q0.sources = {"A", "B"};
  q0.where = join;
  CacqQuerySpec q1;
  q1.sources = {"A", "B"};
  q1.where = Expr::Binary(
      BinaryOp::kAnd, join,
      Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                   Expr::Literal(Value::Int64(10))));
  w.queries.push_back(std::move(q0));
  w.queries.push_back(std::move(q1));
  // Interleaved A/B batches over a small key domain: SteM state built
  // well before a crash must survive into the promoted standby to join
  // against arrivals fed well after it.
  Timestamp ts = 1;
  for (int round = 0; round < 8; ++round) {
    std::vector<Tuple> a, b;
    for (int i = 0; i < 10; ++i) {
      a.push_back(KVTuple((round * 3 + i) % 17, round * 10 + i, ts++));
      b.push_back(KVTuple((round * 5 + i * 2) % 17, i, ts++));
    }
    w.feed.emplace_back("A", std::move(a));
    w.feed.emplace_back("B", std::move(b));
  }
  return w;
}

/// Fewer trials per seed than the base suite: every trial here performs
/// up to feed/3 full kill/promote cycles, so six schedules per seed keeps
/// the suite inside the unit-test budget while still crossing every
/// quantum (including 1) and both shard-count ranges.
ScheduleExplorer::Options ExplorerOptions() {
  ScheduleExplorer::Options o;
  o.trials = 6;
  return o;
}

TEST(FailoverEquivalenceTest, FiltersSurviveRotatingShardCrashes) {
  const Workload w = FilterWorkload();
  const std::string expected = RunInline(w);
  EXPECT_FALSE(expected.empty());

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleExplorer explorer(seed, ExplorerOptions());
    auto common = explorer.Explore(
        w.queries.size(), [&](const ScheduleExplorer::Schedule& schedule) {
          const size_t shards = 1 + schedule.trial_seed % 4;  // 1..4.
          const std::string got =
              RunShardedWithCrashes(w, shards, schedule.trial_seed + 1,
                                    schedule.order, schedule.quantum);
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", shards " << shards << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(FailoverEquivalenceTest, PartitionedJoinsSurviveRotatingShardCrashes) {
  const Workload w = JoinWorkload();
  const std::string expected = RunInline(w);
  EXPECT_FALSE(expected.empty());

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleExplorer explorer(seed, ExplorerOptions());
    auto common = explorer.Explore(
        w.queries.size(), [&](const ScheduleExplorer::Schedule& schedule) {
          const size_t shards = 2 + schedule.trial_seed % 3;  // 2..4.
          const std::string got =
              RunShardedWithCrashes(w, shards, schedule.trial_seed + 1,
                                    schedule.order, schedule.quantum);
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", shards " << shards << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(FailoverEquivalenceTest, JoinsSurviveCrashesAfterSlotChurn) {
  const Workload w = JoinWorkload();
  const std::string expected = RunInline(w);
  EXPECT_FALSE(expected.empty());

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleExplorer explorer(seed, ExplorerOptions());
    auto common = explorer.Explore(
        w.queries.size(), [&](const ScheduleExplorer::Schedule& schedule) {
          const size_t shards = 2 + schedule.trial_seed % 3;  // 2..4.
          const std::string got = RunShardedWithCrashes(
              w, shards, schedule.trial_seed + 1, schedule.order,
              schedule.quantum, /*churn=*/true);
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", shards " << shards << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

}  // namespace
}  // namespace tcq
