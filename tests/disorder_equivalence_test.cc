// Disorder equivalence (ISSUE 9 acceptance): a disorder-injected feed
// through a server with the matching reorder bound must, under
// delayed-but-correct consistency, deliver BYTE-IDENTICAL results to the
// same feed replayed in timestamp order through a classic in-order
// server — across every ScheduleExplorer seed, inline and 4-shard — and
// a speculative query over the same disordered feed must converge to the
// same net results once its retractions are applied.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/server.h"
#include "ingress/wrapper.h"
#include "testing/disorder.h"
#include "testing/schedule_explorer.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"ts", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

// Unique timestamps: ties release in arrival order, and the two runs
// disagree on arrival order by construction.
std::vector<Tuple> MakeFeed() {
  std::vector<Tuple> feed;
  for (int64_t ts = 1; ts <= 48; ++ts) {
    feed.push_back(
        Tuple::Make({Value::Int64(ts), Value::Int64((ts * 7) % 26)}, ts));
  }
  return feed;
}

constexpr char kFilterSql[] = "SELECT v FROM S WHERE v > 8";
constexpr char kWindowSql[] =
    "SELECT SUM(v) FROM S "
    "for (t = 4; t <= 48; t += 4) { WindowIs(S, t - 3, t); }";

constexpr char kSpecFilterSql[] = "SELECT v FROM S WHERE v > 4";

/// One standing query of a run: its text, consistency level, and whether
/// it is windowed (its rows are labelled with their window t).
struct QuerySpec {
  const char* sql;
  Consistency consistency;
  bool windowed;
};

/// Deliveries of the standing queries, one row list per query in
/// submission-label order, flattened in delivery order.
struct Deliveries {
  std::vector<std::vector<std::string>> rows;
};

/// Pushes `feed` in `chunk`-sized batches through a server with disorder
/// bound `bound`, straggler policy `late` and `shards` CACQ shards running
/// `queries`, submitted in `order`, then closes the source with
/// punctuation.
Deliveries RunQueries(const std::vector<Tuple>& feed, Timestamp bound,
                      size_t shards, size_t chunk,
                      const std::vector<size_t>& order,
                      const std::vector<QuerySpec>& queries,
                      LatePolicy late = LatePolicy::kReject) {
  Server::Options o;
  o.max_disorder = bound;
  o.late_policy = late;
  o.cacq_shards = shards;
  Server server(o);
  EXPECT_TRUE(server
                  .DefineStream("S", KV(), /*timestamp_field=*/0,
                                /*partition_field=*/1)
                  .ok());
  std::vector<QueryId> ids(queries.size());
  for (size_t label : order) {
    Server::SubmitOptions sopts;
    sopts.consistency = queries[label].consistency;
    auto q = server.Submit(queries[label].sql, sopts);
    EXPECT_TRUE(q.ok()) << q.status();
    ids[label] = *q;
  }
  for (size_t at = 0; at < feed.size(); at += chunk) {
    const size_t n = std::min(chunk, feed.size() - at);
    std::vector<Tuple> slice(feed.begin() + static_cast<ptrdiff_t>(at),
                             feed.begin() + static_cast<ptrdiff_t>(at + n));
    EXPECT_TRUE(server.PushBatch("S", std::move(slice)).ok());
  }
  // The source closes with punctuation: flush the reorder buffer and
  // prove every window final, so both runs end at the same frontier.
  EXPECT_TRUE(server.Heartbeat("S", 50).ok());
  server.Quiesce();

  Deliveries out;
  out.rows.resize(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const ResultSet& rs : server.PollAll(ids[q])) {
      for (const Tuple& row : rs.rows) {
        out.rows[q].push_back(
            queries[q].windowed
                ? "t" + std::to_string(rs.t) + "|" + row.ToString()
                : row.ToString());
      }
    }
  }
  return out;
}

/// The CACQ filter ([0]) and the windowed aggregate ([1]), both at
/// `consistency`.
Deliveries RunFeed(const std::vector<Tuple>& feed, Timestamp bound, size_t shards,
               size_t chunk, const std::vector<size_t>& order,
               Consistency consistency) {
  return RunQueries(feed, bound, shards, chunk, order,
                    {{kFilterSql, consistency, false},
                     {kWindowSql, consistency, true}});
}

std::string Ordered(const Deliveries& d) {
  std::ostringstream fp;
  for (size_t q = 0; q < d.rows.size(); ++q) {
    fp << "q" << q << ":";
    for (const std::string& r : d.rows[q]) fp << r << ";";
    fp << "\n";
  }
  return fp.str();
}

std::string Sorted(Deliveries d) {
  for (auto& rows : d.rows) std::sort(rows.begin(), rows.end());
  return Ordered(d);
}

/// Applies retraction-signed deliveries: a signed row erases one matching
/// assertion; the remainder is the query's net (converged) answer.
std::multiset<std::string> Net(const std::vector<std::string>& rows) {
  std::multiset<std::string> net;
  for (const std::string& r : rows) {
    // Tuple::ToString leads a retraction with '-' (after any "t<N>|"
    // window label); strip the sign and cancel the matching assertion.
    const size_t bar = r.find('|');
    const size_t body = bar == std::string::npos ? 0 : bar + 1;
    if (body < r.size() && r[body] == '-') {
      const std::string asserted = r.substr(0, body) + r.substr(body + 1);
      const auto it = net.find(asserted);
      if (it == net.end()) {
        ADD_FAILURE() << "retraction without a prior assertion: " << r;
        continue;
      }
      net.erase(it);
      continue;
    }
    net.insert(r);
  }
  return net;
}

TEST(DisorderEquivalenceTest, DelayedInlineMatchesInOrderByteForByte) {
  const std::vector<Tuple> feed = MakeFeed();
  // Reference: the feed in timestamp order through a classic strictly
  // in-order server (bound 0).
  const std::string expected =
      Ordered(RunFeed(feed, 0, 1, 1, {0, 1}, Consistency::kDelayed));
  EXPECT_NE(expected.find(";"), std::string::npos);

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleExplorer explorer(seed);
    auto common = explorer.Explore(
        2, [&](const ScheduleExplorer::Schedule& schedule) {
          DisorderOptions dopts;
          dopts.max_disorder = 1 + static_cast<Timestamp>(
                                       schedule.trial_seed % 7);
          dopts.seed = schedule.trial_seed;
          const std::string got = Ordered(
              RunFeed(InjectDisorder(feed, dopts), dopts.max_disorder, 1,
                  schedule.quantum, schedule.order, Consistency::kDelayed));
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", bound " << dopts.max_disorder << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(DisorderEquivalenceTest, DelayedShardedMatchesInOrder) {
  const std::vector<Tuple> feed = MakeFeed();
  // Shard egress interleaving is not defined, so the sharded comparison
  // is the sorted multiset per query (same contract as the sharded
  // equivalence suite); the windowed rows stay fully ordered regardless.
  const std::string expected =
      Sorted(RunFeed(feed, 0, 1, 1, {0, 1}, Consistency::kDelayed));

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ScheduleExplorer explorer(seed);
    auto common = explorer.Explore(
        2, [&](const ScheduleExplorer::Schedule& schedule) {
          DisorderOptions dopts;
          dopts.max_disorder = 1 + static_cast<Timestamp>(
                                       schedule.trial_seed % 7);
          dopts.seed = schedule.trial_seed;
          const std::string got = Sorted(
              RunFeed(InjectDisorder(feed, dopts), dopts.max_disorder, 4,
                  schedule.quantum, schedule.order, Consistency::kDelayed));
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", bound " << dopts.max_disorder << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(DisorderEquivalenceTest, SpeculativeConvergesToDelayedNet) {
  const std::vector<Tuple> feed = MakeFeed();
  const Deliveries delayed = RunFeed(feed, 0, 1, 1, {0, 1}, Consistency::kDelayed);
  const std::multiset<std::string> want_filter(delayed.rows[0].begin(),
                                               delayed.rows[0].end());
  const std::multiset<std::string> want_window(delayed.rows[1].begin(),
                                               delayed.rows[1].end());

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ScheduleExplorer explorer(seed);
    auto common = explorer.Explore(
        2, [&](const ScheduleExplorer::Schedule& schedule) {
          DisorderOptions dopts;
          dopts.max_disorder = 1 + static_cast<Timestamp>(
                                       schedule.trial_seed % 7);
          dopts.seed = schedule.trial_seed;
          const Deliveries spec = RunFeed(
              InjectDisorder(feed, dopts), dopts.max_disorder, 1,
              schedule.quantum, schedule.order, Consistency::kSpeculative);
          // The speculative run may have delivered early wrong answers —
          // but every one of them must have been retracted, and the net
          // must equal the delayed-but-correct answer exactly.
          const std::multiset<std::string> net_filter = Net(spec.rows[0]);
          const std::multiset<std::string> net_window = Net(spec.rows[1]);
          EXPECT_EQ(net_filter, want_filter)
              << "seed " << seed << ", "
              << ScheduleExplorer::Describe(schedule);
          EXPECT_EQ(net_window, want_window)
              << "seed " << seed << ", "
              << ScheduleExplorer::Describe(schedule);
          // The Explore fingerprint is the NET answer — the raw delivery
          // transcript legitimately differs per schedule (different early
          // fires, different retractions), the converged answer must not.
          std::ostringstream fp;
          for (const std::string& r : net_filter) fp << r << ";";
          fp << "\n";
          for (const std::string& r : net_window) fp << r << ";";
          return fp.str();
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

/// One stream under mixed consistency: a delayed filter, a speculative
/// filter and the delayed windowed SUM share the stream's CACQ engine.
const std::vector<QuerySpec> kMixed = {
    {kFilterSql, Consistency::kDelayed, false},
    {kSpecFilterSql, Consistency::kSpeculative, false},
    {kWindowSql, Consistency::kDelayed, true}};

/// The delayed queries' rows as delivered (sorted per query when
/// `sorted`), with the speculative filter's rows replaced by its net.
std::string MixedFingerprint(Deliveries d, bool sorted) {
  const std::multiset<std::string> net = Net(d.rows[1]);
  d.rows[1].assign(net.begin(), net.end());
  return sorted ? Sorted(std::move(d)) : Ordered(d);
}

void ExploreMixed(uint64_t seeds, size_t shards) {
  const std::vector<Tuple> feed = MakeFeed();
  const bool sorted = shards > 1;
  const std::string expected =
      MixedFingerprint(RunQueries(feed, 0, 1, 1, {0, 1, 2}, kMixed), sorted);
  EXPECT_NE(expected.find(";"), std::string::npos);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    ScheduleExplorer explorer(seed);
    auto common = explorer.Explore(
        3, [&](const ScheduleExplorer::Schedule& schedule) {
          DisorderOptions dopts;
          dopts.max_disorder = 1 + static_cast<Timestamp>(
                                       schedule.trial_seed % 7);
          dopts.seed = schedule.trial_seed;
          const std::string got = MixedFingerprint(
              RunQueries(InjectDisorder(feed, dopts), dopts.max_disorder,
                         shards, schedule.quantum, schedule.order, kMixed),
              sorted);
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", bound " << dopts.max_disorder << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(DisorderEquivalenceTest, MixedConsistencyInlineMatchesInOrder) {
  // Inline: the delayed filter and the window are byte-identical to the
  // in-order replay; the speculative filter's net converges to it.
  ExploreMixed(12, 1);
}

TEST(DisorderEquivalenceTest, MixedConsistencyShardedMatchesInOrder) {
  // 4 shards: the same, as sorted multisets per query.
  ExploreMixed(6, 4);
}

/// The reorder buffer's release sequence for `feed` under `bound`, closed
/// at the feed's end: the tuples a delayed query may see when beyond-bound
/// stragglers are ingested late (they reach speculative queries only).
/// Classified per tuple exactly as the server does, so batch boundaries
/// do not change it.
std::vector<Tuple> ReleaseSequence(const std::vector<Tuple>& feed,
                                   Timestamp bound) {
  ReorderBuffer reorder;
  reorder.set_max_disorder(bound);
  std::vector<Tuple> released;
  Timestamp frontier = kMinTimestamp;
  for (const Tuple& t : feed) {
    if (t.timestamp() < frontier) continue;  // Beyond-bound straggler.
    reorder.Offer(t, &released);
    if (!released.empty()) {
      frontier = std::max(frontier, released.back().timestamp());
    }
  }
  reorder.Punctuate(50, &released);
  return released;
}

/// kIngestLate stragglers split each batch into runs: the delayed filter
/// must still deliver the in-order replay of what the reorder buffer
/// released (byte for byte inline, as a sorted multiset when sharded), and
/// the speculative filter, which also sees the stragglers, must net to the
/// whole feed. The disordered feed is fixed per seed; the schedules vary
/// batch size and submission order.
void ExploreIngestLate(uint64_t seeds, size_t shards) {
  const std::vector<QuerySpec> filters = {
      {kFilterSql, Consistency::kDelayed, false},
      {kSpecFilterSql, Consistency::kSpeculative, false}};
  const std::vector<Tuple> feed = MakeFeed();
  const Deliveries everything = RunQueries(
      feed, 0, 1, 1, {0}, {{kSpecFilterSql, Consistency::kDelayed, false}});
  const std::multiset<std::string> want_spec(everything.rows[0].begin(),
                                             everything.rows[0].end());
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    DisorderOptions dopts;
    dopts.max_disorder = 2 + static_cast<Timestamp>(seed % 5);
    dopts.violation_rate = 0.25;
    dopts.violation_extra = 3 + static_cast<Timestamp>(seed % 3);
    dopts.seed = seed;
    const std::vector<Tuple> disordered = InjectDisorder(feed, dopts);
    const std::vector<Tuple> released =
        ReleaseSequence(disordered, dopts.max_disorder);
    ASSERT_LT(released.size(), feed.size()) << "no straggler, seed " << seed;
    std::vector<std::string> want =
        RunQueries(released, 0, 1, 1, {0}, {filters[0]}).rows[0];
    if (shards > 1) std::sort(want.begin(), want.end());
    ScheduleExplorer explorer(seed);
    auto common = explorer.Explore(
        2, [&](const ScheduleExplorer::Schedule& schedule) {
          Deliveries got =
              RunQueries(disordered, dopts.max_disorder, shards,
                         schedule.quantum, schedule.order, filters,
                         LatePolicy::kIngestLate);
          std::vector<std::string>& delayed = got.rows[0];
          if (shards > 1) std::sort(delayed.begin(), delayed.end());
          EXPECT_EQ(delayed, want)
              << "seed " << seed << ", bound " << dopts.max_disorder << ", "
              << ScheduleExplorer::Describe(schedule);
          const std::multiset<std::string> spec = Net(got.rows[1]);
          EXPECT_EQ(spec, want_spec)
              << "seed " << seed << ", "
              << ScheduleExplorer::Describe(schedule);
          std::ostringstream fp;
          for (const std::string& r : delayed) fp << r << ";";
          fp << "\n";
          for (const std::string& r : spec) fp << r << ";";
          return fp.str();
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(DisorderEquivalenceTest, MixedConsistencyIngestLateInlineMatchesInOrder) {
  ExploreIngestLate(12, 1);
}

TEST(DisorderEquivalenceTest, MixedConsistencyIngestLateShardedMatchesInOrder) {
  ExploreIngestLate(6, 4);
}

TEST(DisorderEquivalenceTest, StragglerMidBatchKeepsDelayedOrder) {
  // Bound 5: after [5, 10] the safe watermark is 5 and the raw one 10.
  // In [8, 1, 7, 20], 1 is a beyond-bound straggler routed on its own, so
  // 8 and [7, 20] are separate runs; 20 releases 7, 8 and 10 together.
  // 8 must not leave ahead of 7. Then [30, 2] ends in a straggler: the
  // empty run after it still releases 20 on this batch.
  for (size_t shards : {size_t{1}, size_t{4}}) {
    Server::Options o;
    o.max_disorder = 5;
    o.late_policy = LatePolicy::kIngestLate;
    o.cacq_shards = shards;
    Server server(o);
    ASSERT_TRUE(server
                    .DefineStream("S", KV(), /*timestamp_field=*/0,
                                  /*partition_field=*/1)
                    .ok());
    Server::SubmitOptions spec;
    spec.consistency = Consistency::kSpeculative;
    auto delayed = server.Submit("SELECT ts FROM S");
    auto speculative = server.Submit("SELECT ts FROM S", spec);
    ASSERT_TRUE(delayed.ok() && speculative.ok());
    const auto kv = [](int64_t ts) {
      // One partition key, so one shard sees every tuple in order.
      return Tuple::Make({Value::Int64(ts), Value::Int64(0)}, ts);
    };
    ASSERT_TRUE(server.PushBatch("S", {kv(5), kv(10)}).ok());
    ASSERT_TRUE(server.PushBatch("S", {kv(8), kv(1), kv(7), kv(20)}).ok());
    ASSERT_TRUE(server.PushBatch("S", {kv(30), kv(2)}).ok());
    server.Quiesce();
    std::vector<Timestamp> delivered;
    for (const ResultSet& rs : server.PollAll(*delayed)) {
      delivered.push_back(rs.t);
    }
    EXPECT_EQ(delivered, (std::vector<Timestamp>{5, 7, 8, 10, 20}))
        << "shards " << shards;
    size_t spec_rows = 0;
    for (const ResultSet& rs : server.PollAll(*speculative)) {
      spec_rows += rs.rows.size();
    }
    EXPECT_EQ(spec_rows, 8u) << "shards " << shards;
  }
}

}  // namespace
}  // namespace tcq
