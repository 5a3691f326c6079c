// Out-of-order ingress end to end (DESIGN.md §15): the reorder buffer's
// bounded-disorder release rule, heartbeat punctuation (explicit and
// idle-timeout), the LatePolicy matrix for beyond-bound stragglers, and
// retraction-capable delivery through the runner, the inline CACQ engine,
// the sharded exchange and the HA changelog — plus the satellite
// regressions for PSoup/SteM straggler eviction and the PushBatch
// skip-and-count contract over mixed in/out-of-order batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cacq/sharded_engine.h"
#include "core/server.h"
#include "ingress/wrapper.h"
#include "psoup/psoup.h"
#include "stem/stem.h"
#include "telemetry/metrics.h"
#include "testing/crash_injector.h"
#include "testing/disorder.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"ts", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

Tuple KVTuple(int64_t ts, int64_t v) {
  return Tuple::Make({Value::Int64(ts), Value::Int64(v)}, ts);
}

std::vector<Timestamp> Stamps(const std::vector<Tuple>& ts) {
  std::vector<Timestamp> out;
  for (const Tuple& t : ts) out.push_back(t.timestamp());
  return out;
}

// CACQ deliveries arrive grouped into result sets by batch; tests care
// about the rows.
std::vector<Tuple> FlattenRows(std::vector<ResultSet> sets) {
  std::vector<Tuple> rows;
  for (ResultSet& s : sets) {
    for (Tuple& r : s.rows) rows.push_back(std::move(r));
  }
  return rows;
}

// --- ReorderBuffer unit --------------------------------------------------

TEST(ReorderBufferTest, ZeroBoundReleasesImmediately) {
  ReorderBuffer buf;  // max_disorder defaults to 0.
  std::vector<Tuple> released;
  buf.Offer(KVTuple(5, 0), &released);
  buf.Offer(KVTuple(7, 0), &released);
  EXPECT_EQ(Stamps(released), (std::vector<Timestamp>{5, 7}));
  EXPECT_EQ(buf.buffered(), 0u);
  EXPECT_EQ(buf.raw_watermark(), 7);
}

TEST(ReorderBufferTest, ReleasesInTimestampOrderWithinBound) {
  ReorderBuffer buf;
  buf.set_max_disorder(3);
  std::vector<Tuple> released;
  // 10 arrives first, then stragglers 8 and 9 — all within bound 3.
  buf.Offer(KVTuple(10, 0), &released);
  buf.Offer(KVTuple(8, 0), &released);
  buf.Offer(KVTuple(9, 0), &released);
  // Nothing releases until the raw mark clears ts + 3.
  EXPECT_TRUE(released.empty());
  buf.Offer(KVTuple(11, 0), &released);
  EXPECT_EQ(Stamps(released), (std::vector<Timestamp>{8}));  // 8 <= 11-3.
  buf.Offer(KVTuple(13, 0), &released);
  // Raw 13 releases everything <= 10, in timestamp order.
  EXPECT_EQ(Stamps(released), (std::vector<Timestamp>{8, 9, 10}));
  EXPECT_EQ(buf.buffered(), 2u);  // 11 and 13 still held.
  buf.Flush(&released);
  EXPECT_EQ(Stamps(released), (std::vector<Timestamp>{8, 9, 10, 11, 13}));
}

TEST(ReorderBufferTest, TiesReleaseInArrivalOrder) {
  ReorderBuffer buf;
  buf.set_max_disorder(2);
  std::vector<Tuple> released;
  buf.Offer(KVTuple(5, 1), &released);
  buf.Offer(KVTuple(5, 2), &released);
  buf.Offer(KVTuple(4, 3), &released);
  buf.Punctuate(10, &released);
  ASSERT_EQ(released.size(), 3u);
  EXPECT_EQ(released[0].timestamp(), 4);
  EXPECT_EQ(released[1].cell(1).int64_value(), 1);  // Stable: arrival order.
  EXPECT_EQ(released[2].cell(1).int64_value(), 2);
  EXPECT_EQ(buf.raw_watermark(), 10);  // Punctuation advances the raw mark.
}

TEST(ReorderBufferTest, PunctuateFlushesOnlyThroughTs) {
  ReorderBuffer buf;
  buf.set_max_disorder(100);
  std::vector<Tuple> released;
  buf.Offer(KVTuple(3, 0), &released);
  buf.Offer(KVTuple(8, 0), &released);
  EXPECT_TRUE(released.empty());
  buf.Punctuate(5, &released);
  EXPECT_EQ(Stamps(released), (std::vector<Timestamp>{3}));
  EXPECT_EQ(buf.buffered(), 1u);
}

// --- Disorder injector ---------------------------------------------------

TEST(DisorderInjectorTest, RespectsTheBoundAndIsDeterministic) {
  std::vector<Tuple> in;
  for (int64_t t = 1; t <= 200; ++t) in.push_back(KVTuple(t, t));
  DisorderOptions opts;
  opts.max_disorder = 7;
  opts.seed = 3;
  const std::vector<Tuple> out = InjectDisorder(in, opts);
  ASSERT_EQ(out.size(), in.size());
  // Same multiset, genuinely disordered, and every tuple within bound:
  // no earlier arrival's timestamp exceeds ts + max_disorder.
  bool any_disorder = false;
  Timestamp max_seen = kMinTimestamp;
  for (const Tuple& t : out) {
    if (t.timestamp() < max_seen) any_disorder = true;
    EXPECT_GE(t.timestamp() + opts.max_disorder, max_seen);
    max_seen = std::max(max_seen, t.timestamp());
  }
  EXPECT_TRUE(any_disorder);
  EXPECT_EQ(Stamps(InjectDisorder(in, opts)), Stamps(out));  // Deterministic.
}

// --- Server: bounded disorder, delayed-but-correct -----------------------

TEST(DisorderServerTest, ReordersWithinBoundBeforeDelayedQueries) {
  Server::Options o;
  o.max_disorder = 3;
  Server server(o);
  ASSERT_TRUE(server.DefineStream("S", KV(), /*timestamp_field=*/0).ok());
  auto q = server.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = 2; t <= 8; t += 2) { WindowIs(S, t - 1, t); }");
  ASSERT_TRUE(q.ok()) << q.status();

  // Disordered feed, displacement <= 3.
  for (int64_t ts : {2, 1, 4, 3, 6, 5, 8, 7, 9}) {
    ASSERT_TRUE(server.Push("S", KVTuple(ts, ts * 10)).ok());
  }
  ASSERT_TRUE(server.Heartbeat("S", 9).ok());  // Flush the tail.

  auto sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 4u);
  for (size_t i = 0; i < sets.size(); ++i) {
    const int64_t t = 2 * (static_cast<int64_t>(i) + 1);
    EXPECT_EQ(sets[i].t, t);
    ASSERT_EQ(sets[i].rows.size(), 1u);
    // SUM(v) over [t-1, t] = 10(t-1) + 10t — every window complete and
    // final despite the disordered arrival order.
    EXPECT_EQ(sets[i].rows[0].cell(0).int64_value(), 10 * (2 * t - 1));
  }

  const std::string snap = server.SnapshotMetrics();
  EXPECT_NE(snap.find("\"late_within_bound\":4"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"heartbeats\":1"), std::string::npos) << snap;
}

TEST(DisorderServerTest, DefaultBoundKeepsClassicRejectContract) {
  Server server;  // max_disorder = 0, LatePolicy::kReject.
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  ASSERT_TRUE(server.Push("S", KVTuple(5, 0)).ok());
  const Status st = server.Push("S", KVTuple(3, 0));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("out-of-order timestamp"), std::string::npos);
  const std::string snap = server.SnapshotMetrics();
  EXPECT_NE(snap.find("\"beyond_bound\":1"), std::string::npos) << snap;
}

TEST(DisorderServerTest, SetDisorderBoundValidatesAndOverrides) {
  Server server;
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  ASSERT_TRUE(server.DefineStream("Seq", KV(), /*timestamp_field=*/-1).ok());
  EXPECT_EQ(server.SetDisorderBound("nope", 3).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.SetDisorderBound("Seq", 3).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.SetDisorderBound("S", -1).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.SetDisorderBound("S", 2).ok());
  // 4 then 3: within the per-stream bound now, re-sorted, not rejected.
  ASSERT_TRUE(server.Push("S", KVTuple(4, 0)).ok());
  ASSERT_TRUE(server.Push("S", KVTuple(3, 0)).ok());
  const std::string snap = server.SnapshotMetrics();
  EXPECT_NE(snap.find("\"late_within_bound\":1"), std::string::npos) << snap;
}

TEST(DisorderServerTest, LatePolicyDropDiscardsAndCounts) {
  Server::Options o;
  o.late_policy = LatePolicy::kDrop;
  Server server(o);
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  auto q = server.Submit("SELECT v FROM S WHERE v >= 0");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(server.Push("S", KVTuple(5, 50)).ok());
  ASSERT_TRUE(server.Push("S", KVTuple(3, 30)).ok());  // Dropped, not error.
  ASSERT_TRUE(server.Push("S", KVTuple(6, 60)).ok());
  auto rows = FlattenRows(server.PollAll(*q));
  ASSERT_EQ(rows.size(), 2u);  // The straggler never reached the query.
  const std::string snap = server.SnapshotMetrics();
  EXPECT_NE(snap.find("\"dropped\":1"), std::string::npos) << snap;
}

TEST(DisorderServerTest, LatePolicyIngestLateBackfillsUnfiredWindows) {
  Server::Options o;
  o.late_policy = LatePolicy::kIngestLate;
  Server server(o);
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  auto q = server.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = 10; t <= 20; t += 10) { WindowIs(S, t - 9, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(server.Push("S", KVTuple(12, 1)).ok());
  // Beyond-bound straggler for window [11, 20] — that window has not
  // fired, so the ordered insert backfills it.
  ASSERT_TRUE(server.Push("S", KVTuple(11, 2)).ok());
  ASSERT_TRUE(server.Push("S", KVTuple(21, 4)).ok());
  auto sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[1].rows[0].cell(0).int64_value(), 3);  // 1 + 2.
  const std::string snap = server.SnapshotMetrics();
  EXPECT_NE(snap.find("\"ingested_late\":1"), std::string::npos) << snap;
}

// Regression: a kIngestLate straggler arriving in the SAME batch as the
// releases that outran it must not be archived ahead of them. The
// straggler lands above the archive's tail (those releases are still
// pending) but below the batch frontier — an eager ordered-insert used to
// append it, and applying the pending releases then crashed the archive's
// ordered-append invariant.
TEST(DisorderServerTest, LatePolicyIngestLateMidBatchKeepsArchiveOrdered) {
  Server::Options o;
  o.max_disorder = 2;
  o.late_policy = LatePolicy::kIngestLate;
  Server server(o);
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  auto q = server.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = 4; t <= 4; t += 4) { WindowIs(S, 1, 4); }");
  ASSERT_TRUE(q.ok()) << q.status();
  // Raw reaches 7, releasing 1..5 (frontier 5) within the batch; the
  // trailing 3 is beyond-bound against that in-batch frontier while the
  // archive still ends below it.
  std::vector<Tuple> batch;
  for (int64_t ts = 1; ts <= 7; ++ts) batch.push_back(KVTuple(ts, ts));
  batch.push_back(KVTuple(3, 100));
  ASSERT_TRUE(server.PushBatch("S", std::move(batch)).ok());
  auto sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  // The straggler backfilled the unfired window: 1+2+3+4 + 100.
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 110);
  const std::string snap = server.SnapshotMetrics();
  EXPECT_NE(snap.find("\"ingested_late\":1"), std::string::npos) << snap;
}

// --- Heartbeats ----------------------------------------------------------

TEST(DisorderServerTest, HeartbeatUnstallsAQuietStream) {
  Server server;
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  auto q = server.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = 5; t <= 5; t += 5) { WindowIs(S, 1, 5); }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(server.Push("S", KVTuple(2, 7)).ok());
  // Window [1,5] can't fire: the watermark never passed 5.
  EXPECT_TRUE(server.PollAll(*q).empty());
  ASSERT_TRUE(server.Heartbeat("S", 6).ok());
  auto sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 7);
  // The heartbeat is punctuation: data at or below it now follows the
  // stream's LatePolicy (default reject).
  EXPECT_EQ(server.Push("S", KVTuple(4, 0)).code(),
            StatusCode::kInvalidArgument);
}

TEST(DisorderServerTest, HeartbeatRequiresTimestampColumn) {
  Server server;
  ASSERT_TRUE(server.DefineStream("Seq", KV(), -1).ok());
  EXPECT_EQ(server.Heartbeat("Seq", 10).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.Heartbeat("nope", 10).code(), StatusCode::kNotFound);
}

TEST(DisorderServerTest, IdleHeartbeatPunctuatesToPartnerWatermark) {
  Server::Options o;
  o.idle_heartbeat_ms = 100;
  Server server(o);
  int64_t now_ms = 0;
  server.SetClockForTesting([&now_ms] { return now_ms; });
  ASSERT_TRUE(server.DefineStream("A", KV(), 0).ok());
  ASSERT_TRUE(server.DefineStream("B", KV(), 0).ok());
  auto q = server.Submit(
      "SELECT a.v, b.v FROM A AS a, B AS b WHERE a.ts = b.ts "
      "for (t = 5; t <= 5; t += 5) { WindowIs(a, 1, 5); WindowIs(b, 1, 5); }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(server.Push("A", KVTuple(3, 9)).ok());
  ASSERT_TRUE(server.Push("A", KVTuple(8, 1)).ok());
  ASSERT_TRUE(server.Push("B", KVTuple(3, 7)).ok());
  // B stalls at watermark 3: the shared window [1,5] cannot prove itself
  // complete, even though both join inputs are in hand.
  EXPECT_TRUE(server.PollAll(*q).empty());
  EXPECT_EQ(server.PumpHeartbeats(), 0u);  // Not idle long enough.
  now_ms = 250;
  EXPECT_EQ(server.PumpHeartbeats(), 1u);  // B punctuated to A's watermark.
  auto sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  ASSERT_EQ(sets[0].rows.size(), 1u);
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 9);
  EXPECT_EQ(sets[0].rows[0].cell(1).int64_value(), 7);
  const std::string snap = server.SnapshotMetrics();
  EXPECT_NE(snap.find("\"idle_heartbeats\":1"), std::string::npos) << snap;
  // B is no longer idle (the heartbeat reset its clock), and A's only
  // partner now sits at the same watermark — nothing left to punctuate.
  EXPECT_EQ(server.PumpHeartbeats(), 0u);
}

TEST(DisorderServerTest, PumpHeartbeatsDisabledByDefault) {
  Server server;
  ASSERT_TRUE(server.DefineStream("A", KV(), 0).ok());
  EXPECT_EQ(server.PumpHeartbeats(), 0u);
}

// --- Speculative consistency and retraction ------------------------------

TEST(DisorderServerTest, SpeculativeEmitsEarlyThenRetractsOnLateData) {
  Server::Options o;
  o.max_disorder = 2;
  Server server(o);
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  Server::SubmitOptions sopts;
  sopts.consistency = Consistency::kSpeculative;
  auto q = server.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = 2; t <= 2; t += 2) { WindowIs(S, 1, 2); }",
      sopts);
  ASSERT_TRUE(q.ok()) << q.status();

  ASSERT_TRUE(server.Push("S", KVTuple(1, 10)).ok());
  // Raw mark jumps to 4: the speculative window [1,2] fires NOW, with
  // ts=2 still unseen — the early (possibly wrong) answer.
  ASSERT_TRUE(server.Push("S", KVTuple(4, 40)).ok());
  auto sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 10);

  // The late ts=2 tuple (within bound) releases and changes the fired
  // window: one retraction-signed stale row, then the fresh assertion.
  ASSERT_TRUE(server.Push("S", KVTuple(2, 5)).ok());
  sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  ASSERT_EQ(sets[0].rows.size(), 2u);
  EXPECT_TRUE(sets[0].rows[0].retraction());
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 10);
  EXPECT_FALSE(sets[0].rows[1].retraction());
  EXPECT_EQ(sets[0].rows[1].cell(0).int64_value(), 15);

  // Delayed-mode control: the same query held until the safe watermark
  // passes delivers 15 directly — what speculative mode converged to.
  Server control(o);
  ASSERT_TRUE(control.DefineStream("S", KV(), 0).ok());
  auto dq = control.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = 2; t <= 2; t += 2) { WindowIs(S, 1, 2); }");
  ASSERT_TRUE(dq.ok());
  ASSERT_TRUE(control.Push("S", KVTuple(1, 10)).ok());
  ASSERT_TRUE(control.Push("S", KVTuple(4, 40)).ok());
  ASSERT_TRUE(control.Push("S", KVTuple(2, 5)).ok());
  ASSERT_TRUE(control.Heartbeat("S", 5).ok());  // Prove the window final.
  auto dsets = control.PollAll(*dq);
  ASSERT_EQ(dsets.size(), 1u);
  ASSERT_EQ(dsets[0].rows.size(), 1u);
  EXPECT_EQ(dsets[0].rows[0].cell(0).int64_value(), 15);
}

TEST(DisorderServerTest, RetractionFlowsThroughInlineCacq) {
  Server server;
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  auto q = server.Submit("SELECT v FROM S WHERE v > 10");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(server.Push("S", KVTuple(1, 50)).ok());
  ASSERT_TRUE(server.Push("S", KVTuple(2, 5)).ok());
  auto sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);  // Only v=50 passed the filter.

  // Retract the v=50 assertion: the signed tuple flows the same filter
  // and the client receives a retraction-signed result row.
  ASSERT_TRUE(server.Retract("S", KVTuple(1, 50)).ok());
  sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  ASSERT_EQ(sets[0].rows.size(), 1u);
  EXPECT_TRUE(sets[0].rows[0].retraction());
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 50);

  // Unmatched retraction: dropped, counted, no delivery.
  ASSERT_TRUE(server.Retract("S", KVTuple(1, 999)).ok());
  EXPECT_TRUE(server.PollAll(*q).empty());
  const std::string snap = server.SnapshotMetrics();
  EXPECT_NE(snap.find("\"retractions\":1"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"unmatched_retractions\":1"), std::string::npos)
      << snap;
}

TEST(DisorderServerTest, RetractionRemovesArchivedRowFromUnfiredWindows) {
  Server server;
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  auto q = server.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = 10; t <= 10; t += 10) { WindowIs(S, 1, 10); }");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(server.Push("S", KVTuple(2, 100)).ok());
  ASSERT_TRUE(server.Push("S", KVTuple(3, 7)).ok());
  ASSERT_TRUE(server.Retract("S", KVTuple(2, 100)).ok());
  ASSERT_TRUE(server.Push("S", KVTuple(11, 0)).ok());  // Fires the window.
  auto sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 7);  // 100 gone.
}

TEST(DisorderServerTest, RetractionFlowsThroughShardedEngine) {
  Server::Options o;
  o.cacq_shards = 4;
  Server server(o);
  ASSERT_TRUE(server.DefineStream("S", KV(), 0, /*partition_field=*/1).ok());
  auto q = server.Submit("SELECT v FROM S WHERE v > 10");
  ASSERT_TRUE(q.ok());
  std::vector<Tuple> batch;
  for (int64_t i = 1; i <= 8; ++i) batch.push_back(KVTuple(i, i * 10));
  ASSERT_TRUE(server.PushBatch("S", std::move(batch)).ok());
  server.Quiesce();
  EXPECT_EQ(FlattenRows(server.PollAll(*q)).size(), 7u);  // v=10 fails v>10.

  ASSERT_TRUE(server.Retract("S", KVTuple(3, 30)).ok());
  server.Quiesce();
  auto rows = FlattenRows(server.PollAll(*q));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].retraction());
  EXPECT_EQ(rows[0].cell(0).int64_value(), 30);
}

TEST(DisorderShardedTest, LanesAndRetractionsSurviveFailover) {
  // The changelog records each batch's ingress lane; a promoted standby
  // must replay arrival/speculative/released feeds to exactly the queries
  // that saw them, and replayed retractions must keep canceling SteM
  // state.
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), /*partition col=*/1).ok());
  std::mutex mu;
  std::vector<std::pair<QueryId, std::string>> rows;
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [q, t] : batch) rows.emplace_back(q, t.ToString());
  });
  engine.Start();
  CacqQuerySpec delayed;
  delayed.sources = {"S"};
  delayed.where = Expr::Binary(BinaryOp::kGt, Expr::Column("v"),
                               Expr::Literal(Value::Int64(0)));
  CacqQuerySpec spec = delayed;
  spec.speculative = true;
  auto dq = engine.AddQuery(delayed);
  auto sq = engine.AddQuery(spec);
  ASSERT_TRUE(dq.ok());
  ASSERT_TRUE(sq.ok());

  ASSERT_TRUE(engine
                  .PushBatch("S", {KVTuple(1, 11), KVTuple(2, 12)},
                             IngressLane::kArrival)
                  .ok());
  ASSERT_TRUE(engine
                  .PushBatch("S", {KVTuple(1, 21), KVTuple(2, 22)},
                             IngressLane::kSpeculative)
                  .ok());
  // The released lane reaches only delayed join queries: nobody here.
  ASSERT_TRUE(engine
                  .PushBatch("S", {KVTuple(1, 31), KVTuple(2, 32)},
                             IngressLane::kReleased)
                  .ok());
  ASSERT_TRUE(engine.Quiesce().ok());
  // Kill and promote both shards: the standbys rebuild purely from the
  // changelog, lanes included.
  CrashInjector::CrashAndRecover(&engine, 0);
  CrashInjector::CrashAndRecover(&engine, 1);
  ASSERT_TRUE(engine
                  .PushBatch("S", {KVTuple(3, 13)}, IngressLane::kArrival)
                  .ok());
  Tuple retract = KVTuple(1, 11);
  retract.set_retraction(true);
  ASSERT_TRUE(engine.Push("S", retract).ok());  // kAll: both queries.
  ASSERT_TRUE(engine.Quiesce().ok());
  engine.Stop();

  std::lock_guard<std::mutex> lock(mu);
  std::vector<std::string> d_rows, s_rows;
  for (const auto& [q, r] : rows) {
    (q == *dq ? d_rows : s_rows).push_back(r);
  }
  std::sort(d_rows.begin(), d_rows.end());
  std::sort(s_rows.begin(), s_rows.end());
  // Delayed query: the arrival rows, the post-failover row and the signed
  // retraction. Speculative query: the same plus its straggler lane.
  EXPECT_EQ(d_rows.size(), 4u) << d_rows.size();
  EXPECT_EQ(s_rows.size(), 6u) << s_rows.size();
  EXPECT_EQ(std::count_if(d_rows.begin(), d_rows.end(),
                          [](const std::string& r) { return r[0] == '-'; }),
            1);
  EXPECT_EQ(std::count_if(s_rows.begin(), s_rows.end(),
                          [](const std::string& r) { return r[0] == '-'; }),
            1);
}

// --- Satellite regressions ----------------------------------------------

TEST(DisorderSatelliteTest, PushBatchMixedOrderSkipsAndCounts) {
  Server server;
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  auto q = server.Submit("SELECT v FROM S WHERE v >= 0");
  ASSERT_TRUE(q.ok());
  // Counting mode: the two stragglers are skipped, the rest flows, OK.
  size_t rejected = 0;
  ASSERT_TRUE(server
                  .PushBatch("S",
                             {KVTuple(5, 1), KVTuple(3, 2), KVTuple(6, 3),
                              KVTuple(2, 4), KVTuple(7, 5)},
                             &rejected)
                  .ok());
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(FlattenRows(server.PollAll(*q)).size(), 3u);

  // Error mode (null rejected): the valid prefix ingests, the first
  // straggler stops the batch and is reported.
  const Status st =
      server.PushBatch("S", {KVTuple(8, 6), KVTuple(4, 7), KVTuple(9, 8)});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  auto rows = FlattenRows(server.PollAll(*q));
  ASSERT_EQ(rows.size(), 1u);  // ts=8 only; ts=9 never ingested.
  EXPECT_EQ(rows[0].cell(0).int64_value(), 6);
}

TEST(DisorderSatelliteTest, StartClampIsObservable) {
#ifndef TCQ_METRICS_DISABLED
  Counter* clamped =
      MetricRegistry::Global().GetCounter("tcq.server.start_clamped");
  const uint64_t before = clamped->value();
  Server server;
  ASSERT_TRUE(server.DefineStream("S", KV(), 0).ok());
  for (int64_t ts = 1; ts <= 10; ++ts) {
    ASSERT_TRUE(server.Push("S", KVTuple(ts, ts)).ok());
  }
  // ST defaults to 1 but the watermark is already 10: the for-loop start
  // is clamped to 11 — and now observably so.
  auto q = server.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = ST; t <= 12; t += 1) { WindowIs(S, t, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(clamped->value(), before + 1);
  // A submit on a fresh stream does not clamp.
  Server fresh;
  ASSERT_TRUE(fresh.DefineStream("S", KV(), 0).ok());
  auto q2 = fresh.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = ST; t <= 2; t += 1) { WindowIs(S, t, t); }");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(clamped->value(), before + 1);
#else
  GTEST_SKIP() << "metrics disabled";
#endif
}

TEST(DisorderSatelliteTest, PSoupEvictBeforeReclaimsLateArrivals) {
  // Regression for the reported leak: a late tuple inserted below already
  // -arrived history must still be evicted by the prefix pop (it is —
  // InsertByTimestamp keeps history in timestamp order).
  PSoup psoup(KV());
  auto q = psoup.Register(/*predicate=*/nullptr, /*window_width=*/100);
  ASSERT_TRUE(q.ok());
  psoup.OnData(KVTuple(10, 1));
  psoup.OnData(KVTuple(20, 2));
  psoup.OnData(KVTuple(5, 3));  // Late: slots in below 10 and 20.
  EXPECT_EQ(psoup.history_size(), 3u);
  psoup.EvictBefore(15);
  // No leak: the late ts=5 tuple is gone along with ts=10.
  EXPECT_EQ(psoup.history_size(), 1u);
  EXPECT_EQ(psoup.materialized_results(), 1u);
  auto rows = psoup.Invoke(*q, 100);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].timestamp(), 20);
}

TEST(DisorderSatelliteTest, SteMEvictBeforeSweepsStragglers) {
  SteM stem("s", KV());
  stem.Insert(KVTuple(10, 1));
  stem.Insert(KVTuple(3, 2));  // Straggler stored behind a newer tuple.
  stem.Insert(KVTuple(20, 3));
  EXPECT_EQ(stem.EvictBefore(15), 2u);  // Full sweep: 10 AND the 3.
  const auto live = stem.CopyAll();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].tuple.timestamp(), 20);
}

TEST(DisorderSatelliteTest, SteMEvictSweepsStragglersAcrossMigration) {
  SteM from("a", KV(), /*key_field=*/1);
  SteM to("b", KV(), /*key_field=*/1);
  SmallBitset lineage(2);
  lineage.Set(0);
  from.Insert(KVTuple(10, 1), lineage);
  from.Insert(KVTuple(3, 1), lineage);  // Straggler.
  from.Insert(KVTuple(20, 1), lineage);
  // Migrate the whole key's state (the MigrateBucket extract/install
  // path) — storage order, straggler included.
  auto moved = from.ExtractIf([](const Value& v) {
    return v.int64_value() == 1;
  });
  ASSERT_EQ(moved.size(), 3u);
  for (const auto& e : moved) to.Install(e);
  EXPECT_EQ(from.size(), 0u);
  EXPECT_EQ(to.size(), 3u);
  // Eviction on the recipient is a full sweep too.
  EXPECT_EQ(to.EvictBefore(15), 2u);
  EXPECT_EQ(to.size(), 1u);
  size_t seen = 0;
  to.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                  [&](const Tuple& t, const SmallBitset&) {
                    ++seen;
                    EXPECT_EQ(t.timestamp(), 20);
                  });
  EXPECT_EQ(seen, 1u);
}

}  // namespace
}  // namespace tcq
