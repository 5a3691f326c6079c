// Concurrency stress for the sharded CACQ exchange: real producer threads
// against 4+ shard threads plus the egress thread, with control traffic
// (query churn, eviction, quiesce barriers) riding the same queues. Run
// under -DTCQ_SANITIZE=thread in CI; the assertions here are conservation
// laws that hold whatever the interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "cacq/sharded_engine.h"
#include "conservation.h"
#include "core/server.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

Tuple KVTuple(int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

TEST(StressShardedTest, ConcurrentProducersAgainstControlTraffic) {
  constexpr size_t kShards = 4;
  constexpr size_t kProducers = 3;
  constexpr size_t kBatches = 60;
  constexpr size_t kBatchSize = 32;

  ShardedEngine::Options opts;
  opts.num_shards = kShards;
  opts.input_capacity = 16;  // Small: force backpressure interleavings.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());

  std::atomic<uint64_t> all_hits{0};
  std::atomic<uint64_t> churn_hits{0};
  QueryId all_query = 0;
  std::atomic<QueryId> churn_query{0};
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    for (const auto& [q, t] : batch) {
      if (q == all_query) {
        all_hits.fetch_add(1, std::memory_order_relaxed);
      } else if (q == churn_query.load(std::memory_order_relaxed)) {
        churn_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  engine.Start();

  // Registered before any data: must see every tuple exactly once.
  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  auto q = engine.AddQuery(see_all);
  ASSERT_TRUE(q.ok());
  all_query = *q;

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (size_t b = 0; b < kBatches; ++b) {
        std::vector<Tuple> batch;
        batch.reserve(kBatchSize);
        for (size_t i = 0; i < kBatchSize; ++i) {
          const auto n = static_cast<int64_t>(b * kBatchSize + i);
          batch.push_back(
              KVTuple(n % 23, static_cast<int64_t>(p), n + 1));
        }
        ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
      }
    });
  }

  // Control churn, serialized on this one thread (the AddQuery contract):
  // register/unregister a filter, evict, quiesce — all while data flows.
  std::thread controller([&] {
    CacqQuerySpec filter;
    filter.sources = {"S"};
    filter.where = Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                                Expr::Literal(Value::Int64(11)));
    for (int round = 0; round < 20; ++round) {
      auto cq = engine.AddQuery(filter);
      ASSERT_TRUE(cq.ok());
      churn_query.store(*cq, std::memory_order_relaxed);
      engine.EvictBefore(static_cast<Timestamp>(round));
      if (round % 5 == 0) engine.Quiesce();
      ASSERT_TRUE(engine.RemoveQuery(*cq).ok());
    }
  });

  for (auto& t : producers) t.join();
  controller.join();
  engine.Quiesce();

  const uint64_t total = kProducers * kBatches * kBatchSize;
  EXPECT_EQ(all_hits.load(), total);

  ExpectExchangeConservation(engine, total);
  engine.Stop();
  // Stop after a full drain is idempotent and loses nothing.
  engine.Stop();
  EXPECT_EQ(all_hits.load(), total);
}

// Query churn on reused engine slots: a removed query's slot returns to
// the free pool only after the egress thread has passed the removal's
// marker on every shard, so a query that reuses the slot never receives
// the old query's rows. Each churn query accepts one tag, consecutive ones
// differ, and the slow sink keeps emissions queued across removals — a
// premature release would hand queued rows to the wrong tag.
TEST(StressShardedTest, ReusedSlotsNeverReceiveTheOldQuerysRows) {
  constexpr size_t kShards = 4;
  constexpr size_t kProducers = 3;
  constexpr size_t kBatches = 80;
  constexpr size_t kBatchSize = 32;
  constexpr int64_t kTags = 16;
  constexpr int kRounds = 150;
  constexpr size_t kLiveChurn = 3;

  ShardedEngine::Options opts;
  opts.num_shards = kShards;
  opts.input_capacity = 16;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());
  SlotOwnerLedger ledger(/*tag_column=*/1);
  ShardedEngine::Sink count = ledger.MakeSink();
  engine.SetSink([&count](std::vector<ShardedEngine::Emission>&& batch) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    count(std::move(batch));
  });
  engine.Start();

  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  auto all_q = engine.AddQuery(see_all);
  ASSERT_TRUE(all_q.ok());
  ledger.Own(*all_q, /*tag=*/-1);

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (size_t b = 0; b < kBatches; ++b) {
        std::vector<Tuple> batch;
        batch.reserve(kBatchSize);
        for (size_t i = 0; i < kBatchSize; ++i) {
          const auto n = static_cast<int64_t>(b * kBatchSize + i);
          batch.push_back(KVTuple(n % 23, (n + static_cast<int64_t>(p)) %
                                              kTags,
                                  n + 1));
        }
        ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
      }
    });
  }

  QueryId max_slot = 0;
  std::thread churner([&] {
    std::deque<QueryId> live;
    for (int round = 0; round < kRounds; ++round) {
      const int64_t tag = round % kTags;
      CacqQuerySpec spec;
      spec.sources = {"S"};
      spec.where = Expr::Binary(BinaryOp::kEq, Expr::Column("v"),
                                Expr::Literal(Value::Int64(tag)));
      auto cq = engine.AddQuery(spec);
      ASSERT_TRUE(cq.ok());
      ledger.Own(*cq, tag);
      max_slot = std::max(max_slot, *cq);
      live.push_back(*cq);
      if (live.size() > kLiveChurn) {
        ledger.Disown(live.front());
        ASSERT_TRUE(engine.RemoveQuery(live.front()).ok());
        live.pop_front();
      }
      if (round % 25 == 0) ASSERT_TRUE(engine.Quiesce().ok());
    }
  });

  for (auto& t : producers) t.join();
  churner.join();
  ASSERT_TRUE(engine.Quiesce().ok());

  const uint64_t total = kProducers * kBatches * kBatchSize;
  EXPECT_EQ(ledger.cross_deliveries(), 0u);
  EXPECT_EQ(ledger.hits(*all_q), total);
  ExpectExchangeConservation(engine, total);
  // Slots were reused: far fewer than one per churn round.
  EXPECT_LT(max_slot, static_cast<QueryId>(kRounds / 2));
  engine.Stop();
}

TEST(StressShardedTest, ServerShardedUnderConcurrentClients) {
  Server::Options opts;
  opts.cacq_shards = 4;
  Server server(opts);
  // Arrival-order timestamps: concurrent producers cannot reject each
  // other with out-of-order stamps. Partitioned on k.
  ASSERT_TRUE(server
                  .DefineStream("S", KV(), /*timestamp_field=*/-1,
                                /*partition_field=*/0)
                  .ok());

  std::atomic<uint64_t> delivered{0};
  auto q = server.Submit("SELECT v FROM S WHERE k >= 0");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(server
                  .SetCallback(*q,
                               [&](const ResultSet& rs) {
                                 delivered.fetch_add(
                                     rs.rows.size(),
                                     std::memory_order_relaxed);
                               })
                  .ok());

  constexpr size_t kProducers = 3;
  constexpr size_t kBatches = 40;
  constexpr size_t kBatchSize = 25;
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&server, p] {
      for (size_t b = 0; b < kBatches; ++b) {
        std::vector<Tuple> batch;
        for (size_t i = 0; i < kBatchSize; ++i) {
          batch.push_back(KVTuple(static_cast<int64_t>(i % 13),
                                  static_cast<int64_t>(p), 0));
        }
        ASSERT_TRUE(server.PushBatch("S", std::move(batch)).ok());
      }
    });
  }
  // Query churn + introspection race the producers and the egress thread.
  threads.emplace_back([&server] {
    for (int round = 0; round < 15; ++round) {
      auto extra = server.Submit("SELECT k FROM S WHERE v = 1");
      ASSERT_TRUE(extra.ok()) << extra.status();
      (void)server.PollAll(*extra);
      ASSERT_TRUE(server.Cancel(*extra).ok());
    }
  });
  threads.emplace_back([&server] {
    for (int round = 0; round < 15; ++round) {
      const std::string snap = server.SnapshotMetrics();
      EXPECT_NE(snap.find("\"shards\""), std::string::npos);
      server.PumpMetrics();
      server.Quiesce();
    }
  });
  for (auto& t : threads) t.join();

  server.Quiesce();
  EXPECT_EQ(delivered.load(), kProducers * kBatches * kBatchSize);
}

}  // namespace
}  // namespace tcq
