#ifndef TCQ_TESTS_CONSERVATION_H_
#define TCQ_TESTS_CONSERVATION_H_

// Reusable conservation-law assertions for the sharded-exchange stress
// suite (rebalance, sharded, failover). The laws hold under ANY thread
// interleaving — including mid-stream bucket migrations and process-pair
// failovers — which is what makes them usable as TSan stress oracles:
//
//   * routed == processed == tuples pushed: the exchange neither drops
//     nor duplicates work. Failover replay counts a recovered task as
//     processed exactly when the dead primary had not (the LSN floor).
//   * queue_depth == 0 after a successful Quiesce(): barriers really do
//     drain everything ahead of them.
//   * a see-all query's emission count equals tuples pushed: results are
//     conserved end-to-end through migrations and promotions (suppressed
//     replay emissions never reach the sink twice; lost ones are replayed).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "cacq/sharded_engine.h"

namespace tcq {

/// Thread-safe per-query emission tally, pluggable as the engine sink.
/// Counts survive query churn (hits for removed QueryIds stay counted).
class EmissionLedger {
 public:
  ShardedEngine::Sink MakeSink() {
    return [this](std::vector<ShardedEngine::Emission>&& batch) {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [q, t] : batch) {
        (void)t;
        ++hits_[q];
        ++total_;
      }
    };
  }

  uint64_t hits(QueryId q) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = hits_.find(q);
    return it == hits_.end() ? 0 : it->second;
  }

  uint64_t total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

 private:
  mutable std::mutex mu_;
  std::map<QueryId, uint64_t> hits_;
  uint64_t total_ = 0;
};

/// Emission tally for query churn on reused engine slots. The test owns a
/// slot table like the Server's: Own(slot, tag) after AddQuery returns,
/// Disown(slot) before RemoveQuery. Every emission on an owned slot must
/// carry its owner's tag in `tag_column` (tag < 0 accepts any). Emissions
/// on an unowned slot are in flight across a removal, or race the Own
/// after an AddQuery, and are dropped and counted. A wrong tag means an
/// old query's row reached the query that reused its slot.
class SlotOwnerLedger {
 public:
  explicit SlotOwnerLedger(size_t tag_column) : tag_column_(tag_column) {}

  ShardedEngine::Sink MakeSink() {
    return [this](std::vector<ShardedEngine::Emission>&& batch) {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [q, t] : batch) {
        const auto owner = owners_.find(q);
        if (owner == owners_.end()) {
          ++unowned_;
          continue;
        }
        const int64_t tag = t.cell(tag_column_).int64_value();
        if (owner->second >= 0 && tag != owner->second) ++cross_deliveries_;
        ++hits_[q];
      }
    };
  }

  void Own(QueryId slot, int64_t tag) {
    std::lock_guard<std::mutex> lock(mu_);
    owners_[slot] = tag;
  }
  void Disown(QueryId slot) {
    std::lock_guard<std::mutex> lock(mu_);
    owners_.erase(slot);
  }

  uint64_t hits(QueryId q) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = hits_.find(q);
    return it == hits_.end() ? 0 : it->second;
  }
  uint64_t cross_deliveries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cross_deliveries_;
  }

 private:
  const size_t tag_column_;
  mutable std::mutex mu_;
  std::map<QueryId, int64_t> owners_;
  std::map<QueryId, uint64_t> hits_;
  uint64_t unowned_ = 0;
  uint64_t cross_deliveries_ = 0;
};

/// Exchange-level conservation: every tuple pushed was routed to exactly
/// one shard and injected by exactly one worker (original or promoted),
/// and nothing is left in flight. Call after a successful Quiesce() with
/// producers stopped; totals are summed across shards because migrations
/// and failovers shift per-shard attribution, never the total.
inline void ExpectExchangeConservation(const ShardedEngine& engine,
                                       uint64_t expected_total) {
  uint64_t routed = 0;
  uint64_t processed = 0;
  for (const ShardedEngine::ShardStats& s : engine.shard_stats()) {
    routed += s.routed;
    processed += s.processed;
    EXPECT_EQ(s.queue_depth, 0u) << "backlog after quiesce";
  }
  EXPECT_EQ(routed, expected_total) << "exchange dropped/duplicated routing";
  EXPECT_EQ(processed, expected_total) << "workers dropped/duplicated tasks";
}

}  // namespace tcq

#endif  // TCQ_TESTS_CONSERVATION_H_
