#include "stem/stem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

Tuple KVTuple(int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

SmallBitset Queries(std::initializer_list<size_t> ids, size_t n = 8) {
  SmallBitset b(n);
  for (size_t i : ids) b.Set(i);
  return b;
}

/// The stored `v` cells a probe visits, in visit order.
std::vector<int64_t> ProbeValues(const SteM& stem, const Value* key,
                                 Timestamp lo = kMinTimestamp,
                                 Timestamp hi = kMaxTimestamp) {
  std::vector<int64_t> out;
  stem.ProbeCollect(key, lo, hi, [&](const Tuple& t, const SmallBitset&) {
    out.push_back(t.cell(1).int64_value());
  });
  return out;
}

TEST(SteMTest, InsertAndSize) {
  SteM stem("s", KV(), /*key_field=*/0);
  EXPECT_EQ(stem.size(), 0u);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(2, 20, 2));
  EXPECT_EQ(stem.size(), 2u);
}

TEST(SteMTest, KeyedProbeFindsOnlyMatchingKey) {
  SteM stem("s", KV(), 0);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(1, 11, 2));
  stem.Insert(KVTuple(2, 20, 3));
  const Value key = Value::Int64(1);
  std::vector<int64_t> seen = ProbeValues(stem, &key);
  std::sort(seen.begin(), seen.end());  // Equal-key order is unspecified.
  EXPECT_EQ(seen, (std::vector<int64_t>{10, 11}));
}

TEST(SteMTest, NullKeyScansEverything) {
  SteM stem("s", KV(), 0);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(2, 20, 2));
  EXPECT_EQ(ProbeValues(stem, nullptr), (std::vector<int64_t>{10, 20}));
}

TEST(SteMTest, UnindexedProbeScansDespiteKey) {
  SteM stem("s", KV());  // No key field: every probe scans.
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(2, 20, 2));
  const Value key = Value::Int64(9);
  EXPECT_EQ(ProbeValues(stem, &key).size(), 2u);
  EXPECT_EQ(stem.scanned(), 2u);
}

TEST(SteMTest, WindowRestrictsProbe) {
  SteM stem("s", KV(), 0);
  for (Timestamp ts = 1; ts <= 10; ++ts) stem.Insert(KVTuple(1, ts, ts));
  const Value key = Value::Int64(1);
  std::vector<int64_t> seen = ProbeValues(stem, &key, 3, 7);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 4, 5, 6, 7}));
}

TEST(SteMTest, EvictBeforeRemovesOldState) {
  SteM stem("s", KV(), 0);
  for (Timestamp ts = 1; ts <= 10; ++ts) stem.Insert(KVTuple(1, ts, ts));
  EXPECT_EQ(stem.EvictBefore(6), 5u);
  EXPECT_EQ(stem.size(), 5u);
  const Value key = Value::Int64(1);
  std::vector<int64_t> seen = ProbeValues(stem, &key);
  ASSERT_EQ(seen.size(), 5u);
  for (int64_t v : seen) EXPECT_GE(v, 6);
}

TEST(SteMTest, EvictBeforeSweepsStragglersBehindNewerTuples) {
  SteM stem("s", KV(), 0);
  stem.Insert(KVTuple(1, 1, 10));
  stem.Insert(KVTuple(2, 2, 3));  // Straggler stored behind ts=10.
  stem.Insert(KVTuple(3, 3, 20));
  EXPECT_EQ(stem.EvictBefore(15), 2u);
  EXPECT_EQ(ProbeValues(stem, nullptr), (std::vector<int64_t>{3}));
  // The evicted keys left the index too.
  const Value key = Value::Int64(2);
  EXPECT_TRUE(ProbeValues(stem, &key).empty());
}

TEST(SteMTest, RetractionCancelsOneMatchingAssertion) {
  SteM stem("s", KV(), 0);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(1, 10, 1));  // A duplicate assertion.
  stem.Insert(KVTuple(1, 11, 2));
  Tuple retract = KVTuple(1, 10, 1);
  retract.set_retraction(true);
  stem.Insert(retract);
  EXPECT_EQ(stem.size(), 2u);  // One of the duplicates is gone.
  stem.Insert(retract);  // Cancels the other duplicate.
  stem.Insert(retract);  // Unmatched: a no-op.
  EXPECT_EQ(stem.size(), 1u);
  const Value key = Value::Int64(1);
  EXPECT_EQ(ProbeValues(stem, &key), (std::vector<int64_t>{11}));
}

TEST(SteMTest, StoresLineageWithTuples) {
  SteM stem("s", KV(), 0);
  stem.Insert(KVTuple(1, 10, 1), Queries({0, 2}));
  stem.Insert(KVTuple(1, 11, 2), Queries({1}));
  stem.Insert(KVTuple(1, 12, 3));  // Empty lineage (per-query mode).

  std::map<int64_t, SmallBitset> lineages;
  const Value key = Value::Int64(1);
  stem.ProbeCollect(&key, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple& t, const SmallBitset& q) {
                      lineages.emplace(t.cell(1).int64_value(), q);
                    });
  ASSERT_EQ(lineages.size(), 3u);
  EXPECT_EQ(lineages.at(10), Queries({0, 2}));
  EXPECT_EQ(lineages.at(11), Queries({1}));
  EXPECT_EQ(lineages.at(12).size_bits(), 0u);
}

TEST(SteMTest, ScrubQueryClearsBitEverywhere) {
  SteM stem("s", KV(), 0);
  stem.Insert(KVTuple(1, 10, 1), Queries({0, 1}));
  stem.Insert(KVTuple(2, 20, 2), Queries({1, 2}));
  stem.Insert(KVTuple(3, 30, 3));  // Too narrow to hold the bit.
  stem.ScrubQuery(1);
  size_t seen = 0;
  stem.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple&, const SmallBitset& q) {
                      ++seen;
                      if (q.size_bits() > 1) {
                        EXPECT_FALSE(q.Test(1));
                      }
                    });
  EXPECT_EQ(seen, 3u);
}

TEST(SteMTest, ExtractInstallCopyAndClearKeepLineage) {
  SteM from("a", KV(), 0);
  SteM to("b", KV(), 0);
  for (int64_t k = 0; k < 6; ++k) {
    from.Insert(KVTuple(k, k * 10, k), Queries({static_cast<size_t>(k)}));
  }
  // Lift the even keys, in arrival order, lineage included.
  auto moved =
      from.ExtractIf([](const Value& v) { return v.int64_value() % 2 == 0; });
  ASSERT_EQ(moved.size(), 3u);
  for (size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(moved[i].tuple.cell(0).int64_value(),
              static_cast<int64_t>(2 * i));
    EXPECT_EQ(moved[i].lineage, Queries({2 * i}));
  }
  EXPECT_EQ(from.size(), 3u);
  const Value zero = Value::Int64(0);
  EXPECT_TRUE(ProbeValues(from, &zero).empty());

  for (const auto& e : moved) to.Install(e);
  EXPECT_EQ(ProbeValues(to, &zero), (std::vector<int64_t>{0}));

  // CopyAll snapshots without removing; ClearAll then empties the store.
  auto copy = to.CopyAll();
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[1].lineage, Queries({2}));
  EXPECT_EQ(to.size(), 3u);
  to.ClearAll();
  EXPECT_EQ(to.size(), 0u);
  EXPECT_TRUE(ProbeValues(to, &zero).empty());
  // The store stays usable after a reset.
  to.Install(copy[0]);
  EXPECT_EQ(ProbeValues(to, &zero), (std::vector<int64_t>{0}));
}

TEST(SteMTest, CountersTrackProbesScansAndMatches) {
  SteM stem("s", KV(), 0);
  stem.Insert(KVTuple(1, 1, 1));
  stem.Insert(KVTuple(2, 2, 2));
  const Value key = Value::Int64(1);
  stem.ProbeCollect(&key, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple&, const SmallBitset&) {
                      stem.CountMatch();
                    });
  stem.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                    [](const Tuple&, const SmallBitset&) {});
  EXPECT_EQ(stem.probes(), 2u);
  EXPECT_EQ(stem.scanned(), 3u);  // One keyed hit, then a two-entry scan.
  EXPECT_EQ(stem.matches(), 1u);
}

// Property: symmetric-hash join via two SteMs == reference nested loops.
class SteMJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SteMJoinPropertyTest, SymmetricHashJoinMatchesNestedLoops) {
  Rng rng(GetParam());
  const int n = 200;
  const int64_t key_space = 20;

  SteM stem_s("S", KV(), 0);
  SteM stem_t("T", KV(), 0);
  std::vector<Tuple> s_tuples, t_tuples;

  size_t joined = 0;
  auto count = [&](const Tuple&, const SmallBitset&) { ++joined; };
  for (int i = 0; i < n; ++i) {
    const bool from_s = rng.NextBool(0.5);
    Tuple t = KVTuple(static_cast<int64_t>(rng.NextBounded(key_space)),
                      i, i);
    // Build into own SteM, then probe the other side.
    if (from_s) {
      stem_s.Insert(t);
      s_tuples.push_back(t);
      stem_t.ProbeCollect(&t.cell(0), kMinTimestamp, kMaxTimestamp, count);
    } else {
      stem_t.Insert(t);
      t_tuples.push_back(t);
      stem_s.ProbeCollect(&t.cell(0), kMinTimestamp, kMaxTimestamp, count);
    }
  }

  size_t expected = 0;
  for (const Tuple& s : s_tuples) {
    for (const Tuple& t : t_tuples) {
      if (s.cell(0) == t.cell(0)) ++expected;
    }
  }
  EXPECT_EQ(joined, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SteMJoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 42));

}  // namespace
}  // namespace tcq
