#ifndef TCQ_CACQ_SHARED_STEM_H_
#define TCQ_CACQ_SHARED_STEM_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/clock.h"
#include "stem/stem.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace tcq {

/// A SteM variant for shared (CACQ) processing: every stored tuple carries
/// its query lineage — the set of queries it still satisfied when it was
/// built. Probes intersect lineages, so one physical SteM serves the joins
/// of many queries at once (§3.1). Newly added queries see only tuples
/// stored after their arrival (CACQ semantics: no history; PSoup adds it).
class SharedSteM {
 public:
  SharedSteM(std::string name, SchemaPtr schema, int key_field);
  ~SharedSteM();

  SharedSteM(const SharedSteM&) = delete;
  SharedSteM& operator=(const SharedSteM&) = delete;

  /// Window-expired state demotes to `spool` under `key` instead of being
  /// freed (DESIGN.md §16). Lineage stays in RAM's domain: the spooled
  /// record is the bare tuple (replay re-derives query sets). Retraction
  /// cancellations, migration extraction and replica resets never demote.
  void SetSpool(Spool* spool, std::string key);

  const std::string& name() const { return name_; }
  int key_field() const { return key_field_; }

  void Insert(const Tuple& tuple, const SmallBitset& queries);

  /// Applies `fn(stored_tuple, stored_lineage)` to every live stored tuple
  /// matching `key` (nullptr = scan) with timestamp within [lo, hi].
  template <typename Fn>
  void ProbeCollect(const Value* key, Timestamp lo, Timestamp hi,
                    Fn&& fn) const {
    ++probes_;
    TCQ_METRIC(stem_internal::AggregateMetrics::Get().probes->Add(1));
    auto consider = [&](size_t pos) {
      const Entry& e = entries_[pos];
      if (e.dead) return;
      ++scanned_;
      TCQ_METRIC(stem_internal::AggregateMetrics::Get().scanned->Add(1));
      const Timestamp ts = e.tuple.timestamp();
      if (ts < lo || ts > hi) return;
      fn(e.tuple, e.queries);
    };
    if (key != nullptr && key_field_ >= 0) {
      auto [b, e] = index_.equal_range(*key);
      for (auto it = b; it != e; ++it) {
        const uint64_t id = it->second;
        if (id < base_id_) continue;
        const size_t pos = static_cast<size_t>(id - base_id_);
        if (pos >= entries_.size()) continue;
        if (entries_[pos].tuple.cell(static_cast<size_t>(key_field_)) !=
            *key) {
          continue;
        }
        consider(pos);
      }
    } else {
      for (size_t i = 0; i < entries_.size(); ++i) consider(i);
    }
  }

  /// Counts one join result the caller kept from a ProbeCollect visit
  /// (the caller applies the dedup and lineage intersection).
  void CountMatch() const {
    ++matches_;
    TCQ_METRIC(stem_internal::AggregateMetrics::Get().matches->Add(1));
  }

  /// Evicts tuples with timestamp < ts; returns the count evicted.
  size_t EvictBefore(Timestamp ts);

  /// A stored tuple lifted out of a SteM for state migration: the tuple
  /// (which carries its timestamp and arrival seq) plus its query lineage.
  struct ExtractedEntry {
    Tuple tuple;
    SmallBitset queries;
  };

  /// Removes every live entry whose key satisfies `pred` and returns them
  /// in storage (arrival) order. Dead entries are skipped; removed entries
  /// are tombstoned (tuple left intact — CompactFront still reads a dead
  /// front entry's key to clean the index) and the front compacted, exactly
  /// like eviction, so indexes stay consistent. With key_field < 0
  /// (scan-only SteM) `pred` sees the tuple's first cell — callers
  /// partitioning by key never build such SteMs (the exchange requires a
  /// partition column), but the fallback keeps extraction total.
  template <typename Pred>
  std::vector<ExtractedEntry> ExtractIf(Pred&& pred) {
    std::vector<ExtractedEntry> out;
    const size_t key =
        key_field_ >= 0 ? static_cast<size_t>(key_field_) : size_t{0};
    for (Entry& e : entries_) {
      if (e.dead) continue;
      if (!pred(e.tuple.cell(key))) continue;
      out.push_back(ExtractedEntry{e.tuple, e.queries});
      e.dead = true;
      --live_;
      TrackBytes(-static_cast<int64_t>(e.tuple.ApproxBytes()));
    }
    CompactFront();
    return out;
  }

  /// Re-inserts an extracted entry on the recipient, preserving lineage,
  /// timestamp, and seq (Insert copies all three from the tuple).
  void Install(const ExtractedEntry& entry) {
    Insert(entry.tuple, entry.queries);
  }

  /// Copies every live entry in storage (arrival) order WITHOUT removing
  /// it — the checkpoint flavor of ExtractIf. The primary keeps serving
  /// probes from the same state the replica snapshot now holds.
  std::vector<ExtractedEntry> CopyAll() const {
    std::vector<ExtractedEntry> out;
    out.reserve(live_);
    for (const Entry& e : entries_) {
      if (e.dead) continue;
      out.push_back(ExtractedEntry{e.tuple, e.queries});
    }
    return out;
  }

  /// Drops every live entry (a replica discarding its previous snapshot
  /// before installing a new one). Indexes stay consistent via the same
  /// tombstone + front-compaction path eviction uses.
  void ClearAll() {
    for (Entry& e : entries_) {
      if (e.dead) continue;
      e.dead = true;
      --live_;
      TrackBytes(-static_cast<int64_t>(e.tuple.ApproxBytes()));
    }
    CompactFront();
  }

  /// Clears query q's bit from every stored lineage (query removed).
  void ScrubQuery(size_t q);

  size_t size() const { return live_; }
  uint64_t probes() const { return probes_; }
  uint64_t scanned() const { return scanned_; }
  uint64_t matches() const { return matches_; }

 private:
  struct Entry {
    Tuple tuple;
    SmallBitset queries;
    bool dead = false;
  };

  void CompactFront();
  void TrackBytes(int64_t delta) {
    resident_bytes_ += delta;
    stem_internal::TrackResidentBytes(delta);
  }

  const std::string name_;
  const SchemaPtr schema_;
  const int key_field_;

  // Spool hook (null = window expiry frees memory, the legacy behavior).
  Spool* spool_ = nullptr;
  std::string spool_key_;
  int64_t resident_bytes_ = 0;

  std::deque<Entry> entries_;
  uint64_t base_id_ = 0;
  size_t live_ = 0;
  std::unordered_multimap<Value, uint64_t, ValueHash> index_;
  // Telemetry counters (relaxed atomics): the probes()/scanned()/matches()
  // accessors are thin views, and the process-wide tcq.stem.* aggregates
  // see every shared probe too.
  mutable Counter probes_;
  mutable Counter scanned_;
  mutable Counter matches_;
};

using SharedSteMPtr = std::shared_ptr<SharedSteM>;

}  // namespace tcq

#endif  // TCQ_CACQ_SHARED_STEM_H_
