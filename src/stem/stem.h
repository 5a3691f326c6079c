#ifndef TCQ_STEM_STEM_H_
#define TCQ_STEM_STEM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/clock.h"
#include "telemetry/metrics.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace tcq {

class Spool;

namespace stem_internal {
/// Process-wide SteM telemetry aggregated across all state modules
/// (DESIGN.md §10); per-instance probe/scan/match counts stay on the SteM.
struct AggregateMetrics {
  Counter* inserts;
  Counter* probes;
  Counter* matches;
  Counter* evictions;
  Counter* scanned;
  Gauge* resident_bytes;  ///< Stored-tuple bytes in RAM.
  static AggregateMetrics& Get();
};

/// Adjusts tcq.stem.resident_bytes (no-op under disabled metrics).
void TrackResidentBytes(int64_t delta);
}  // namespace stem_internal

/// A State Module (§2.2, [RDH02]): a temporary repository of homogeneous
/// tuples — "half of a traditional join operator". Supports insert (build),
/// search (probe) and delete (evict). With a hash index on the join
/// attribute, an Eddy routing build+probe tuples through two SteMs yields a
/// symmetric hash join, and richer routings yield hybrid join plans.
///
/// Every entry carries an optional query lineage: the set of queries the
/// tuple still satisfied when it was built. The per-query runner stores
/// empty lineages; the shared CACQ engine stores each tuple's lineage, and
/// its probes intersect lineages so one physical SteM serves the joins of
/// many queries at once (§3.1). Newly added queries see only tuples stored
/// after their arrival (CACQ semantics: no history; PSoup adds it).
class SteM {
 public:
  /// `key_field` = field index (into `schema`) carrying the join key the
  /// hash index is built on; -1 disables the index (probes scan).
  SteM(std::string name, SchemaPtr schema, int key_field = -1);
  ~SteM();

  SteM(const SteM&) = delete;
  SteM& operator=(const SteM&) = delete;

  /// Window-expired state demotes to `spool` under `key` instead of being
  /// freed (DESIGN.md §16). The spooled record is the bare tuple (replay
  /// re-derives query sets). Retraction cancellations, migration
  /// extraction and replica resets never demote. Caller keeps `spool`
  /// alive past this SteM.
  void SetSpool(Spool* spool, std::string key);

  const std::string& name() const { return name_; }
  int key_field() const { return key_field_; }

  /// Adds a build tuple with its query lineage (empty outside CACQ). A
  /// retraction instead cancels the matching stored assertion, whatever
  /// lineage it narrowed to (DESIGN.md §15), so future probes no longer
  /// join against it; unmatched retractions are no-ops (counted upstream).
  void Insert(const Tuple& tuple, const SmallBitset& lineage = {});

  /// Applies `fn(stored_tuple, stored_lineage)` to every live stored tuple
  /// matching `key` (nullptr = scan) whose timestamp lies in [lo, hi]. The
  /// caller combines tuples itself — the Eddy merges sparse full-width
  /// tuples rather than concatenating narrow ones.
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
      fn(e.tuple, e.lineage);
    };
    if (key != nullptr && key_field_ >= 0) {
      auto [b, e] = index_.equal_range(*key);
      for (auto it = b; it != e; ++it) {
        const uint64_t id = it->second;
        if (id < base_id_) continue;  // Compacted away.
        const size_t pos = static_cast<size_t>(id - base_id_);
        if (pos >= entries_.size()) continue;
        // equal_range is hash-based: confirm true key equality.
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

  /// Counts one join result the caller kept from a ProbeCollect visit.
  /// ProbeCollect cannot count matches itself: the caller applies the
  /// arrival-order dedup, the lineage intersection and the residual
  /// predicate after the visit.
  void CountMatch() const {
    ++matches_;
    TCQ_METRIC(stem_internal::AggregateMetrics::Get().matches->Add(1));
  }

  /// Evicts every live tuple with timestamp < ts, demoting it to the spool
  /// when one is attached. Always a full sweep of storage, so stragglers
  /// stored behind newer tuples go too. Returns the number evicted.
  size_t EvictBefore(Timestamp ts);

  /// A stored tuple lifted out of a SteM for state migration: the tuple
  /// (which carries its timestamp and arrival seq) plus its query lineage.
  struct ExtractedEntry {
    Tuple tuple;
    SmallBitset lineage;
  };

  /// Removes every live entry whose key satisfies `pred` and returns them
  /// in storage (arrival) order. Removed entries are tombstoned (tuple left
  /// intact — CompactFront still reads a dead front entry's key to clean
  /// the index) and the front compacted, exactly like eviction. With
  /// key_field < 0 (scan-only SteM) `pred` sees the tuple's first cell —
  /// callers partitioning by key never build such SteMs (the exchange
  /// requires a partition column), but the fallback keeps extraction total.
  template <typename Pred>
  std::vector<ExtractedEntry> ExtractIf(Pred&& pred) {
    std::vector<ExtractedEntry> out;
    const size_t key =
        key_field_ >= 0 ? static_cast<size_t>(key_field_) : size_t{0};
    for (Entry& e : entries_) {
      if (e.dead || !pred(e.tuple.cell(key))) continue;
      out.push_back(ExtractedEntry{e.tuple, e.lineage});
      Tombstone(e);
    }
    CompactFront();
    return out;
  }

  /// Re-inserts an extracted entry on the recipient, preserving lineage,
  /// timestamp, and seq (Insert copies all three from the tuple).
  void Install(const ExtractedEntry& entry) {
    Insert(entry.tuple, entry.lineage);
  }

  /// Copies every live entry in storage (arrival) order WITHOUT removing
  /// it — the checkpoint flavor of ExtractIf. The primary keeps serving
  /// probes from the same state the replica snapshot now holds.
  std::vector<ExtractedEntry> CopyAll() const;

  /// Drops every live entry (a replica discarding its previous snapshot
  /// before installing a new one), without demotion.
  void ClearAll();

  /// Clears query q's bit from every stored lineage (query removed).
  void ScrubQuery(size_t q);

  size_t size() const { return live_; }
  uint64_t probes() const { return probes_.value(); }
  uint64_t scanned() const { return scanned_.value(); }
  uint64_t matches() const { return matches_.value(); }

 private:
  struct Entry {
    Tuple tuple;
    SmallBitset lineage;
    bool dead = false;
  };

  /// Marks a live entry dead and releases its resident bytes.
  void Tombstone(Entry& e);
  /// Pops dead entries off the front, erasing their index entries.
  void CompactFront();

  const std::string name_;
  const SchemaPtr schema_;
  const int key_field_;

  // Spool hook (null = window expiry frees memory).
  Spool* spool_ = nullptr;
  std::string spool_key_;
  int64_t resident_bytes_ = 0;

  // Storage: append-only deque addressed by global id = base_id_ + offset.
  // Dead entries are tombstones; the front compacts when fully dead.
  std::deque<Entry> entries_;
  uint64_t base_id_ = 0;
  size_t live_ = 0;
  // Hash index: key value -> global ids (may contain stale/dead ids that
  // probes filter lazily).
  std::unordered_multimap<Value, uint64_t, ValueHash> index_;
  // Telemetry counters (relaxed atomics): the probes()/scanned()/matches()
  // accessors are thin views, and the process-wide tcq.stem.* aggregates
  // see every probe too.
  mutable Counter probes_;
  mutable Counter scanned_;
  mutable Counter matches_;
};

using SteMPtr = std::shared_ptr<SteM>;

}  // namespace tcq

#endif  // TCQ_STEM_STEM_H_
