#ifndef TCQ_STEM_STEM_H_
#define TCQ_STEM_STEM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "expr/ast.h"
#include "telemetry/metrics.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"

namespace tcq {

class Spool;

namespace stem_internal {
/// Process-wide SteM telemetry aggregated across all state modules
/// (DESIGN.md §10); per-instance detail remains on SteM::stats().
struct AggregateMetrics {
  Counter* inserts;
  Counter* probes;
  Counter* matches;
  Counter* evictions;
  Counter* scanned;
  Gauge* resident_bytes;  ///< Stored-tuple bytes in RAM (SteM+SharedSteM).
  static AggregateMetrics& Get();
};

/// Adjusts tcq.stem.resident_bytes (no-op under disabled metrics).
void TrackResidentBytes(int64_t delta);
}  // namespace stem_internal

/// A State Module (§2.2, [RDH02]): a temporary repository of homogeneous
/// tuples — "half of a traditional join operator". Supports insert (build),
/// search (probe) and delete (evict). Probes return the concatenations of
/// the probe tuple with every stored match; with a hash index on the join
/// attribute, an Eddy routing build+probe tuples through two SteMs yields a
/// symmetric hash join, and richer routings yield hybrid join plans.
///
/// Eviction: window queries expire tuples by timestamp; a capacity bound
/// evicts FIFO (the oldest state) when exceeded, which also serves as the
/// out-of-core pressure-relief valve for this in-memory reproduction.
class SteM {
 public:
  struct Options {
    /// Field index (into this SteM's schema) carrying the join key that the
    /// hash index is built on; -1 disables the index (probes scan).
    int key_field = -1;
    /// FIFO capacity bound; inserting beyond it evicts the oldest tuple.
    size_t max_tuples = SIZE_MAX;
  };

  SteM(std::string name, SchemaPtr schema, Options options);
  ~SteM();

  SteM(const SteM&) = delete;
  SteM& operator=(const SteM&) = delete;

  /// Evicted tuples (window expiry, capacity FIFO) demote to `spool`
  /// under `key` instead of being freed (DESIGN.md §16); retraction
  /// cancellations still delete. Caller keeps `spool` alive past this
  /// SteM.
  void SetSpool(Spool* spool, std::string key);

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }
  int key_field() const { return options_.key_field; }

  /// Adds a build tuple. Evicts FIFO when at capacity.
  void Insert(const Tuple& tuple);

  /// Probes with tuple `probe` whose join-key is cell `probe_key_field`.
  /// Every stored tuple s with matching key yields a concatenation —
  /// probe-then-stored when `probe_on_left`, else stored-then-probe —
  /// filtered by the optional `residual` predicate, which must be bound
  /// against the corresponding concatenated schema. With key_field == -1
  /// (or probe_key_field == -1) the probe scans all stored tuples and
  /// relies entirely on `residual`.
  TupleVector Probe(const Tuple& probe, int probe_key_field,
                    bool probe_on_left, const ExprPtr& residual) const;

  /// Restricts a probe to stored tuples whose timestamp lies in
  /// [window_lo, window_hi] — used by windowed joins (band joins, §4.1).
  TupleVector ProbeWindow(const Tuple& probe, int probe_key_field,
                          bool probe_on_left, const ExprPtr& residual,
                          Timestamp window_lo, Timestamp window_hi) const;

  /// Evicts stored tuples with timestamp < ts (assumes mostly-ordered
  /// arrival; out-of-order stragglers are caught by a full sweep).
  /// Returns the number evicted.
  size_t EvictBefore(Timestamp ts);

  /// Evicts everything outside [lo, hi].
  size_t EvictOutside(Timestamp lo, Timestamp hi);

  void Clear();

  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Applies `fn` to every live tuple in arrival order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < tuples_.size(); ++i) {
      if (!dead_[i]) fn(tuples_[i]);
    }
  }

  /// Low-level probe: applies `fn(const Tuple&)` to every live stored tuple
  /// matching `key` (or to all live tuples when key == nullptr) whose
  /// timestamp lies in [window_lo, window_hi]. The caller combines tuples
  /// itself — the Eddy uses this to merge sparse full-width tuples rather
  /// than concatenating narrow ones.
  template <typename Fn>
  void ProbeCollect(const Value* key, Timestamp window_lo,
                    Timestamp window_hi, Fn&& fn) const {
    ++stats_.probes;
    TCQ_METRIC(stem_internal::AggregateMetrics::Get().probes->Add(1));
    auto consider = [&](const Tuple& stored) {
      ++stats_.scanned;
      TCQ_METRIC(stem_internal::AggregateMetrics::Get().scanned->Add(1));
      if (stored.timestamp() < window_lo || stored.timestamp() > window_hi) {
        return;
      }
      fn(stored);
    };
    if (key != nullptr && options_.key_field >= 0) {
      auto [lo, hi] = index_.equal_range(*key);
      for (auto it = lo; it != hi; ++it) {
        const uint64_t id = it->second;
        if (id < base_id_) continue;
        const size_t pos = static_cast<size_t>(id - base_id_);
        if (pos >= tuples_.size() || dead_[pos]) continue;
        if (tuples_[pos].cell(static_cast<size_t>(options_.key_field)) !=
            *key) {
          continue;
        }
        consider(tuples_[pos]);
      }
    } else {
      for (size_t i = 0; i < tuples_.size(); ++i) {
        if (!dead_[i]) consider(tuples_[i]);
      }
    }
  }

  /// Counts one join result the caller kept from a ProbeCollect visit.
  /// ProbeCollect cannot count matches itself: the caller applies the
  /// arrival-order dedup and the residual predicate after the visit.
  void CountMatch() const {
    ++stats_.matches;
    TCQ_METRIC(stem_internal::AggregateMetrics::Get().matches->Add(1));
  }

  // -- Statistics -------------------------------------------------------
  // Internally the SteM counts with telemetry counters (relaxed atomics,
  // also mirrored into the process-wide `tcq.stem.*` aggregates); this
  // plain struct is the snapshot view those counters are read through.
  struct Stats {
    uint64_t inserts = 0;
    uint64_t probes = 0;
    uint64_t matches = 0;
    uint64_t evictions = 0;
    uint64_t scanned = 0;  ///< Stored tuples examined across all probes.
  };
  /// Thin view over the live counters (consistent enough for monitoring;
  /// each field is read atomically).
  Stats stats() const {
    return Stats{stats_.inserts.value(), stats_.probes.value(),
                 stats_.matches.value(), stats_.evictions.value(),
                 stats_.scanned.value()};
  }

 private:
  void EvictAt(size_t pos);
  /// EvictAt plus spool demotion — the window-expiry / capacity path
  /// (cancellations bypass this and truly delete).
  void DemoteAt(size_t pos);
  void CompactFront();
  TupleVector ProbeImpl(const Tuple& probe, int probe_key_field,
                        bool probe_on_left, const ExprPtr& residual,
                        Timestamp window_lo, Timestamp window_hi) const;

  const std::string name_;
  const SchemaPtr schema_;
  const Options options_;

  // Spool hook (null = evictions free memory, the legacy behavior).
  Spool* spool_ = nullptr;
  std::string spool_key_;
  int64_t resident_bytes_ = 0;

  // Storage: append-only deque addressed by global id = base_id_ + offset.
  // dead_ marks evicted positions; the front compacts when fully dead.
  std::deque<Tuple> tuples_;
  std::deque<bool> dead_;
  uint64_t base_id_ = 0;
  size_t live_count_ = 0;

  // Hash index: key value -> global ids (may contain stale/dead ids that
  // probes filter lazily).
  std::unordered_multimap<Value, uint64_t, ValueHash> index_;

  /// Live per-instance statistics (field names mirror the Stats view).
  struct StatCounters {
    Counter inserts;
    Counter probes;
    Counter matches;
    Counter evictions;
    Counter scanned;
  };
  mutable StatCounters stats_;
};

using SteMPtr = std::shared_ptr<SteM>;

}  // namespace tcq

#endif  // TCQ_STEM_STEM_H_
