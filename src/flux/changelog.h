#ifndef TCQ_FLUX_CHANGELOG_H_
#define TCQ_FLUX_CHANGELOG_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "tuple/tuple.h"

namespace tcq {

/// Process-pair replication state for one shard of a Flux exchange (§5 of
/// the paper; the decorated-automaton/changelog shape): a *snapshot* of
/// the primary's engine state as of some log position, plus the
/// *changelog* of every data batch routed to the primary after that
/// position. The standby recovers by installing the snapshot and
/// replaying the changelog tail — together they reconstruct exactly the
/// primary's state at its last task boundary.
///
/// Log sequence numbers (LSNs) are assigned here, at append time, and
/// must be assigned in the primary's queue order: the exchange calls
/// Append under its per-partition enqueue serialization, so record order
/// in the log always equals task order in the shard's input queue.
///
/// Snapshot is a caller-defined payload (the cacq EngineCheckpoint); this
/// layer only tracks its log position and validity, keeping flux below
/// cacq in the dependency order.
template <typename Snapshot>
class ShardReplica {
 public:
  struct Record {
    uint64_t lsn = 0;
    size_t source = 0;
    std::vector<Tuple> tuples;
    /// Consistency lane the batch was injected under (DESIGN.md §15);
    /// replay must reuse it so the standby seeds the same query lineage.
    IngressLane lane = IngressLane::kAll;
    /// Release threshold the batch carried (kMaxTimestamp = none): replay
    /// echoes it to the egress so rows held there are released exactly
    /// as the primary would have released them.
    Timestamp release = kMaxTimestamp;
  };

  /// Everything a failover needs, copied atomically: the newest valid
  /// snapshot (if any) and every record after its floor, in LSN order.
  struct RecoveryPlan {
    bool has_snapshot = false;
    Snapshot snapshot{};
    uint64_t snapshot_floor = 0;  ///< All records <= floor are in snapshot.
    std::vector<Record> tail;
  };

  /// Cross-thread-safe counters for telemetry / SnapshotMetrics rows.
  struct Stats {
    uint64_t next_lsn = 0;       ///< LSN of the last appended record.
    uint64_t snapshot_floor = 0;
    size_t log_records = 0;
    size_t log_bytes = 0;        ///< Approximate payload of live records.
    uint64_t checkpoints = 0;    ///< Snapshots accepted.
    uint64_t torn_rejected = 0;  ///< Snapshots rejected as torn.
  };

  /// Logs one data batch bound for the primary; returns its LSN (>= 1).
  /// Must be called in the shard's queue order (the exchange tee holds
  /// its per-partition lock across Append + Enqueue).
  uint64_t Append(size_t source, std::vector<Tuple> tuples,
                  IngressLane lane = IngressLane::kAll,
                  Timestamp release = kMaxTimestamp) {
    std::lock_guard<std::mutex> lock(mu_);
    Record rec;
    rec.lsn = ++next_lsn_;
    rec.source = source;
    rec.tuples = std::move(tuples);
    rec.lane = lane;
    rec.release = release;
    log_bytes_ += ApproxBytes(rec);
    log_.push_back(std::move(rec));
    return next_lsn_;
  }

  /// Installs a snapshot covering every record with lsn <= `floor` and
  /// truncates those records. A torn snapshot (`valid` false — the
  /// checkpointer died or fault injection corrupted it) is REJECTED: the
  /// previous snapshot and the full changelog stay, so recovery falls
  /// back one checkpoint rather than losing state. Returns acceptance.
  bool StoreSnapshot(uint64_t floor, Snapshot snap, bool valid) {
    std::lock_guard<std::mutex> lock(mu_);
    TCQ_CHECK(floor <= next_lsn_) << "snapshot floor beyond the log head";
    if (!valid) {
      ++torn_rejected_;
      return false;
    }
    TCQ_CHECK(floor >= snapshot_floor_) << "snapshot floor moved backwards";
    snapshot_ = std::move(snap);
    snapshot_floor_ = floor;
    has_snapshot_ = true;
    ++checkpoints_;
    TruncateLocked(floor);
    return true;
  }

  RecoveryPlan MakeRecoveryPlan() const {
    std::lock_guard<std::mutex> lock(mu_);
    RecoveryPlan plan;
    plan.has_snapshot = has_snapshot_;
    if (has_snapshot_) plan.snapshot = snapshot_;
    plan.snapshot_floor = snapshot_floor_;
    plan.tail.assign(log_.begin(), log_.end());
    return plan;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.next_lsn = next_lsn_;
    s.snapshot_floor = snapshot_floor_;
    s.log_records = log_.size();
    s.log_bytes = log_bytes_;
    s.checkpoints = checkpoints_;
    s.torn_rejected = torn_rejected_;
    return s;
  }

 private:
  static size_t ApproxBytes(const Record& rec) {
    size_t bytes = sizeof(Record);
    for (const Tuple& t : rec.tuples) {
      bytes += sizeof(Tuple) + t.arity() * sizeof(Value);
    }
    return bytes;
  }

  void TruncateLocked(uint64_t floor) {
    while (!log_.empty() && log_.front().lsn <= floor) {
      log_bytes_ -= ApproxBytes(log_.front());
      log_.pop_front();
    }
  }

  mutable std::mutex mu_;
  uint64_t next_lsn_ = 0;
  std::deque<Record> log_;
  size_t log_bytes_ = 0;
  Snapshot snapshot_{};
  uint64_t snapshot_floor_ = 0;
  bool has_snapshot_ = false;
  uint64_t checkpoints_ = 0;
  uint64_t torn_rejected_ = 0;
};

/// The replication controller for an N-shard exchange: one ShardReplica
/// per shard plus the checkpoint cadence policy (every
/// `checkpoint_interval` applied tasks the primary re-snapshots, hydra
/// style, and the changelog tail resets). A fault hook lets tests tear a
/// checkpoint in flight.
template <typename Snapshot>
class ReplicationController {
 public:
  struct Options {
    /// Applied data tasks between snapshots. Smaller = shorter replay
    /// tails and faster failover, at more copy cost per task.
    uint64_t checkpoint_interval = 32;
  };

  /// Fault hook, called with (shard, snapshot) before the snapshot is
  /// stored; returning false marks it torn (the replica rejects it).
  using SnapshotFault = std::function<bool(size_t, const Snapshot&)>;

  ReplicationController(size_t num_shards, Options options)
      : options_(options), replicas_(num_shards) {
    for (auto& r : replicas_) r = std::make_unique<ShardReplica<Snapshot>>();
  }

  ShardReplica<Snapshot>& replica(size_t shard) { return *replicas_[shard]; }
  const ShardReplica<Snapshot>& replica(size_t shard) const {
    return *replicas_[shard];
  }
  size_t num_shards() const { return replicas_.size(); }
  const Options& options() const { return options_; }

  /// True when the cadence calls for a fresh snapshot: the changelog tail
  /// behind `applied_lsn` has outgrown the interval.
  bool ShouldCheckpoint(size_t shard, uint64_t applied_lsn) const {
    const auto s = replicas_[shard]->stats();
    return applied_lsn >= s.snapshot_floor + options_.checkpoint_interval;
  }

  /// Runs the snapshot through the fault hook (if any) and stores it.
  /// Returns whether the replica accepted it.
  bool StoreSnapshot(size_t shard, uint64_t floor, Snapshot snap,
                     bool valid = true) {
    if (valid && fault_) valid = fault_(shard, snap);
    return replicas_[shard]->StoreSnapshot(floor, std::move(snap), valid);
  }

  void SetSnapshotFault(SnapshotFault fault) { fault_ = std::move(fault); }

 private:
  Options options_;
  std::vector<std::unique_ptr<ShardReplica<Snapshot>>> replicas_;
  SnapshotFault fault_;
};

}  // namespace tcq

#endif  // TCQ_FLUX_CHANGELOG_H_
