#ifndef TCQ_CACQ_SHARDED_ENGINE_H_
#define TCQ_CACQ_SHARDED_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "cacq/engine.h"
#include "eddy/routed_tuple.h"
#include "fjords/partitioned_queue.h"
#include "fjords/scheduler.h"
#include "flux/changelog.h"
#include "flux/partition.h"
#include "flux/rebalance.h"

namespace tcq {

/// Sharded parallel CACQ execution (§3, Fig. 4-5): N worker shards, each
/// owning a full CacqEngine — its own eddy, grouped filters and SteM
/// partitions — on its own ExecutionObject thread, fed by a real-threads
/// exchange that hash-partitions input on each stream's partition column
/// (the Flux routing policy, flux/partition.h), with an egress stage that
/// unions shard outputs back into one delivery order.
///
/// Correctness contract (DESIGN.md §11):
///  * Every query is registered on every shard at the same engine slot
///    (chosen here, centrally), so QueryIds agree across shards and each
///    shard runs the same plan over its key partition. Grouped filters
///    and residuals are key-oblivious, so partitioning them is trivially
///    correct; SteM joins are correct because both sides of every
///    equi-join must be partitioned on their join columns (AddQuery
///    rejects anything else), making matches shard-local exactly as in
///    Flux.
///  * Per-shard FIFO: tuples with equal partition keys traverse one shard
///    in arrival order. Cross-shard output order is NOT defined — results
///    are a multiset equal to single-shard execution, in exchange order.
///  * Control operations (AddQuery/RemoveQuery/EvictBefore/Quiesce) ride
///    the same per-shard task queues as data, executing on the shard
///    thread after everything enqueued before them (the actor model), so
///    no engine state is ever touched from two threads.
///  * Routing is dynamic: keys hash into fixed buckets and a PartitionMap
///    maps buckets to shards. MigrateBucket (manual, or driven by the
///    auto-rebalance controller) moves a bucket's SteM state between
///    shards mid-stream with a pause/drain/move/resume protocol that
///    preserves per-key FIFO and the result multiset (DESIGN.md §12).
class ShardedEngine {
 public:
  struct Options {
    size_t num_shards = 4;
    /// Routing policy + base seed for the per-shard eddies (shard i uses
    /// seed + i). Routing invariance makes results independent of this.
    std::string policy = "lottery";
    uint64_t seed = 7;
    /// Bounded exchange queues, in tasks (one task = one same-stream
    /// scatter group, up to a whole producer batch). Blocking producer
    /// ends give backpressure; consumers never block (the EO polls).
    size_t input_capacity = 256;
    size_t egress_capacity = 1024;
    /// Hash buckets in the PartitionMap (the migration granule). More
    /// buckets = finer-grained rebalancing at the cost of a larger routing
    /// table; must be >= num_shards to give every shard at least one.
    size_t num_buckets = 64;
    /// Spins a RebalanceController on Start() that watches shard backlog
    /// and migrates buckets automatically. Manual MigrateBucket() works
    /// either way.
    bool auto_rebalance = false;
    RebalanceController::Options rebalance;
    Eddy::Options eddy;
    /// Standby replicas per shard (Flux process pairs, §5 / DESIGN.md
    /// §13). 0 = no fault tolerance (a killed shard loses state); 1 gives
    /// each shard a warm standby fed by dual-routed changelog records and
    /// periodic state checkpoints, promotable with FailoverShard. Values
    /// above 1 are clamped to 1.
    size_t num_replicas = 0;
    /// Applied exchange tasks between standby checkpoints (the hydra
    /// changelog-plus-snapshot cadence). Smaller = shorter replay tails
    /// and faster failover, at more state-copy cost per task.
    uint64_t checkpoint_interval = 32;
    /// Non-null: primaries demote window-expired SteM state to this spool
    /// (keys shard-qualified as spool_prefix + "shard." + i + "." + ...).
    /// Standbys never demote — their state is a checkpoint copy of the
    /// primary's, and double-spooling would duplicate history.
    Spool* spool = nullptr;
    std::string spool_prefix;
  };

  ShardedEngine();
  explicit ShardedEngine(Options options);
  ~ShardedEngine();  // Stops and joins all shard threads.

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Declares a stream on every shard. `partition_column` is the column
  /// the exchange hashes on (the join/group key; defaults to column 0).
  /// Streams must be declared before Start() and before any query.
  Result<size_t> AddStream(const std::string& name, SchemaPtr schema,
                           size_t partition_column = 0);

  /// One emission from one shard: (query, full-width result tuple).
  using Emission = std::pair<QueryId, Tuple>;
  /// Where an emission batch came from: the shard that produced it, and
  /// the lane and release threshold of the exchange task it ran for.
  /// Batches of one shard reach the sink in that shard's task order, and
  /// the thresholds a shard echoes never go backwards, so a consumer can
  /// hold kArrival rows per shard and release them once the shard echoes
  /// a threshold at or past their timestamps. A task with a threshold
  /// yields a batch even when it emitted nothing.
  struct EgressTag {
    size_t shard = 0;
    IngressLane lane = IngressLane::kAll;
    Timestamp release = kMaxTimestamp;  ///< kMaxTimestamp = none.
  };
  /// Delivery callback, invoked on the egress thread with batches of
  /// emissions in shard-output order. Must not call back into this
  /// engine (Quiesce would self-deadlock) and must be set before Start().
  using TaggedSink =
      std::function<void(std::vector<Emission>&&, const EgressTag&)>;
  void SetSink(TaggedSink sink) { sink_ = std::move(sink); }
  /// SetSink for consumers that need no tags.
  using Sink = std::function<void(std::vector<Emission>&&)>;
  void SetSink(Sink sink) {
    sink_ = [sink = std::move(sink)](std::vector<Emission>&& batch,
                                     const EgressTag&) {
      sink(std::move(batch));
    };
  }

  /// Launches shard + egress threads. Requires at least one stream.
  void Start();

  /// Closes the exchange, drains every shard and egress to completion,
  /// then joins all threads. Idempotent. Pushes after Stop() fail.
  void Stop();

  /// Full-pipeline barrier: returns OK once everything pushed before the
  /// call has been routed, executed and delivered through the sink.
  /// Returns Unavailable (instead of hanging forever on a control
  /// barrier nobody will run) when a shard's worker thread has died —
  /// fail over the shard, then barrier again. Must not race with Stop().
  Status Quiesce();

  // ---- Process-pair HA (DESIGN.md §13) ----

  /// Requests the shard's worker thread to die at its next task boundary
  /// (the crash model the recovery protocol is built for: a batch is
  /// either fully applied and its emissions flushed, or untouched).
  /// Asynchronous — the worker observes the flag at its next step; use
  /// shard_alive() or FailoverShard() to synchronize. Without standby
  /// replicas the shard's state and queued work are simply lost (barriers
  /// then surface errors; see Quiesce).
  Status KillShard(size_t shard);

  /// Detects the dead primary, promotes its standby and resumes routing:
  /// waits for the killed worker to exit, drains the dead input queue
  /// (releasing blocked producers and stale barrier closures), restores
  /// the newest valid checkpoint into the standby, replays the changelog
  /// tail — suppressing emissions for records the primary already applied
  /// (the seq-floor dedup at the egress union; zero lost, zero duplicated
  /// results) — re-checkpoints, and starts a fresh worker plus a fresh
  /// standby. Requires Options::num_replicas > 0 and a prior KillShard.
  /// Serialized with migrations/barriers; must not race with Stop().
  Status FailoverShard(size_t shard);

  /// False once the shard's worker observed a kill and exited, true again
  /// after FailoverShard promotes the standby.
  bool shard_alive(size_t shard) const {
    return shards_[shard]->alive.load(std::memory_order_acquire);
  }

  /// Registers `spec` on every shard (identical QueryId on each, returned
  /// here). Callable while running: folds in through the control path, so
  /// the query sees exactly the tuples scattered after this returns.
  /// The id is the lowest free engine slot. A slot freed by RemoveQuery
  /// becomes free only once the egress thread has passed the removal's
  /// marker on every shard's output queue, so no emission of the old
  /// query can reach the sink under the new query's id.
  /// Rejects equi-joins whose join columns are not the partition columns
  /// of their streams — such a join would need cross-shard matches.
  /// AddQuery/RemoveQuery calls must be serialized by the caller (the
  /// Server's submission lock does): two racing registrations could
  /// interleave differently per shard and diverge the QueryIds.
  Result<QueryId> AddQuery(const CacqQuerySpec& spec);

  /// Unregisters `q` on every shard. Its slot returns to the free pool
  /// asynchronously, after the old query's queued emissions have reached
  /// the sink (one egress marker per shard; no extra barrier).
  Status RemoveQuery(QueryId q);

  /// Scatters a same-stream batch across the shards by partition column
  /// (one exchange task per non-empty shard). Blocks for queue space
  /// (backpressure). Requires Start(). `lane` selects which queries see
  /// the batch (see IngressLane; kAll = every query). `release` is the
  /// stream's release threshold as of this batch (kMaxTimestamp = none):
  /// every task carries it, and a shard the batch leaves without tuples
  /// gets a task with none when the threshold has moved past what it was
  /// last sent, so every shard echoes it to the sink. An empty batch with
  /// a threshold is such a punctuation (a heartbeat's, say). Release
  /// thresholds must come from one producer at a time (the Server's
  /// ingest lock).
  Status PushBatch(const std::string& stream, std::vector<Tuple> batch,
                   IngressLane lane = IngressLane::kAll,
                   Timestamp release = kMaxTimestamp);
  Status Push(const std::string& stream, Tuple tuple,
              IngressLane lane = IngressLane::kAll);

  /// Evicts SteM state older than `ts` on every shard (barriered).
  void EvictBefore(Timestamp ts);

  /// Moves one bucket's state to `to_shard` while data flows (Flux §2.4;
  /// DESIGN.md §12): pause the bucket (new arrivals buffer), drain the
  /// donor behind everything already scattered, extract the bucket's SteM
  /// state on the donor thread, install it on the recipient thread, flip
  /// the PartitionMap entry, replay the buffer to the recipient, resume.
  /// Per-key FIFO and the result multiset are preserved; tuples are
  /// neither lost nor duplicated. Serialized against other migrations,
  /// Quiesce, RemoveQuery and EvictBefore; a no-op if the bucket already
  /// lives on `to_shard`. Requires Start(); must not race with Stop().
  Status MigrateBucket(size_t bucket, size_t to_shard);

  const PartitionMap& partition_map() const { return partition_map_; }
  /// Non-null iff Options::auto_rebalance (valid between Start and Stop).
  RebalanceController* rebalance_controller() { return controller_.get(); }

  /// Cross-thread-safe migration statistics (tcq.rebalance.* views).
  struct RebalanceStats {
    uint64_t migrations = 0;    ///< Completed bucket moves.
    uint64_t moved_tuples = 0;  ///< SteM entries moved across shards.
    uint64_t moved_bytes = 0;   ///< Approximate payload of those entries.
    uint64_t buffered_tuples = 0;  ///< Arrivals parked during pauses.
  };
  RebalanceStats rebalance_stats() const;

  /// Cross-thread-safe per-shard replication state (tcq.ha.* views +
  /// Server::SnapshotMetrics replica rows). Empty when replication is off.
  struct ReplicaStats {
    bool alive = true;
    uint64_t applied_lsn = 0;     ///< Last task the primary fully applied.
    uint64_t logged_lsn = 0;      ///< Last record appended to the log.
    uint64_t snapshot_floor = 0;  ///< Records <= floor live in the snapshot.
    size_t changelog_records = 0;
    size_t changelog_bytes = 0;
    uint64_t checkpoints = 0;
    uint64_t torn_rejected = 0;  ///< Snapshots rejected as torn.
  };
  std::vector<ReplicaStats> replica_stats() const;

  /// Cumulative HA event counts (tcq.ha.* counters).
  struct HaStats {
    uint64_t failovers = 0;
    uint64_t replayed_tuples = 0;        ///< Changelog tuples re-injected.
    uint64_t suppressed_emissions = 0;   ///< Deduped at the egress union.
  };
  HaStats ha_stats() const;

  bool replication_enabled() const { return replication_ != nullptr; }
  /// The changelog/snapshot store, for tests (torn-checkpoint injection
  /// via SetSnapshotFault; direct replica inspection). Null when
  /// Options::num_replicas == 0.
  ReplicationController<EngineCheckpoint>* replication() {
    return replication_.get();
  }

  size_t num_shards() const { return options_.num_shards; }
  bool started() const { return started_; }
  size_t num_active_queries() const;
  const SourceLayout& layout() const { return layout_; }

  /// Cross-thread-safe per-shard statistics (relaxed atomics throughout).
  struct ShardStats {
    uint64_t routed = 0;     ///< Tuples scattered to the shard.
    uint64_t processed = 0;  ///< Tuples the worker injected.
    size_t queue_depth = 0;  ///< Input backlog, in exchange tasks.
    uint64_t eddy_decisions = 0;
    uint64_t eddy_emitted = 0;
  };
  std::vector<ShardStats> shard_stats() const;

  /// Shard i's engine, for introspection (stem snapshots, layout). Reads
  /// of non-atomic engine state are only safe after Quiesce() with no
  /// concurrent pushes, or before Start().
  const CacqEngine& engine(size_t shard) const {
    return *shards_[shard]->engine;
  }

 private:
  /// One unit of exchange work: a same-stream tuple group bound for one
  /// shard, or a control closure to run on the shard thread.
  struct ShardTask {
    size_t source = 0;
    std::vector<Tuple> tuples;
    std::function<void()> control;
    /// Log sequence number stamped by the replication tee at enqueue time
    /// (0 for control tasks, and for everything when replication is off).
    uint64_t lsn = 0;
    /// Lane the batch targets (DESIGN.md §15): the worker passes it
    /// through to CacqEngine::InjectBatch.
    IngressLane lane = IngressLane::kAll;
    /// Release threshold as of the batch, echoed on the egress item the
    /// worker flushes after the task (see EgressTag).
    Timestamp release = kMaxTimestamp;
  };
  /// One unit of egress work: an emission batch with the lane and release
  /// threshold of its task, or an egress barrier.
  struct EgressItem {
    std::vector<Emission> results;
    std::function<void()> control;
    IngressLane lane = IngressLane::kAll;
    Timestamp release = kMaxTimestamp;
  };

  struct Shard {
    std::unique_ptr<CacqEngine> engine;
    /// Warm standby (Options::num_replicas > 0): registered with the same
    /// streams/queries as the primary but EMPTY of state until a failover
    /// restores the newest checkpoint into it and replays the changelog
    /// tail. Touched only under migrate_mu_ (registration, failover) —
    /// never by the shard thread.
    std::unique_ptr<CacqEngine> standby;
    std::unique_ptr<FjordQueue<EgressItem>> output;
    /// Emissions collected by the engine sink since the last flush into
    /// `output`. Only the shard thread touches it while running.
    std::vector<Emission> pending;
    Counter routed;
    Counter processed;
    /// Worker liveness: flips false when the worker observes `kill` and
    /// exits, true again when FailoverShard starts a replacement.
    std::atomic<bool> alive{true};
    std::atomic<bool> kill{false};
    /// LSN of the last data task fully applied AND flushed by the worker.
    /// Everything <= this floor will reach the sink; replayed records at
    /// or under it are suppressed at the egress union (exactly-once).
    std::atomic<uint64_t> applied_lsn{0};
    /// Highest release threshold scattered to this shard. Producer side:
    /// written under the shared route lock by the one producer that sends
    /// thresholds, or under the exclusive one.
    Timestamp release_sent = kMinTimestamp;
    /// Guards the `engine` POINTER (not the engine) against the failover
    /// swap racing cross-thread introspection (shard_stats).
    mutable std::mutex engine_mu;
  };

  class WorkerModule;
  class EgressModule;

  struct SourceInfo {
    std::string name;
    size_t partition_column = 0;
    /// Kept so BuildStandby can re-register the stream after a promotion.
    SchemaPtr schema;
  };

  class ShardBarrier;

  /// Enqueues a control closure on shard `i`'s input queue without ever
  /// blocking behind a dead consumer: retries a non-blocking enqueue,
  /// giving up (false) if the shard dies or the queue closes.
  bool EnqueueControl(size_t i, std::function<void()> fn);
  /// Runs `fn(shard)` on every shard thread and waits for all of them.
  /// Returns Unavailable — with the barrier safely abandoned, so a stale
  /// closure drained later never touches the caller's frame — if any
  /// shard's worker died before running its closure.
  Status RunOnAllShards(const std::function<void(size_t)>& fn);
  /// Runs `fn` on shard `i`'s thread (behind all its queued data) and
  /// waits for it — the migration protocol's drain-then-act primitive.
  /// Same dead-shard semantics as RunOnAllShards.
  Status RunOnShard(size_t i, const std::function<void()>& fn);
  /// Shared wait half of the two above.
  Status WaitBarrier(const std::shared_ptr<ShardBarrier>& barrier,
                     const std::vector<size_t>& targets);
  /// Builds an empty engine registered with the primaries' streams and
  /// every live query at its slot — the next standby after a promotion.
  std::unique_ptr<CacqEngine> BuildStandby(size_t shard) const;
  /// Drains a dead shard's input queue from the failover thread: stale
  /// control closures run (they only count down abandoned barriers), data
  /// tasks are dropped — every one of them is in the changelog and will
  /// be replayed. Unblocks producers stuck on the full queue.
  void DrainDeadInput(size_t shard);
  /// DrainDeadInput for every shard whose worker has exited.
  void DrainDeadInputs();
  /// Acquires the exclusive route lock without blocking against stuck
  /// producers. A producer holds the shared lock while blocked on a dead
  /// primary's full input queue, and the failover that would normally
  /// drain that queue waits on migrate_mu_ — which every caller of this
  /// (MigrateBucket, ResumeBucket, FailoverShard) already holds. Draining
  /// dead inputs while spinning on try_lock breaks that cycle.
  void LockRoutesForUpdate(std::unique_lock<std::shared_mutex>& route);
  /// Snapshots shard `i`'s engine into its replica at `floor`. Must run on
  /// the thread that owns the engine (the worker, via a control closure or
  /// the checkpoint cadence; or the failover thread with the worker dead).
  void CheckpointShard(size_t shard, uint64_t floor);
  /// Unpauses the migrating bucket onto `final_owner` and replays the
  /// pause buffer to it — the common tail of success and abort paths.
  void ResumeBucket(size_t final_owner);
  /// Equi-join columns must be the partition columns of their streams.
  Status ValidatePartitioning(const CacqQuerySpec& spec) const;
  /// A Load observation for the RebalanceController: per-shard backlog in
  /// tuples (routed - processed) + cumulative per-bucket routed counts.
  RebalanceController::Load ObserveLoad() const;

  Options options_;
  /// key -> bucket -> shard; buckets are the migration granule. BucketOf
  /// is immutable; ShardOf entries flip only inside MigrateBucket.
  PartitionMap partition_map_;
  SourceLayout layout_;  ///< Mirror of every shard engine's layout.
  std::vector<SourceInfo> sources_;
  std::map<std::string, size_t> source_index_;
  TaggedSink sink_;
  /// Engine slot table: the live spec at each slot (BuildStandby installs
  /// each at its slot), or a removed query whose emissions may still sit
  /// in the egress queues. Guarded by migrate_mu_ once started.
  struct Slot {
    std::optional<CacqQuerySpec> spec;
    bool draining = false;
  };
  std::vector<Slot> slots_;
  /// Draining slots whose egress markers have all passed, appended by the
  /// egress thread; AddQuery returns them to the free pool.
  std::mutex released_mu_;
  std::vector<QueryId> released_slots_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// The exchange: per-shard bounded task queues + tcq.shard.* telemetry.
  std::unique_ptr<PartitionedQueue<ShardTask>> input_;
  std::vector<std::unique_ptr<ExecutionObject>> shard_eos_;
  std::unique_ptr<ExecutionObject> egress_eo_;
  bool started_ = false;
  bool stopped_ = false;

  // ---- Migration machinery (DESIGN.md §12) ----
  // Lock order: migrate_mu_ -> route_mu_ -> buffer_mu_. Shard threads take
  // none of these, so barriers inside the critical sections always drain.
  /// Serializes migrations against each other and against the barriered
  /// mutators (Quiesce/AddQuery/RemoveQuery/EvictBefore), so extracted
  /// state can never miss a scrub/eviction and Quiesce never runs with
  /// tuples parked in the pause buffer.
  std::mutex migrate_mu_;
  /// Producers scatter under a shared lock; MigrateBucket takes it
  /// exclusively to mark/unmark the paused bucket, guaranteeing no
  /// producer is mid-scatter across the pause edge.
  std::shared_mutex route_mu_;
  /// Bucket currently paused for migration (SIZE_MAX = none). Guarded by
  /// route_mu_.
  size_t migrating_bucket_ = SIZE_MAX;
  /// Arrivals for the paused bucket, in producer order. Guarded by
  /// buffer_mu_ (producers append under the shared route lock, so they may
  /// race each other — same as racing scatters to one queue).
  struct ParkedTuple {
    size_t source;
    Tuple tuple;
    IngressLane lane;
    Timestamp release;
  };
  std::mutex buffer_mu_;
  std::vector<ParkedTuple> move_buffer_;
  /// Cumulative tuples routed per bucket (controller's planning signal).
  std::vector<Counter> bucket_routed_;

  std::unique_ptr<RebalanceController> controller_;
  // tcq.rebalance.* telemetry (registered in the constructor).
  Counter* migrations_ = nullptr;
  Counter* moved_tuples_ = nullptr;
  Counter* moved_bytes_ = nullptr;
  Counter* buffered_tuples_ = nullptr;
  Histogram* pause_us_ = nullptr;

  // ---- Replication machinery (DESIGN.md §13) ----
  /// Per-shard changelog + snapshot store; non-null iff num_replicas > 0.
  /// Records are appended by the exchange tee (in queue order), snapshots
  /// by the worker threads at the checkpoint cadence, and both are read
  /// back by FailoverShard.
  std::unique_ptr<ReplicationController<EngineCheckpoint>> replication_;
  // tcq.ha.* telemetry (registered in the constructor).
  Counter* ha_checkpoints_ = nullptr;
  Counter* ha_changelog_bytes_ = nullptr;
  Counter* ha_failovers_ = nullptr;
  Counter* ha_replayed_tuples_ = nullptr;
  Counter* ha_suppressed_ = nullptr;
  Counter* ha_torn_ = nullptr;
  Histogram* ha_recovery_us_ = nullptr;
};

}  // namespace tcq

#endif  // TCQ_CACQ_SHARDED_ENGINE_H_
