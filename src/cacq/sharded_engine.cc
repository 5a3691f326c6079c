#include "cacq/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "expr/predicates.h"

namespace tcq {

namespace {

/// Minimal countdown latch (std::latch stays out so the TSan build's
/// libstdc++ coverage is irrelevant): the egress barrier waits on it while
/// the egress thread counts it down. Only used where the counting thread
/// provably cannot die (the egress stage); shard barriers use the
/// abandonable ShardBarrier below instead.
class Latch {
 public:
  explicit Latch(size_t n) : n_(n) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    TCQ_CHECK(n_ > 0);
    if (--n_ == 0) cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return n_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t n_;
};

/// Exchange edge flavors: producers block for space (backpressure toward
/// the pushing client), consumers never block (the ExecutionObject polls
/// and idles, and shutdown never has to interrupt a blocked thread).
QueueOptions ShardEdgeOptions(size_t capacity) {
  return QueueOptions{capacity, QueueEnd::kBlocking, QueueEnd::kNonBlocking,
                      false, nullptr};
}

}  // namespace

/// A control barrier that survives the death of the threads it waits on.
/// The closure lives INSIDE the barrier (kept alive by the shared_ptr each
/// enqueued wrapper holds), so a waiter can abandon the barrier and return
/// an error while stale wrappers are still queued on a dead shard: when the
/// failover drain later runs them, they see `abandoned_`, skip the closure
/// (whose captures may reference the long-gone caller frame) and just count
/// down. Abandon() synchronizes with in-flight closures — it waits until
/// nothing is executing — so the caller's frame is never touched after an
/// error return.
class ShardedEngine::ShardBarrier {
 public:
  ShardBarrier(std::function<void(size_t)> fn, size_t num_shards)
      : fn_(std::move(fn)), done_(num_shards, 0) {}

  /// Runs on the shard thread (or the failover drain): executes the
  /// closure unless the waiter gave up, then counts down.
  void Run(size_t shard) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!abandoned_) {
      ++executing_;
      lock.unlock();
      fn_(shard);
      lock.lock();
      --executing_;
    }
    done_[shard] = 1;
    ++completed_;
    cv_.notify_all();
  }

 private:
  friend class ShardedEngine;
  std::function<void(size_t)> fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> done_;  ///< Indexed by shard id.
  size_t completed_ = 0;    ///< Wrappers that ran (executed or abandoned).
  size_t executing_ = 0;    ///< Wrappers currently inside the closure.
  bool abandoned_ = false;
};

/// Drains one shard's exchange queue: data tasks are injected into the
/// shard engine (emissions buffered by the engine sink, flushed to the
/// egress queue after every task), control tasks run inline. kDone once
/// the exchange is closed and drained; the shard then closes its egress
/// queue, propagating end-of-stream downstream.
///
/// Crash model (DESIGN.md §13): a KillShard request is observed at task
/// boundaries only, so the worker dies with every prior batch fully
/// applied AND flushed and every later batch untouched — the granularity
/// the LSN/suppression recovery protocol depends on.
class ShardedEngine::WorkerModule : public FjordModule {
 public:
  WorkerModule(ShardedEngine* parent, size_t shard)
      : FjordModule("shard-worker-" + std::to_string(shard)),
        parent_(parent),
        shard_(shard) {}

  StepResult Step(size_t max_tasks) override {
    Shard& sh = *parent_->shards_[shard_];
    if (sh.kill.load(std::memory_order_acquire)) return Die(sh);
    FjordQueue<ShardTask>& in = parent_->input_->partition(shard_);
    scratch_.clear();
    const size_t n = in.DequeueUpTo(max_tasks == 0 ? 1 : max_tasks,
                                    &scratch_);
    if (n == 0) {
      if (in.Exhausted()) {
        FlushEmissions(sh);
        sh.output->Close();
        return StepResult::kDone;
      }
      return StepResult::kIdle;
    }
    for (ShardTask& task : scratch_) {
      if (task.control) {
        // Emissions from earlier tasks must reach the egress queue before
        // the control runs: Quiesce's phase-2 barrier rides behind them.
        FlushEmissions(sh);
        task.control();
        continue;
      }
      if (sh.kill.load(std::memory_order_acquire)) {
        // Killed mid-scratch: this batch and the rest are dropped whole —
        // each is in the changelog, above the applied floor, and will be
        // replayed (and counted) by the failover.
        return Die(sh);
      }
      const Status st =
          sh.engine->InjectBatch(task.source, task.tuples, task.lane);
      TCQ_CHECK(st.ok()) << "shard " << shard_
                         << " inject failed: " << st.ToString();
      sh.processed += task.tuples.size();
      FlushEmissions(sh, task.lane, task.release);
      if (task.lsn != 0) {
        // The floor advances only after the flush: everything at or under
        // it is IN the egress queue and will reach the sink, so replay can
        // suppress those records' emissions without losing results.
        sh.applied_lsn.store(task.lsn, std::memory_order_release);
        MaybeCheckpoint(sh);
      }
    }
    return StepResult::kDidWork;
  }

 private:
  /// Cooperative crash at a task boundary. The egress queue stays OPEN: a
  /// failover feeds recovered emissions into it, and Stop() closes it for
  /// shards nobody recovers. `alive` flips last — barrier waiters and the
  /// failover poll it.
  StepResult Die(Shard& sh) {
    FlushEmissions(sh);
    sh.alive.store(false, std::memory_order_release);
    return StepResult::kDone;
  }

  void MaybeCheckpoint(Shard& sh) {
    ReplicationController<EngineCheckpoint>* rep = parent_->replication_.get();
    if (rep == nullptr) return;
    const uint64_t floor = sh.applied_lsn.load(std::memory_order_relaxed);
    if (!rep->ShouldCheckpoint(shard_, floor)) return;
    parent_->CheckpointShard(shard_, floor);
  }

  /// Moves the task's emissions to the egress queue, tagged with its lane
  /// and release threshold; a threshold goes out even with no emissions,
  /// so the sink can release held rows.
  void FlushEmissions(Shard& sh, IngressLane lane = IngressLane::kAll,
                      Timestamp release = kMaxTimestamp) {
    if (sh.pending.empty() && release == kMaxTimestamp) return;
    EgressItem item;
    item.results = std::move(sh.pending);
    item.lane = lane;
    item.release = release;
    sh.pending.clear();
    // Blocking enqueue: egress backpressure stalls this shard, not the
    // process (the egress thread always drains).
    sh.output->Enqueue(std::move(item));
  }

  ShardedEngine* parent_;
  const size_t shard_;
  std::vector<ShardTask> scratch_;
};

/// The merge/union half of the exchange: round-robins over every shard's
/// egress queue and hands emission batches to the engine sink in arrival
/// order. kDone once every shard closed its queue and nothing is left.
class ShardedEngine::EgressModule : public FjordModule {
 public:
  explicit EgressModule(ShardedEngine* parent)
      : FjordModule("shard-egress"), parent_(parent) {}

  StepResult Step(size_t max_items) override {
    bool any_work = false;
    bool all_exhausted = true;
    for (size_t i = 0; i < parent_->shards_.size(); ++i) {
      Shard* shard = parent_->shards_[i].get();
      scratch_.clear();
      const size_t n =
          shard->output->DequeueUpTo(max_items == 0 ? 1 : max_items,
                                     &scratch_);
      for (EgressItem& item : scratch_) {
        if (item.control) {
          item.control();
          continue;
        }
        if (parent_->sink_) {
          parent_->sink_(std::move(item.results),
                         EgressTag{i, item.lane, item.release});
        }
      }
      if (n > 0) any_work = true;
      if (!shard->output->Exhausted()) all_exhausted = false;
    }
    if (any_work) return StepResult::kDidWork;
    return all_exhausted ? StepResult::kDone : StepResult::kIdle;
  }

 private:
  ShardedEngine* parent_;
  std::vector<EgressItem> scratch_;
};

ShardedEngine::ShardedEngine() : ShardedEngine(Options()) {}

ShardedEngine::ShardedEngine(Options options)
    : options_(std::move(options)),
      partition_map_(std::max(options_.num_buckets, options_.num_shards),
                     options_.num_shards == 0 ? 1 : options_.num_shards) {
  TCQ_CHECK(options_.num_shards > 0);
  options_.num_replicas = std::min<size_t>(options_.num_replicas, 1);
  bucket_routed_.resize(partition_map_.num_buckets());
  MetricRegistry& r = MetricRegistry::Global();
  migrations_ = r.GetCounter("tcq.rebalance.migrations");
  moved_tuples_ = r.GetCounter("tcq.rebalance.moved_tuples");
  moved_bytes_ = r.GetCounter("tcq.rebalance.moved_bytes");
  buffered_tuples_ = r.GetCounter("tcq.rebalance.buffered_tuples");
  pause_us_ = r.GetHistogram("tcq.rebalance.pause_us");
  ha_checkpoints_ = r.GetCounter("tcq.ha.checkpoints");
  ha_changelog_bytes_ = r.GetCounter("tcq.ha.changelog_bytes");
  ha_failovers_ = r.GetCounter("tcq.ha.failovers");
  ha_replayed_tuples_ = r.GetCounter("tcq.ha.replayed_tuples");
  ha_suppressed_ = r.GetCounter("tcq.ha.suppressed_emissions");
  ha_torn_ = r.GetCounter("tcq.ha.torn_snapshots");
  ha_recovery_us_ = r.GetHistogram("tcq.ha.recovery_us");
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    CacqEngine::Options eo;
    eo.policy = options_.policy;
    eo.seed = options_.seed + i;  // Decorrelated exploration per shard.
    eo.eddy = options_.eddy;
    if (options_.spool != nullptr) {
      eo.spool = options_.spool;
      eo.spool_prefix =
          options_.spool_prefix + "shard." + std::to_string(i) + ".";
    }
    shard->engine = std::make_unique<CacqEngine>(eo);
    if (options_.num_replicas > 0) {
      // The warm standby: identical construction (same seed — routing
      // invariance makes replayed results match the primary's multiset),
      // minus the spool: standby state is a checkpoint copy of the
      // primary's, and double-spooling would duplicate history.
      eo.spool = nullptr;
      eo.spool_prefix.clear();
      shard->standby = std::make_unique<CacqEngine>(eo);
    }
    shard->output = std::make_unique<FjordQueue<EgressItem>>(
        ShardEdgeOptions(options_.egress_capacity));
    Shard* raw = shard.get();
    // Runs on the shard thread mid-InjectBatch; the worker flushes
    // `pending` into the egress queue after every task.
    shard->engine->SetSink([raw](QueryId q, const Tuple& t) {
      raw->pending.emplace_back(q, t);
    });
    shards_.push_back(std::move(shard));
  }
  input_ = std::make_unique<PartitionedQueue<ShardTask>>(
      options_.num_shards, ShardEdgeOptions(options_.input_capacity),
      "tcq.shard");
  if (options_.num_replicas > 0) {
    ReplicationController<EngineCheckpoint>::Options ro;
    ro.checkpoint_interval = options_.checkpoint_interval;
    replication_ = std::make_unique<ReplicationController<EngineCheckpoint>>(
        options_.num_shards, ro);
    // Dual-routing: every data task is logged to the shard's changelog at
    // enqueue time, under the exchange's per-partition tee lock, so log
    // order IS queue order. The record gets the LSN stamped back onto the
    // task; the worker advances the applied floor as it processes them.
    input_->SetTee([this](size_t p, ShardTask& task, size_t) {
      if (task.control) return;  // Only the data path is logged.
      task.lsn = replication_->replica(p).Append(
          task.source, std::vector<Tuple>(task.tuples), task.lane,
          task.release);
      size_t bytes = 0;
      for (const Tuple& t : task.tuples) {
        bytes += sizeof(Tuple) + t.arity() * sizeof(Value);
      }
      ha_changelog_bytes_->Add(bytes);
    });
  }
}

ShardedEngine::~ShardedEngine() { Stop(); }

Result<size_t> ShardedEngine::AddStream(const std::string& name,
                                        SchemaPtr schema,
                                        size_t partition_column) {
  if (started_ || stopped_) {
    return Status::FailedPrecondition(
        "streams must be declared before Start()");
  }
  if (partition_column >= schema->num_fields()) {
    return Status::OutOfRange("partition column out of range for " + name);
  }
  if (source_index_.count(name) != 0) {
    return Status::AlreadyExists("stream already declared: " + name);
  }
  size_t index = 0;
  for (auto& shard : shards_) {
    TCQ_ASSIGN_OR_RETURN(index, shard->engine->AddStream(name, schema));
    if (shard->standby != nullptr) {
      TCQ_ASSIGN_OR_RETURN(const size_t mirror,
                           shard->standby->AddStream(name, schema));
      TCQ_CHECK(mirror == index);
    }
  }
  const size_t mirror = layout_.AddSource(name, schema);
  TCQ_CHECK(mirror == index);
  source_index_[name] = index;
  if (sources_.size() <= index) sources_.resize(index + 1);
  sources_[index] = SourceInfo{name, partition_column, schema};
  return index;
}

void ShardedEngine::Start() {
  TCQ_CHECK(!started_ && !stopped_) << "ShardedEngine starts exactly once";
  TCQ_CHECK(!sources_.empty()) << "declare streams before Start()";
  started_ = true;
  shard_eos_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto eo = std::make_unique<ExecutionObject>("shard-" + std::to_string(i));
    eo->AddModule(std::make_shared<WorkerModule>(this, i));
    eo->Start();
    shard_eos_.push_back(std::move(eo));
  }
  egress_eo_ = std::make_unique<ExecutionObject>("shard-egress");
  egress_eo_->AddModule(std::make_shared<EgressModule>(this));
  egress_eo_->Start();
  if (options_.auto_rebalance) {
    controller_ = std::make_unique<RebalanceController>(
        &partition_map_, [this] { return ObserveLoad(); },
        [this](size_t bucket, size_t to) { return MigrateBucket(bucket, to); },
        options_.rebalance);
    controller_->Start();
  }
}

void ShardedEngine::Stop() {
  if (!started_ || stopped_) return;
  // The controller must stop before the exchange closes: a migration in
  // flight against closing queues would trip the control-enqueue checks.
  if (controller_ != nullptr) controller_->Stop();
  stopped_ = true;
  // Close the exchange; each live worker drains its queue, flushes
  // emissions, closes its egress queue and reports done. Join() waits for
  // that before stopping the thread — nothing in flight is dropped.
  input_->CloseAll();
  for (auto& eo : shard_eos_) {
    if (eo != nullptr) eo->Join();
  }
  // A worker that died via KillShard never closed its egress queue (a
  // failover would have fed recovered results into it). Close those now or
  // the egress module never sees end-of-stream.
  for (auto& shard : shards_) {
    if (!shard->alive.load(std::memory_order_acquire)) shard->output->Close();
  }
  egress_eo_->Join();
}

bool ShardedEngine::EnqueueControl(size_t i, std::function<void()> fn) {
  ShardTask task;
  task.control = std::move(fn);
  FjordQueue<ShardTask>& q = input_->partition(i);
  for (;;) {
    switch (q.TryEnqueue(task)) {
      case FjordQueue<ShardTask>::TryResult::kAccepted:
        return true;
      case FjordQueue<ShardTask>::TryResult::kClosed:
        return false;
      case FjordQueue<ShardTask>::TryResult::kFull:
        // A full queue with a live consumer drains; behind a dead one it
        // never would — give up (the caller abandons its barrier).
        if (!shards_[i]->alive.load(std::memory_order_acquire)) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        break;
    }
  }
}

Status ShardedEngine::WaitBarrier(
    const std::shared_ptr<ShardBarrier>& barrier,
    const std::vector<size_t>& targets) {
  std::unique_lock<std::mutex> lock(barrier->mu_);
  for (;;) {
    if (barrier->completed_ == targets.size()) return Status::OK();
    size_t dead = SIZE_MAX;
    for (size_t t : targets) {
      if (!barrier->done_[t] &&
          !shards_[t]->alive.load(std::memory_order_acquire)) {
        dead = t;
        break;
      }
    }
    if (dead != SIZE_MAX) {
      // The shard died with our closure still queued. Abandon the barrier
      // (late wrappers become no-ops) and wait out any closure mid-flight
      // on a live shard, so nothing touches the caller's frame after the
      // error return.
      barrier->abandoned_ = true;
      barrier->cv_.wait(lock, [&] { return barrier->executing_ == 0; });
      return Status::Unavailable(
          "shard " + std::to_string(dead) +
          "'s worker died before the control barrier; fail over the shard "
          "and retry");
    }
    // Poll: a kill can flip `alive` without ever waking this cv.
    barrier->cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

Status ShardedEngine::RunOnAllShards(const std::function<void(size_t)>& fn) {
  if (!started_ || stopped_) {
    for (size_t i = 0; i < shards_.size(); ++i) fn(i);
    return Status::OK();
  }
  auto barrier = std::make_shared<ShardBarrier>(fn, shards_.size());
  std::vector<size_t> targets;
  targets.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!EnqueueControl(i, [barrier, i] { barrier->Run(i); })) {
      std::unique_lock<std::mutex> lock(barrier->mu_);
      barrier->abandoned_ = true;
      barrier->cv_.wait(lock, [&] { return barrier->executing_ == 0; });
      return Status::Unavailable(
          "shard " + std::to_string(i) +
          " is dead (or the engine stopped); fail over the shard and retry");
    }
    targets.push_back(i);
  }
  return WaitBarrier(barrier, targets);
}

Status ShardedEngine::RunOnShard(size_t i, const std::function<void()>& fn) {
  if (!started_ || stopped_) {
    fn();
    return Status::OK();
  }
  auto barrier = std::make_shared<ShardBarrier>([&fn](size_t) { fn(); },
                                                shards_.size());
  if (!EnqueueControl(i, [barrier, i] { barrier->Run(i); })) {
    return Status::Unavailable(
        "shard " + std::to_string(i) +
        " is dead (or the engine stopped); fail over the shard and retry");
  }
  return WaitBarrier(barrier, {i});
}

Status ShardedEngine::ValidatePartitioning(const CacqQuerySpec& spec) const {
  if (spec.where == nullptr || layout_.num_sources() == 0) {
    return Status::OK();  // Nothing to join on; CacqEngine validates.
  }
  const SchemaPtr& schema = layout_.full_schema();
  for (const ExprPtr& factor : ExtractConjuncts(spec.where)) {
    if (factor == nullptr) continue;
    auto ej = MatchEquiJoin(factor);
    if (!ej.has_value()) continue;
    auto ca = schema->IndexOf(ej->left_column);
    auto cb = schema->IndexOf(ej->right_column);
    if (!ca.ok() || !cb.ok()) continue;  // CacqEngine reports the error.
    const size_t sa = layout_.SourceIndexOf(schema->field(*ca).qualifier);
    const size_t sb = layout_.SourceIndexOf(schema->field(*cb).qualifier);
    if (sa == sb) continue;  // Same-source equality: residual work.
    const size_t col_a = *ca - layout_.offset(sa);
    const size_t col_b = *cb - layout_.offset(sb);
    if (col_a != sources_[sa].partition_column ||
        col_b != sources_[sb].partition_column) {
      return Status::InvalidArgument(
          "equi-join " + factor->ToString() +
          " does not match the shard partition columns of its streams; "
          "matches would span shards (declare the streams partitioned on "
          "their join columns)");
    }
  }
  return Status::OK();
}

Result<QueryId> ShardedEngine::AddQuery(const CacqQuerySpec& spec) {
  TCQ_RETURN_NOT_OK(ValidatePartitioning(spec));
  // Serialized with migrations AND failovers: a registration interleaved
  // with a standby promotion would leave the replica set divergent.
  std::lock_guard<std::mutex> mig(migrate_mu_);
  {
    std::lock_guard<std::mutex> lock(released_mu_);
    for (QueryId s : released_slots_) slots_[s].draining = false;
    released_slots_.clear();
  }
  QueryId slot = 0;
  while (slot < slots_.size() &&
         (slots_[slot].spec.has_value() || slots_[slot].draining)) {
    ++slot;
  }
  std::vector<Status> statuses(shards_.size());
  TCQ_RETURN_NOT_OK(RunOnAllShards([this, slot, &spec, &statuses](size_t i) {
    statuses[i] = shards_[i]->engine->AddQueryAt(slot, spec);
    // Re-snapshot at the registration point: a failover then never replays
    // pre-registration records under the new query (whose slot may carry
    // an earlier query's lineage in older snapshots).
    if (statuses[i].ok() && replication_ != nullptr) {
      CheckpointShard(i,
                      shards_[i]->applied_lsn.load(std::memory_order_relaxed));
    }
  }));
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  // Mirror onto the standbys (from this thread — a standby has no thread
  // of its own) and into the table the next standby is rebuilt from.
  for (auto& shard : shards_) {
    if (shard->standby == nullptr) continue;
    TCQ_RETURN_NOT_OK(shard->standby->AddQueryAt(slot, spec));
  }
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  slots_[slot].spec = spec;
  return slot;
}

Status ShardedEngine::RemoveQuery(QueryId q) {
  // Removal scrubs the query's bit from every stored lineage; serialized
  // with migrations so extracted-but-not-yet-installed state can't skip
  // the scrub and resurrect the query's results on the recipient.
  std::lock_guard<std::mutex> mig(migrate_mu_);
  if (q >= slots_.size() || !slots_[q].spec.has_value()) {
    return Status::NotFound("no such active query");
  }
  // With the pipeline running, the old query's emissions may still be
  // queued for egress behind the removal. Each shard enqueues a marker
  // right after removing the query (its worker flushed every earlier
  // emission first); the slot is reusable once the egress thread has
  // passed all of them.
  const bool via_egress = started_ && !stopped_;
  auto markers = std::make_shared<std::atomic<size_t>>(shards_.size());
  std::vector<Status> statuses(shards_.size());
  TCQ_RETURN_NOT_OK(RunOnAllShards([this, q, via_egress, markers,
                                    &statuses](size_t i) {
    statuses[i] = shards_[i]->engine->RemoveQuery(q);
    // The scrub changed state outside the logged data path: re-snapshot so
    // a failover can't replay pre-removal lineage.
    if (statuses[i].ok() && replication_ != nullptr) {
      CheckpointShard(i,
                      shards_[i]->applied_lsn.load(std::memory_order_relaxed));
    }
    if (via_egress) {
      EgressItem marker;
      marker.control = [this, q, markers] {
        if (markers->fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(released_mu_);
          released_slots_.push_back(q);
        }
      };
      shards_[i]->output->Enqueue(std::move(marker));
    }
  }));
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  for (auto& shard : shards_) {
    if (shard->standby == nullptr) continue;
    TCQ_RETURN_NOT_OK(shard->standby->RemoveQuery(q));
  }
  slots_[q].spec.reset();
  slots_[q].draining = via_egress;
  return Status::OK();
}

Status ShardedEngine::PushBatch(const std::string& stream,
                                std::vector<Tuple> batch, IngressLane lane,
                                Timestamp release) {
  if (!started_) {
    return Status::FailedPrecondition("Start() the engine before pushing");
  }
  if (stopped_) return Status::Unavailable("engine stopped");
  const auto it = source_index_.find(stream);
  if (it == source_index_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  if (batch.empty() && release == kMaxTimestamp) return Status::OK();
  const size_t source = it->second;
  const size_t key_column = sources_[source].partition_column;
  // Scatter: group by bucket -> shard so each shard receives ONE exchange
  // task per producer batch (amortizing queue costs), in producer order —
  // per-key FIFO holds because one key always maps to one bucket and a
  // bucket has exactly one owner at a time. The shared route lock spans
  // the whole scatter: MigrateBucket's exclusive acquisition therefore
  // proves no producer straddles a pause edge (a scatter sees the bucket
  // either entirely before the pause or entirely paused).
  std::shared_lock<std::shared_mutex> route(route_mu_);
  std::vector<std::vector<Tuple>> groups(shards_.size());
  for (Tuple& t : batch) {
    const size_t bucket = partition_map_.BucketOf(t, key_column);
    // Live in every build (not TCQ_METRIC): the rebalance controller
    // plans from these, so they are adaptivity state, not observation.
    bucket_routed_[bucket].Add(1);
    if (bucket == migrating_bucket_) {
      // Paused for migration: park in producer order; MigrateBucket
      // replays the buffer to the new owner before unpausing.
      std::lock_guard<std::mutex> lock(buffer_mu_);
      move_buffer_.push_back(
          ParkedTuple{source, std::move(t), lane, release});
      TCQ_METRIC(buffered_tuples_->Add(1));
      continue;
    }
    groups[partition_map_.ShardOf(bucket)].push_back(std::move(t));
  }
  for (size_t p = 0; p < groups.size(); ++p) {
    const bool echo =
        release != kMaxTimestamp && release > shards_[p]->release_sent;
    if (groups[p].empty() && !echo) continue;
    if (echo) shards_[p]->release_sent = release;
    ShardTask task;
    task.source = source;
    task.tuples = std::move(groups[p]);
    task.lane = lane;
    task.release = release;
    const size_t count = task.tuples.size();
    if (!input_->EnqueuePartition(p, std::move(task), count)) {
      return Status::Unavailable("engine stopped mid-scatter");
    }
    shards_[p]->routed += count;
  }
  TCQ_METRIC(input_->RefreshDepthStats());
  return Status::OK();
}

Status ShardedEngine::Push(const std::string& stream, Tuple tuple,
                           IngressLane lane) {
  std::vector<Tuple> one;
  one.push_back(std::move(tuple));
  return PushBatch(stream, std::move(one), lane);
}

Status ShardedEngine::Quiesce() {
  if (!started_ || stopped_) return Status::OK();
  // Serialize against migrations first: a migration in flight may hold
  // tuples in the pause buffer, which the barriers below cannot see. Once
  // migrate_mu_ is ours the buffer is empty and everything is in queues.
  std::lock_guard<std::mutex> mig(migrate_mu_);
  // Phase 1: a control barrier behind all data on every shard queue —
  // when it fires, every prior tuple has been executed and its emissions
  // flushed into the egress queues. Surfaces Unavailable instead of
  // hanging when a shard's worker has died (fail over, then retry).
  TCQ_RETURN_NOT_OK(RunOnAllShards([](size_t) {}));
  // Phase 2: a barrier behind those emissions on every egress queue —
  // when it fires, the sink has seen everything. The egress thread cannot
  // die, so the plain latch is safe here.
  Latch latch(shards_.size());
  for (auto& shard : shards_) {
    EgressItem item;
    item.control = [&latch] { latch.CountDown(); };
    const bool ok = shard->output->Enqueue(std::move(item));
    TCQ_CHECK(ok) << "egress barrier on a stopped engine";
  }
  latch.Wait();
  return Status::OK();
}

void ShardedEngine::EvictBefore(Timestamp ts) {
  // Serialized with migrations so in-transit extracted state (which an
  // all-shards eviction barrier would never visit) can't dodge a window
  // eviction and get installed stale on the recipient.
  std::lock_guard<std::mutex> mig(migrate_mu_);
  const Status st = RunOnAllShards([this, ts](size_t i) {
    shards_[i]->engine->EvictBefore(ts);
    // Eviction changed state outside the logged data path: re-snapshot so
    // a failover can't resurrect evicted entries from an older checkpoint
    // plus the changelog.
    if (replication_ != nullptr) {
      CheckpointShard(i,
                      shards_[i]->applied_lsn.load(std::memory_order_relaxed));
    }
  });
  if (!st.ok()) {
    TCQ_LOG(Warn) << "EvictBefore skipped a dead shard: " << st.ToString();
  }
}

Status ShardedEngine::KillShard(size_t shard) {
  if (!started_) {
    return Status::FailedPrecondition("Start() the engine before killing");
  }
  if (stopped_) return Status::Unavailable("engine stopped");
  if (shard >= shards_.size()) return Status::OutOfRange("shard out of range");
  shards_[shard]->kill.store(true, std::memory_order_release);
  return Status::OK();
}

void ShardedEngine::DrainDeadInput(size_t shard) {
  FjordQueue<ShardTask>& q = input_->partition(shard);
  std::vector<ShardTask> tasks;
  for (;;) {
    tasks.clear();
    if (q.DequeueUpTo(64, &tasks) == 0) return;
    for (ShardTask& t : tasks) {
      // Stale barrier wrappers only count down their (abandoned) barriers:
      // every barrier op holds migrate_mu_, the failover holds it now, so
      // none of them can still have a live waiter. Data tasks are dropped —
      // each is in the changelog and will be replayed.
      if (t.control) t.control();
    }
  }
}

void ShardedEngine::DrainDeadInputs() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Only queues whose worker has EXITED: a killed-but-live worker may
    // still be applying tasks and advancing the floor, and a concurrent
    // drain could drop records under it — records whose emissions the
    // floor then falsely claims are in the egress queue. Death is at most
    // one Step away once the kill flag is up, so waiting for it keeps the
    // acquisition loops live.
    if (!shards_[i]->alive.load(std::memory_order_acquire)) {
      DrainDeadInput(i);
    }
  }
}

void ShardedEngine::LockRoutesForUpdate(
    std::unique_lock<std::shared_mutex>& route) {
  for (;;) {
    DrainDeadInputs();
    if (route.try_lock()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void ShardedEngine::CheckpointShard(size_t shard, uint64_t floor) {
  EngineCheckpoint ckpt = shards_[shard]->engine->CheckpointState();
  if (replication_->StoreSnapshot(shard, floor, std::move(ckpt))) {
    ha_checkpoints_->Add(1);
  } else {
    ha_torn_->Add(1);
  }
}

Status ShardedEngine::FailoverShard(size_t shard) {
  if (!started_) {
    return Status::FailedPrecondition("Start() the engine before failover");
  }
  if (stopped_) return Status::Unavailable("engine stopped");
  if (shard >= shards_.size()) return Status::OutOfRange("shard out of range");
  if (replication_ == nullptr) {
    return Status::FailedPrecondition(
        "no standby replicas (set Options::num_replicas)");
  }
  Shard& sh = *shards_[shard];
  if (!sh.kill.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "primary still alive (KillShard first)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Serialized with migrations, registrations and barriers: nobody may
  // mutate routing or engine state mid-promotion.
  std::lock_guard<std::mutex> mig(migrate_mu_);
  // 1. Wait for the worker to observe the kill at its next task boundary
  // and exit (it polls the flag every step, even when idle), then reap it.
  while (sh.alive.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  shard_eos_[shard]->Join();
  shard_eos_[shard].reset();
  // 2. Take the route lock exclusively while keeping the dead queue
  // drained. A producer holding the shared lock can only be blocked on the
  // full queue this drain empties, so alternating try-lock with drain
  // always terminates; after the final drain under the exclusive lock the
  // partition is quiescent and the changelog is the complete record of
  // every unapplied task.
  std::unique_lock<std::shared_mutex> route(route_mu_, std::defer_lock);
  LockRoutesForUpdate(route);
  DrainDeadInput(shard);
  // 3. Recover the standby: newest valid snapshot, then the changelog
  // tail. Records at or under the primary's applied floor rebuild SteM
  // state but their emissions are SUPPRESSED — the primary flushed those
  // results into the egress queue before advancing the floor, and the
  // egress queue always drains, so they reach the sink exactly once.
  // Records above the floor are the lost work: their emissions flow and
  // they count as processed.
  auto plan = replication_->replica(shard).MakeRecoveryPlan();
  CacqEngine* standby = sh.standby.get();
  TCQ_CHECK(standby != nullptr);
  if (plan.has_snapshot) {
    const Status restored = standby->RestoreCheckpoint(plan.snapshot);
    TCQ_CHECK(restored.ok()) << "standby restore failed: "
                             << restored.ToString();
  }
  const uint64_t applied = sh.applied_lsn.load(std::memory_order_acquire);
  std::vector<Emission> scratch;
  standby->SetSink([&scratch](QueryId q, const Tuple& t) {
    scratch.emplace_back(q, t);
  });
  uint64_t replayed = 0;
  uint64_t suppressed = 0;
  uint64_t tail_lsn = plan.snapshot_floor;
  for (const auto& rec : plan.tail) {
    scratch.clear();
    const Status st = standby->InjectBatch(rec.source, rec.tuples, rec.lane);
    TCQ_CHECK(st.ok()) << "changelog replay failed: " << st.ToString();
    replayed += rec.tuples.size();
    tail_lsn = rec.lsn;
    if (rec.lsn <= applied) {
      suppressed += scratch.size();
      continue;
    }
    // Lost work: its emissions flow, each record's under its own lane and
    // release threshold, exactly as the primary's flush would have.
    sh.processed += rec.tuples.size();
    if (scratch.empty() && rec.release == kMaxTimestamp) continue;
    EgressItem item;
    item.results = std::move(scratch);
    item.lane = rec.lane;
    item.release = rec.release;
    const bool ok = sh.output->Enqueue(std::move(item));
    TCQ_CHECK(ok) << "egress enqueue during failover";
  }
  // 4. Promote: the standby becomes the primary (pointer swap guarded
  // against cross-thread introspection), a fresh empty standby takes its
  // place, and the replica store is reseeded from the promoted state so a
  // second failure recovers from here, not from the dead engine's history.
  {
    std::lock_guard<std::mutex> elock(sh.engine_mu);
    sh.engine = std::move(sh.standby);
  }
  Shard* raw = &sh;
  sh.engine->SetSink([raw](QueryId q, const Tuple& t) {
    raw->pending.emplace_back(q, t);
  });
  sh.standby = BuildStandby(shard);
  sh.applied_lsn.store(tail_lsn, std::memory_order_release);
  // Direct store, bypassing the torn-fault hook: this snapshot is
  // load-bearing for the next failover, not a cadence checkpoint.
  replication_->replica(shard).StoreSnapshot(
      tail_lsn, sh.engine->CheckpointState(), /*valid=*/true);
  ha_checkpoints_->Add(1);
  // 5. Resume: a fresh worker on the (drained) input queue. Producers
  // unblock as soon as the route lock releases.
  sh.kill.store(false, std::memory_order_release);
  sh.alive.store(true, std::memory_order_release);
  auto eo = std::make_unique<ExecutionObject>("shard-" + std::to_string(shard));
  eo->AddModule(std::make_shared<WorkerModule>(this, shard));
  eo->Start();
  shard_eos_[shard] = std::move(eo);
  route.unlock();
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ha_failovers_->Add(1);
  ha_replayed_tuples_->Add(replayed);
  ha_suppressed_->Add(suppressed);
  ha_recovery_us_->Record(static_cast<uint64_t>(elapsed));
  return Status::OK();
}

std::unique_ptr<CacqEngine> ShardedEngine::BuildStandby(size_t shard) const {
  CacqEngine::Options eo;
  eo.policy = options_.policy;
  eo.seed = options_.seed + shard;
  eo.eddy = options_.eddy;
  auto engine = std::make_unique<CacqEngine>(eo);
  for (const SourceInfo& src : sources_) {
    const auto added = engine->AddStream(src.name, src.schema);
    TCQ_CHECK(added.ok()) << added.status().ToString();
  }
  // Install every live query at its slot: the rebuilt standby agrees with
  // every primary on each QueryId without replaying removed queries.
  for (QueryId slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].spec.has_value()) continue;
    const Status added = engine->AddQueryAt(slot, *slots_[slot].spec);
    TCQ_CHECK(added.ok()) << added.ToString();
  }
  return engine;
}

void ShardedEngine::ResumeBucket(size_t final_owner) {
  std::unique_lock<std::shared_mutex> route(route_mu_, std::defer_lock);
  LockRoutesForUpdate(route);
  partition_map_.SetOwner(migrating_bucket_, final_owner);
  migrating_bucket_ = SIZE_MAX;
  std::vector<ParkedTuple> buffered;
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    buffered.swap(move_buffer_);
  }
  // Group contiguous same-(source, lane) runs into tasks (source order
  // between producers is whatever the race produced, same as live scatter).
  // A run that carried a release threshold carries the newest one sent to
  // the owner instead: these tasks queue behind it, and a shard's
  // thresholds must never go backwards.
  size_t i = 0;
  while (i < buffered.size()) {
    ShardTask task;
    task.source = buffered[i].source;
    task.lane = buffered[i].lane;
    task.release = buffered[i].release;
    while (i < buffered.size() && buffered[i].source == task.source &&
           buffered[i].lane == task.lane) {
      task.release = std::max(task.release, buffered[i].release);
      task.tuples.push_back(std::move(buffered[i].tuple));
      ++i;
    }
    task.release =
        std::max(task.release, shards_[final_owner]->release_sent);
    const size_t count = task.tuples.size();
    // The replay must NEVER block: we hold migrate_mu_, which FailoverShard
    // needs before it can drain a dead shard's full queue — a blocking
    // enqueue here could deadlock the recovery path. We are the only
    // enqueuer on this partition (exclusive route lock + migrate_mu_), so
    // logging once here and retrying a raw non-blocking enqueue preserves
    // changelog-order == queue-order.
    if (replication_ != nullptr) {
      task.lsn = replication_->replica(final_owner)
                     .Append(task.source, std::vector<Tuple>(task.tuples),
                             task.lane, task.release);
    }
    shards_[final_owner]->routed += count;
    FjordQueue<ShardTask>& q = input_->partition(final_owner);
    for (bool queued = false; !queued;) {
      switch (q.TryEnqueue(task)) {
        case FjordQueue<ShardTask>::TryResult::kAccepted:
          queued = true;
          break;
        case FjordQueue<ShardTask>::TryResult::kClosed:
          TCQ_LOG(Warn) << "pause-buffer replay hit a closed queue; " << count
                        << " tuples dropped mid-shutdown";
          return;
        case FjordQueue<ShardTask>::TryResult::kFull:
          if (!shards_[final_owner]->alive.load(std::memory_order_acquire)) {
            // Dead owner, full queue. With replication the record is in
            // the changelog above the applied floor — the failover replays
            // it. Without replication it is lost, like everything else on
            // a killed shard.
            if (replication_ == nullptr) {
              TCQ_LOG(Warn) << "pause-buffer replay dropped " << count
                            << " tuples on dead shard " << final_owner;
            }
            queued = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          break;
      }
    }
  }
}

Status ShardedEngine::MigrateBucket(size_t bucket, size_t to_shard) {
  if (!started_) {
    return Status::FailedPrecondition("Start() the engine before migrating");
  }
  if (stopped_) return Status::Unavailable("engine stopped");
  if (bucket >= partition_map_.num_buckets()) {
    return Status::OutOfRange("bucket out of range");
  }
  if (to_shard >= shards_.size()) {
    return Status::OutOfRange("shard out of range");
  }
  std::lock_guard<std::mutex> mig(migrate_mu_);
  const size_t from = partition_map_.ShardOf(bucket);
  if (from == to_shard) return Status::OK();

  const auto pause_start = std::chrono::steady_clock::now();
  // 1. Pause: mark the bucket under the exclusive route lock. From here no
  // producer can scatter the bucket's tuples to any shard queue — new
  // arrivals park in move_buffer_ instead.
  {
    std::unique_lock<std::shared_mutex> route(route_mu_, std::defer_lock);
    LockRoutesForUpdate(route);
    migrating_bucket_ = bucket;
  }
  // 2. Drain + extract: the closure rides the donor's queue behind every
  // task scattered before the pause, so when it runs, all of the bucket's
  // in-flight tuples have been injected. It then lifts the bucket's SteM
  // state off the donor, on the donor's own thread. A dead donor aborts
  // the migration with the bucket still owned by it (its state — and this
  // bucket's share of it — recovers through the failover path instead).
  BucketState state;
  const Status drained = RunOnShard(from, [&] {
    state = shards_[from]->engine->ExtractBucketState(
        bucket, [this, bucket](const Value& key) {
          return partition_map_.BucketOf(key) == bucket;
        });
    // The donor shrank outside the logged data path: re-snapshot so a
    // donor failover can't resurrect the extracted bucket.
    if (replication_ != nullptr) {
      CheckpointShard(from,
                      shards_[from]->applied_lsn.load(
                          std::memory_order_relaxed));
    }
  });
  if (!drained.ok()) {
    ResumeBucket(from);
    return drained;
  }
  // 3. Install on the recipient's thread. Installation failure means the
  // shard engines diverged (can't happen through this class's API); a dead
  // recipient aborts the move. Either way the state is put back on the
  // donor so nothing is lost.
  Status install;
  const Status install_barrier = RunOnShard(to_shard, [&] {
    install = shards_[to_shard]->engine->InstallBucketState(state);
    if (install.ok() && replication_ != nullptr) {
      CheckpointShard(to_shard,
                      shards_[to_shard]->applied_lsn.load(
                          std::memory_order_relaxed));
    }
  });
  if (!install_barrier.ok()) install = install_barrier;
  if (!install.ok()) {
    const Status undo = RunOnShard(from, [&] {
      const Status u = shards_[from]->engine->InstallBucketState(state);
      TCQ_CHECK(u.ok()) << "rollback reinstall failed: " << u.ToString();
      if (replication_ != nullptr) {
        CheckpointShard(from,
                        shards_[from]->applied_lsn.load(
                            std::memory_order_relaxed));
      }
    });
    if (!undo.ok()) {
      // Double fault: the donor died too, between the extract and the
      // rollback. The extracted entries miss both engines' checkpoints —
      // this is the process-pair model's documented blind spot (both
      // members of the pair failing inside one protocol step).
      TCQ_LOG(Error) << "bucket " << bucket
                     << " rollback hit a dead donor; extracted state ("
                     << state.tuple_count() << " tuples) lost: "
                     << undo.ToString();
    }
  }
  const size_t final_owner = install.ok() ? to_shard : from;
  // 4. Flip + resume: still under the exclusive route lock, retarget the
  // bucket and replay the paused arrivals to the final owner IN ORDER —
  // producers stay blocked until the replay is enqueued, so no fresh
  // scatter can overtake the buffer (per-key FIFO holds across the move).
  ResumeBucket(final_owner);
  const auto pause_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - pause_start)
                            .count();
  TCQ_METRIC(pause_us_->Record(static_cast<uint64_t>(pause_us)));
  if (!install.ok()) return install;
  migrations_->Add(1);
  moved_tuples_->Add(state.tuple_count());
  moved_bytes_->Add(state.approx_bytes());
  return Status::OK();
}

RebalanceController::Load ShardedEngine::ObserveLoad() const {
  RebalanceController::Load load;
  load.shard_backlog.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Backlog in tuples: scattered minus injected. Counter reads are
    // relaxed, so a torn view can transiently "underflow" — clamp to 0.
    const uint64_t routed = shards_[i]->routed;
    const uint64_t processed = shards_[i]->processed;
    load.shard_backlog[i] =
        routed > processed ? static_cast<size_t>(routed - processed) : 0;
  }
  load.bucket_routed.resize(bucket_routed_.size());
  for (size_t b = 0; b < bucket_routed_.size(); ++b) {
    load.bucket_routed[b] = bucket_routed_[b].value();
  }
  return load;
}

ShardedEngine::RebalanceStats ShardedEngine::rebalance_stats() const {
  RebalanceStats s;
  s.migrations = migrations_->value();
  s.moved_tuples = moved_tuples_->value();
  s.moved_bytes = moved_bytes_->value();
  s.buffered_tuples = buffered_tuples_->value();
  return s;
}

std::vector<ShardedEngine::ReplicaStats> ShardedEngine::replica_stats() const {
  std::vector<ReplicaStats> out;
  if (replication_ == nullptr) return out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto s = replication_->replica(i).stats();
    ReplicaStats r;
    r.alive = shards_[i]->alive.load(std::memory_order_acquire);
    r.applied_lsn = shards_[i]->applied_lsn.load(std::memory_order_acquire);
    r.logged_lsn = s.next_lsn;
    r.snapshot_floor = s.snapshot_floor;
    r.changelog_records = s.log_records;
    r.changelog_bytes = s.log_bytes;
    r.checkpoints = s.checkpoints;
    r.torn_rejected = s.torn_rejected;
    out.push_back(r);
  }
  return out;
}

ShardedEngine::HaStats ShardedEngine::ha_stats() const {
  HaStats s;
  s.failovers = ha_failovers_->value();
  s.replayed_tuples = ha_replayed_tuples_->value();
  s.suppressed_emissions = ha_suppressed_->value();
  return s;
}

size_t ShardedEngine::num_active_queries() const {
  // Identical registrations everywhere: shard 0 speaks for all. Safe
  // cross-thread only in the quiesced/unstarted states the accessor's
  // callers hold (Server reads it under its own submission lock).
  std::lock_guard<std::mutex> elock(shards_[0]->engine_mu);
  return shards_[0]->engine->num_active_queries();
}

std::vector<ShardedEngine::ShardStats> ShardedEngine::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardStats s;
    s.routed = shards_[i]->routed;
    s.processed = shards_[i]->processed;
    s.queue_depth = input_->partition(i).Size();
    // The engine pointer swaps during a failover promotion; the eddy
    // counters themselves are relaxed atomics.
    std::lock_guard<std::mutex> elock(shards_[i]->engine_mu);
    s.eddy_decisions = shards_[i]->engine->eddy().decisions();
    s.eddy_emitted = shards_[i]->engine->eddy().emitted();
    out.push_back(s);
  }
  return out;
}

}  // namespace tcq
