#include "core/server.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "fjords/queue.h"
#include "spool/spool.h"
#include "stem/stem.h"
#include "telemetry/metrics.h"
#include "telemetry/pool_metrics.h"

namespace tcq {

namespace {

#ifndef TCQ_METRICS_DISABLED
/// Process-wide ingest/egress aggregates (DESIGN.md §10); the per-stream
/// and per-query detail lives on Server state and is composed by
/// SnapshotMetrics / PumpMetrics.
struct ServerMetrics {
  Counter* ingested;
  Counter* rejected;
  Counter* delivered_rows;
  Counter* start_clamped;  ///< Submits whose start time the watermark raised.
  Counter* cancelled_queries;
  // Disorder-path aggregates (DESIGN.md §15); per-stream detail lives on
  // StreamState::dis.
  Counter* dis_released;
  Counter* dis_late_within_bound;
  Counter* dis_beyond_bound;
  Counter* dis_dropped;
  Counter* dis_ingested_late;
  Counter* dis_heartbeats;
  Counter* dis_idle_heartbeats;
  Counter* dis_retractions;
  Counter* dis_unmatched_retractions;
  Counter* spool_replayed;  ///< Records re-delivered by ReplayStream.

  static ServerMetrics& Get() {
    static ServerMetrics* m = [] {
      MetricRegistry& reg = MetricRegistry::Global();
      auto* agg = new ServerMetrics();
      agg->ingested = reg.GetCounter("tcq.server.ingested");
      agg->rejected = reg.GetCounter("tcq.server.rejected");
      agg->delivered_rows = reg.GetCounter("tcq.server.delivered_rows");
      agg->start_clamped = reg.GetCounter("tcq.server.start_clamped");
      agg->cancelled_queries = reg.GetCounter("tcq.server.cancelled_queries");
      agg->dis_released = reg.GetCounter("tcq.disorder.released");
      agg->dis_late_within_bound =
          reg.GetCounter("tcq.disorder.late_within_bound");
      agg->dis_beyond_bound = reg.GetCounter("tcq.disorder.beyond_bound");
      agg->dis_dropped = reg.GetCounter("tcq.disorder.dropped");
      agg->dis_ingested_late = reg.GetCounter("tcq.disorder.ingested_late");
      agg->dis_heartbeats = reg.GetCounter("tcq.disorder.heartbeats");
      agg->dis_idle_heartbeats =
          reg.GetCounter("tcq.disorder.idle_heartbeats");
      agg->dis_retractions = reg.GetCounter("tcq.disorder.retractions");
      agg->dis_unmatched_retractions =
          reg.GetCounter("tcq.disorder.unmatched_retractions");
      agg->spool_replayed = reg.GetCounter("tcq.spool.replayed");
      return agg;
    }();
    return *m;
  }
};
#endif  // TCQ_METRICS_DISABLED

/// Rewrites every column reference to its bare (unqualified) name. Used on
/// the CACQ path: the shared engine's layout qualifies columns by stream
/// name while queries may use private aliases; with a single source the
/// bare names are unambiguous.
ExprPtr StripQualifiers(const ExprPtr& e) {
  if (e == nullptr) return nullptr;
  switch (e->kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kVariable:
      return e;
    case ExprKind::kColumn: {
      const std::string& name = e->column_name();
      const size_t dot = name.find('.');
      return dot == std::string::npos ? e
                                      : Expr::Column(name.substr(dot + 1));
    }
    case ExprKind::kUnary:
      return Expr::Unary(e->unary_op(), StripQualifiers(e->left()));
    case ExprKind::kBinary:
      return Expr::Binary(e->binary_op(), StripQualifiers(e->left()),
                          StripQualifiers(e->right()));
    case ExprKind::kAggregate:
      return Expr::Aggregate(e->agg_kind(), StripQualifiers(e->agg_arg()));
  }
  return e;
}

/// Emission-buffer capacity DeliverEmissions keeps between batches.
constexpr size_t kMaxRetainedEmissions = 4096;

/// Checks a pushed or retracted tuple against its stream's schema: the
/// arity, the declared type of every non-NULL cell, and an INT64
/// timestamp cell. A cell of the wrong type would otherwise reach an
/// unchecked Value accessor downstream and throw out of the public API.
Status CheckTuple(const StreamDef& def, const Tuple& tuple) {
  const Schema& schema = *def.schema;
  if (tuple.arity() != schema.num_fields()) {
    return Status::InvalidArgument("tuple arity mismatch for " + def.name);
  }
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const ValueType type = tuple.cell(i).type();
    if (type != ValueType::kNull && type != schema.field(i).type) {
      return Status::TypeError(
          "cell " + schema.field(i).name + " of " + def.name + " is " +
          ValueTypeToString(type) + ", declared " +
          ValueTypeToString(schema.field(i).type));
    }
  }
  if (def.timestamp_field >= 0 &&
      tuple.cell(static_cast<size_t>(def.timestamp_field)).type() !=
          ValueType::kInt64) {
    return Status::TypeError("timestamp column must be INT64");
  }
  return Status::OK();
}

}  // namespace

Server::Server() : Server(Options()) {}

Server::Server(Options options) : options_(std::move(options)) {
  clock_ms_ = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  if (!options_.spool_dir.empty()) {
    // The shared history spool opens (or adopts) before any stream is
    // defined, so every archive — the metrics stream's included — can
    // attach at definition time. A server that cannot open its history
    // store must not come up half-blind: fail loudly.
    Spool::Options so;
    so.dir = options_.spool_dir;
    so.cache_pages = std::max<size_t>(1, options_.spool_cache_pages);
    so.segment_bytes = options_.spool_segment_bytes;
    so.sync_each_append = options_.spool_sync_each_append;
    auto opened = Spool::Open(std::move(so));
    TCQ_CHECK(opened.ok()) << opened.status();
    spool_ = std::move(*opened);
  }
  // Reserved introspection stream: continuous queries over engine
  // telemetry (PumpMetrics publishes snapshots into it).
  SchemaPtr schema = Schema::Make({{"name", ValueType::kString, ""},
                                   {"kind", ValueType::kString, ""},
                                   {"value", ValueType::kDouble, ""}});
  Status st = DefineStream(kMetricsStream, std::move(schema));
  TCQ_CHECK(st.ok()) << st;
#ifndef TCQ_METRICS_DISABLED
  // Pre-register the spine's metric families (they otherwise appear on
  // first use), so snapshots and the introspection stream have a stable
  // name set from the first pump — zero-valued until the path is hit.
  ServerMetrics::Get();
  queue_internal::EdgeMetrics::Get();
  stem_internal::AggregateMetrics::Get();
#endif
}

Server::~Server() {
  // Stop shard/egress threads while queries_ and streams_ are still
  // alive: member destruction order would otherwise tear down queries_
  // under a still-delivering egress thread.
  std::vector<ShardedEngine*> engines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, ss] : streams_) {
      if (ss.sharded != nullptr) engines.push_back(ss.sharded.get());
    }
  }
  for (ShardedEngine* e : engines) e->Stop();
}

void Server::Quiesce() {
  // Collect under mu_, wait unlocked: a quiesce must not stall ingest on
  // other streams, and the engines live until ~Server.
  std::vector<ShardedEngine*> engines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, ss] : streams_) {
      if (ss.sharded != nullptr) engines.push_back(ss.sharded.get());
    }
  }
  for (ShardedEngine* e : engines) {
    const Status st = e->Quiesce();
    if (!st.ok()) {
      // A dead (un-failed-over) shard can't be barriered; the server-level
      // quiesce stays best-effort rather than wedging every stream.
      TCQ_LOG(Warn) << "Quiesce skipped a dead shard: " << st.ToString();
    }
  }
}

Status Server::Rebalance(const std::string& stream, size_t bucket,
                         size_t to_shard) {
  // Same discipline as Quiesce: resolve the engine under mu_, migrate
  // unlocked — a migration blocks on shard barriers and must not stall
  // ingest on other streams (the engine lives until ~Server).
  ShardedEngine* engine = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(stream);
    if (it == streams_.end()) {
      return Status::NotFound("unknown stream: " + stream);
    }
    if (it->second.sharded == nullptr) {
      return Status::FailedPrecondition(
          "stream is not running sharded (need cacq_shards > 1 and a "
          "standing query): " +
          stream);
    }
    engine = it->second.sharded.get();
  }
  return engine->MigrateBucket(bucket, to_shard);
}

Status Server::DefineStream(const std::string& name, SchemaPtr schema,
                            int timestamp_field, int partition_field) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamDef def;
  def.name = name;
  def.schema = std::move(schema);
  def.timestamp_field = timestamp_field;
  if (partition_field >= 0 &&
      static_cast<size_t>(partition_field) >= def.schema->num_fields()) {
    return Status::OutOfRange("partition field out of range for " + name);
  }
  TCQ_RETURN_NOT_OK(catalog_.RegisterStream(def));
  StreamState state;
  state.def = def;
  state.archive = std::make_unique<Archive>(options_.retention_span);
  if (spool_ != nullptr) {
    // Bounded-RAM history: the archive keeps a resident tail and demotes
    // the rest to the shared spool. Reopening a server on the same
    // spool_dir adopts the stream's spooled history here.
    state.archive->AttachSpool(
        spool_.get(), "stream." + name,
        std::max<size_t>(1, options_.spool_resident_tuples));
  }
  if (def.timestamp_field >= 0) {
    // Disorder is only possible with an application timestamp column;
    // arrival-sequence streams are in order by construction.
    state.reorder.set_max_disorder(std::max<Timestamp>(0,
                                                       options_.max_disorder));
    state.late_policy = options_.late_policy;
  }
  state.last_arrival_ms = clock_ms_();
  if (partition_field >= 0) {
    state.partition_column = static_cast<size_t>(partition_field);
  } else {
    // Default exchange key: the first non-timestamp column (timestamps
    // increase monotonically — hashing them would serialize each batch
    // onto one shard).
    state.partition_column =
        (def.timestamp_field == 0 && def.schema->num_fields() > 1) ? 1 : 0;
  }
  streams_.emplace(name, std::move(state));
  return Status::OK();
}

Status Server::DefineTable(const std::string& name, SchemaPtr schema,
                           TupleVector rows) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamDef def;
  def.name = name;
  def.schema = std::move(schema);
  return catalog_.RegisterTable(std::move(def), std::move(rows));
}

Result<QueryId> Server::Submit(const std::string& sql) {
  return Submit(sql, SubmitOptions());
}

Result<QueryId> Server::Submit(const std::string& sql,
                               const SubmitOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  TCQ_ASSIGN_OR_RETURN(AnalyzedQuery analyzed, AnalyzeSql(sql, catalog_));

  const QueryId qid = static_cast<QueryId>(output_schemas_.size());
  auto qs = std::make_unique<QueryState>();
  qs->consistency = opts.consistency;
  qs->analyzed = std::move(analyzed);
  const AnalyzedQuery& aq = qs->analyzed;
  const bool speculative = opts.consistency == Consistency::kSpeculative;

  if (aq.cacq_eligible && options_.cacq_shards > 1) {
    // Standing single-stream filter, sharded mode: fold into the
    // stream's shard fleet (created on first use, like the inline eddy).
    const std::string& stream = aq.defs[0].name;
    StreamState& ss = streams_.at(stream);
    if (ss.sharded == nullptr) {
      ShardedEngine::Options sopts;
      sopts.num_shards = options_.cacq_shards;
      sopts.policy = options_.policy;
      sopts.seed = options_.seed;
      sopts.num_buckets = options_.cacq_buckets;
      sopts.auto_rebalance = options_.auto_rebalance;
      sopts.rebalance = options_.rebalance;
      sopts.num_replicas = options_.cacq_replicas;
      if (spool_ != nullptr) {
        sopts.spool = spool_.get();
        sopts.spool_prefix = "cacq." + stream + ".";
      }
      auto sharded = std::make_unique<ShardedEngine>(std::move(sopts));
      auto added =
          sharded->AddStream(stream, ss.def.schema, ss.partition_column);
      TCQ_CHECK(added.ok()) << added.status();
      // The sink runs on the egress thread; it captures the StreamState
      // node (map nodes are address-stable) and takes results_mu_ only.
      StreamState* node = &ss;
      sharded->SetSink([this, node](std::vector<Emission>&& batch) {
        DeliverEmissions(node, batch);
      });
      sharded->Start();
      ss.sharded = std::move(sharded);
    }
    CacqQuerySpec spec;
    spec.sources = {stream};
    spec.where = StripQualifiers(aq.parsed.where);
    spec.speculative = speculative;
    TCQ_ASSIGN_OR_RETURN(QueryId engine_q, ss.sharded->AddQuery(spec));
    MapCacqSlotLocked(&ss, engine_q, qs.get());
  } else if (aq.cacq_eligible) {
    // Standing single-stream filter: fold into the stream's shared eddy.
    const std::string& stream = aq.defs[0].name;
    StreamState& ss = streams_.at(stream);
    if (ss.cacq == nullptr) {
      CacqEngine::Options copts;
      copts.policy = options_.policy;
      copts.seed = options_.seed;
      if (spool_ != nullptr) {
        copts.spool = spool_.get();
        copts.spool_prefix = "cacq." + stream + ".";
      }
      ss.cacq = std::make_unique<CacqEngine>(std::move(copts));
      auto added = ss.cacq->AddStream(stream, ss.def.schema);
      TCQ_CHECK(added.ok()) << added.status();
      // Emissions only queue here; InjectCacqLocked delivers them in one
      // batch through the egress the sharded engine uses.
      StreamState* node = &ss;
      ss.cacq->SetSink([node](QueryId engine_q, const Tuple& t) {
        node->cacq_pending.emplace_back(engine_q, t);
      });
    }
    CacqQuerySpec spec;
    spec.sources = {stream};
    spec.where = StripQualifiers(aq.parsed.where);
    spec.speculative = speculative;
    TCQ_ASSIGN_OR_RETURN(QueryId engine_q, ss.cacq->AddQuery(spec));
    MapCacqSlotLocked(&ss, engine_q, qs.get());
  } else {
    // Windowed / snapshot path: a QueryRunner over the archives.
    std::vector<const Archive*> archives;
    std::vector<TupleVector> table_rows;
    Timestamp start_time = 1;
    for (const StreamDef& def : aq.defs) {
      if (def.is_table) {
        archives.push_back(nullptr);
        TCQ_ASSIGN_OR_RETURN(TupleVector rows,
                             catalog_.GetTableRows(def.name));
        table_rows.push_back(std::move(rows));
        continue;
      }
      StreamState& ss = streams_.at(def.name);
      archives.push_back(ss.archive.get());
      table_rows.emplace_back();
      if (std::find(qs->footprint.begin(), qs->footprint.end(), &ss) ==
          qs->footprint.end()) {
        qs->footprint.push_back(&ss);
      }
      if (ss.watermark + 1 > start_time) {
        // The for-loop start is clamped past data the stream has already
        // delivered (the query cannot fire windows over history whose
        // watermark has passed). Observable, not silent.
        start_time = ss.watermark + 1;
        TCQ_METRIC(ServerMetrics::Get().start_clamped->Add(1));
      }
    }
    // Degenerate: table-only runners need a non-null archive slot.
    static const Archive* const kEmptyArchive = new Archive();
    for (auto& a : archives) {
      if (a == nullptr) a = kEmptyArchive;
    }
    QueryRunner::Options ropts;
    ropts.policy = options_.policy;
    ropts.seed = options_.seed;
    ropts.start_time = start_time;
    ropts.speculative = speculative;
    qs->runner = std::make_unique<QueryRunner>(aq, std::move(archives),
                                               std::move(table_rows), ropts);
    // Table-only snapshots and past-window queries may already be
    // executable: fire them now.
    const Timestamp hwm = FootprintWatermark(*qs);
    std::vector<ResultSet> sets;
    qs->runner->Advance(hwm == kMaxTimestamp ? 0 : hwm, &sets);
    DeliverResults(qs.get(), std::move(sets));
    for (StreamState* src : qs->footprint) src->windowed.push_back(qs.get());
  }

  if (qs->consistency == Consistency::kSpeculative) ++num_speculative_;
  output_schemas_.push_back(qs->analyzed.output_schema);
  {
    // SetCallback/Poll (and, through cacq_owner, the egress thread) reach
    // query state under results_mu_.
    std::lock_guard<std::mutex> rlock(results_mu_);
    queries_.emplace(qid, std::move(qs));
  }
  return qid;
}

void Server::MapCacqSlotLocked(StreamState* ss, QueryId slot,
                               QueryState* qs) {
  qs->cacq_stream = ss;
  qs->cacq_id = slot;
  ++(qs->consistency == Consistency::kSpeculative ? ss->cacq_speculative
                                                  : ss->cacq_delayed);
  std::lock_guard<std::mutex> rlock(results_mu_);
  if (slot >= ss->cacq_owner.size()) ss->cacq_owner.resize(slot + 1, nullptr);
  ss->cacq_owner[slot] = qs;
}

Timestamp Server::FootprintWatermark(const QueryState& qs) const {
  // Delayed queries read the min safe watermark of their footprint;
  // speculative ones the min raw watermark (floored at safe: a raw mark
  // never trails what has already been released).
  const bool speculative = qs.consistency == Consistency::kSpeculative;
  Timestamp hwm = kMaxTimestamp;
  for (const StreamState* src : qs.footprint) {
    hwm = std::min(hwm, speculative ? std::max(src->watermark,
                                               src->reorder.raw_watermark())
                                    : src->watermark);
  }
  return hwm;
}

Tuple Server::ProjectCacqRow(const QueryState& owner, const Tuple& t) {
  const std::vector<ExprPtr>& proj = owner.analyzed.projections;
  Tuple row = Tuple::Build(proj.size(), t.timestamp(), [&](Value* cells) {
    for (size_t i = 0; i < proj.size(); ++i) cells[i] = proj[i]->Eval(t);
  });
  row.set_retraction(t.retraction());
  return row;
}

Status Server::SetCallback(QueryId q, Callback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(q);
  if (it == queries_.end()) return Status::NotFound("no such active query");
  QueryState* qs = it->second.get();
  std::lock_guard<std::mutex> rlock(results_mu_);
  qs->callback = std::move(cb);
  // Flush anything already queued.
  while (!qs->results.empty()) {
    qs->callback(qs->results.front());
    qs->results.pop_front();
  }
  return Status::OK();
}

Status Server::Cancel(QueryId q) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(q);
  if (it == queries_.end()) return Status::NotFound("no such active query");
  QueryState* qs = it->second.get();
  if (qs->consistency == Consistency::kSpeculative) --num_speculative_;
  Status st = Status::OK();
  if (qs->cacq_stream != nullptr) {
    StreamState& ss = *qs->cacq_stream;
    --(qs->consistency == Consistency::kSpeculative ? ss.cacq_speculative
                                                    : ss.cacq_delayed);
    // Unmap first: the sharded egress thread then drops emissions still
    // in flight, and the engine may hand the slot to a later Submit.
    {
      std::lock_guard<std::mutex> rlock(results_mu_);
      ss.cacq_owner[qs->cacq_id] = nullptr;
    }
    st = ss.sharded != nullptr ? ss.sharded->RemoveQuery(qs->cacq_id)
                               : ss.cacq->RemoveQuery(qs->cacq_id);
  } else {
    for (StreamState* src : qs->footprint) {
      src->windowed.erase(
          std::find(src->windowed.begin(), src->windowed.end(), qs));
    }
  }
  // Free everything but the output schema; the id is never reissued.
  std::unique_ptr<QueryState> retired;
  {
    std::lock_guard<std::mutex> rlock(results_mu_);
    retired_rows_delivered_ += qs->rows_delivered;
    retired = std::move(it->second);
    queries_.erase(it);
  }
  TCQ_METRIC(ServerMetrics::Get().cancelled_queries->Add(1));
  return st;
}

Result<SchemaPtr> Server::OutputSchema(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (q >= output_schemas_.size()) return Status::NotFound("no such query");
  return output_schemas_[q];
}

Status Server::Push(const std::string& stream, const Tuple& tuple) {
  std::lock_guard<std::mutex> lock(mu_);
  return PushLocked(stream, tuple);
}

Status Server::StampLocked(StreamState* ss, Tuple* tuple) {
  TCQ_RETURN_NOT_OK(CheckTuple(ss->def, *tuple));
  // Stamp the engine timestamp: declared column or arrival order. Only a
  // valid tuple counts as an arrival.
  ++ss->arrivals;
  const int ts_field = ss->def.timestamp_field;
  tuple->set_timestamp(
      ts_field >= 0 ? tuple->cell(static_cast<size_t>(ts_field)).int64_value()
                    : ss->arrivals);
  return Status::OK();
}

void Server::AdvanceQueriesLocked(const StreamState& ss) {
  for (QueryState* qs : ss.windowed) {
    if (qs->runner->done()) continue;
    const Timestamp hwm = FootprintWatermark(*qs);
    if (hwm == kMaxTimestamp) continue;
    std::vector<ResultSet> sets;
    qs->runner->Advance(hwm, &sets);
    if (!sets.empty()) DeliverResults(qs, std::move(sets));
  }
}

void Server::ReviseQueriesLocked(const StreamState& ss, Timestamp late_ts) {
  if (num_speculative_ == 0) return;  // Per-batch call; skip the sweep.
  for (QueryState* qs : ss.windowed) {
    if (qs->consistency != Consistency::kSpeculative) continue;
    std::vector<ResultSet> sets;
    qs->runner->Revise(late_ts, &sets);
    if (!sets.empty()) DeliverResults(qs, std::move(sets));
  }
}

Status Server::ApplyReleasedLocked(const std::string& stream,
                                   StreamState* sp,
                                   std::vector<Tuple> released) {
  StreamState& ss = *sp;
  if (released.empty()) return Status::OK();
  ss.dis.released += static_cast<int64_t>(released.size());
  TCQ_METRIC(ServerMetrics::Get().dis_released->Add(released.size()));
  // Releases arrive in timestamp order and never regress below earlier
  // releases, so plain Append keeps the archive sorted; the safe
  // watermark is the released frontier.
  for (const Tuple& t : released) {
    ss.archive->Append(t);
    if (t.timestamp() > ss.watermark) ss.watermark = t.timestamp();
  }
  // Delayed-lane injection: standing delayed queries consume the released
  // (timestamp-ordered) feed, never raw arrivals.
  return InjectCacqLocked(stream, &ss, std::move(released),
                          IngressLane::kDelayed);
}

Status Server::PushLocked(const std::string& stream, const Tuple& tuple) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  std::vector<Tuple> one;
  one.push_back(tuple);
  return IngestBatchLocked(stream, &it->second, std::move(one), nullptr);
}

Status Server::PushBatch(const std::string& stream, std::vector<Tuple> batch,
                         size_t* rejected) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rejected != nullptr) *rejected = 0;
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  return IngestBatchLocked(stream, &it->second, std::move(batch), rejected);
}

Status Server::IngestBatchLocked(const std::string& stream, StreamState* sp,
                                 std::vector<Tuple> batch, size_t* rejected) {
  StreamState& ss = *sp;
  if (!batch.empty()) ss.last_arrival_ms = clock_ms_();

  // Stamp, classify and route the whole batch in one pass. Accepted
  // arrivals feed two lanes: `raw` (arrival order — the speculative lane)
  // and the reorder buffer, whose releases (timestamp order — the delayed
  // lane) are applied below. With max_disorder == 0 the buffer releases
  // every tuple immediately, so both lanes carry the same sequence and
  // the classic in-order behavior is preserved byte for byte.
  Status first_error = Status::OK();
  // The raw (arrival-order) lane is only materialized when someone
  // listens to it: with no speculative CACQ queries the per-tuple copy
  // into `raw` is pure overhead on the hot ingest path.
  const bool want_spec = ss.cacq_speculative > 0;
  std::vector<Tuple> raw;
  if (want_spec) raw.reserve(batch.size());
  size_t accepted = 0;
  int64_t within_bound = 0;
  std::vector<Tuple> released;
  released.reserve(batch.size());
  // kIngestLate stragglers, archived only after this batch's releases:
  // an InsertOrdered mid-loop could land ABOVE releases still pending in
  // `released`, and their later Append would then violate the archive's
  // ordered-append invariant. Nothing reads the archive until the window
  // advance below, so deferring is observationally identical.
  std::vector<Tuple> late_inserts;
  Timestamp min_revise = kMaxTimestamp;
  // The released frontier as of the previous tuple: ss.watermark only
  // advances when the releases are applied below, so earlier tuples of
  // THIS batch must raise the straggler bar too (a release sequence must
  // never regress).
  Timestamp frontier = ss.watermark;
  for (Tuple& tuple : batch) {
    Status st = StampLocked(&ss, &tuple);
    if (!st.ok()) {
      ++ss.rejected;
      TCQ_METRIC(ServerMetrics::Get().rejected->Add(1));
      if (rejected == nullptr) {
        first_error = std::move(st);
        break;  // Ingest the valid prefix, then report, like a Push loop.
      }
      ++*rejected;
      continue;
    }
    const Timestamp ts = tuple.timestamp();
    if (ts < frontier) {
      // Beyond-bound straggler: below the released frontier, later than
      // the declared disorder bound.
      ++ss.dis.beyond_bound;
      TCQ_METRIC(ServerMetrics::Get().dis_beyond_bound->Add(1));
      if (ss.late_policy == LatePolicy::kDrop) {
        ++ss.dis.dropped;
        TCQ_METRIC(ServerMetrics::Get().dis_dropped->Add(1));
        continue;
      }
      if (ss.late_policy == LatePolicy::kIngestLate) {
        ++ss.dis.ingested_late;
        TCQ_METRIC(ServerMetrics::Get().dis_ingested_late->Add(1));
        TCQ_METRIC(ServerMetrics::Get().ingested->Add(1));
        late_inserts.push_back(tuple);
        min_revise = std::min(min_revise, ts);
        ++accepted;
        // Standing speculative queries still see it (they tolerate
        // out-of-order input); delayed queries only via unfired windows.
        if (want_spec) raw.push_back(std::move(tuple));
        continue;
      }
      // LatePolicy::kReject: the classic hard-reject contract, with the
      // classic message, under the batch skip-and-count rules.
      ++ss.rejected;
      TCQ_METRIC(ServerMetrics::Get().rejected->Add(1));
      Status late = Status::InvalidArgument(
          "out-of-order timestamp on " + ss.def.name + ": " +
          std::to_string(ts) + " < watermark " + std::to_string(frontier));
      if (rejected == nullptr) {
        first_error = std::move(late);
        break;
      }
      ++*rejected;
      continue;
    }
    // Within bound (or in order): through the reorder buffer.
    ++within_bound;
    if (ts < ss.reorder.raw_watermark()) {
      ++ss.dis.late_within_bound;
      TCQ_METRIC(ServerMetrics::Get().dis_late_within_bound->Add(1));
    }
    ++accepted;
    if (want_spec) raw.push_back(tuple);
    ss.reorder.Offer(std::move(tuple), &released);
    if (!released.empty()) {
      frontier = std::max(frontier, released.back().timestamp());
    }
  }

  TCQ_METRIC(
      ServerMetrics::Get().ingested->Add(static_cast<uint64_t>(within_bound)));
  (void)within_bound;  // Metric-only under TCQ_DISABLE_METRICS.

  // Releases with timestamps at or below an already-fired speculative
  // window require revision (the archive changed under it) — as do
  // kIngestLate ordered inserts. Releases are timestamp-ordered, so the
  // front carries the minimum.
  Timestamp revise_ts = min_revise;
  if (!released.empty()) {
    revise_ts = std::min(revise_ts, released.front().timestamp());
  }
  TCQ_RETURN_NOT_OK(ApplyReleasedLocked(stream, &ss, std::move(released)));
  for (const Tuple& t : late_inserts) ss.archive->InsertOrdered(t);

  if (accepted > 0) {
    AdvanceQueriesLocked(ss);
    // Speculative-lane injection: raw arrivals, in arrival order.
    TCQ_RETURN_NOT_OK(InjectCacqLocked(stream, &ss, std::move(raw),
                                       IngressLane::kSpeculative));
  }
  if (revise_ts != kMaxTimestamp) ReviseQueriesLocked(ss, revise_ts);
  return first_error;
}

Status Server::PushAll(const std::string& stream, TupleSource* source) {
  std::lock_guard<std::mutex> lock(mu_);
  while (auto t = source->Next()) {
    TCQ_RETURN_NOT_OK(PushLocked(stream, *t));
  }
  return Status::OK();
}

Status Server::SetDisorderBound(const std::string& stream,
                                Timestamp max_disorder, LatePolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  StreamState& ss = it->second;
  if (ss.def.timestamp_field < 0) {
    return Status::FailedPrecondition(
        "disorder bound needs a timestamp column on " + stream);
  }
  if (max_disorder < 0) {
    return Status::InvalidArgument("negative disorder bound");
  }
  ss.reorder.set_max_disorder(max_disorder);
  ss.late_policy = policy;
  // A tightened bound can make buffered tuples releasable right now.
  if (ss.reorder.buffered() > 0 &&
      ss.reorder.raw_watermark() >= kMinTimestamp + max_disorder) {
    std::vector<Tuple> released;
    ss.reorder.Punctuate(ss.reorder.raw_watermark() - max_disorder,
                         &released);
    const Timestamp min_released =
        released.empty() ? kMaxTimestamp : released.front().timestamp();
    TCQ_RETURN_NOT_OK(ApplyReleasedLocked(stream, &ss, std::move(released)));
    AdvanceQueriesLocked(ss);
    if (min_released != kMaxTimestamp) {
      ReviseQueriesLocked(ss, min_released);
    }
  }
  return Status::OK();
}

Status Server::Heartbeat(const std::string& stream, Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  if (it->second.def.timestamp_field < 0) {
    return Status::FailedPrecondition(
        "heartbeats need a timestamp column on " + stream);
  }
  return HeartbeatLocked(stream, &it->second, ts, /*idle=*/false);
}

Status Server::HeartbeatLocked(const std::string& stream, StreamState* sp,
                               Timestamp ts, bool idle) {
  StreamState& ss = *sp;
  ++(idle ? ss.dis.idle_heartbeats : ss.dis.heartbeats);
  TCQ_METRIC((idle ? ServerMetrics::Get().dis_idle_heartbeats
                   : ServerMetrics::Get().dis_heartbeats)
                 ->Add(1));
  // The source asserts no future arrival has timestamp <= ts: flush the
  // buffer through ts and advance the safe watermark to at least ts.
  // Arrivals at or below it afterwards follow the stream's LatePolicy.
  std::vector<Tuple> released;
  ss.reorder.Punctuate(ts, &released);
  const Timestamp min_released =
      released.empty() ? kMaxTimestamp : released.front().timestamp();
  TCQ_RETURN_NOT_OK(ApplyReleasedLocked(stream, &ss, std::move(released)));
  if (ts > ss.watermark) ss.watermark = ts;
  AdvanceQueriesLocked(ss);
  if (min_released != kMaxTimestamp) {
    ReviseQueriesLocked(ss, min_released);
  }
  return Status::OK();
}

Status Server::Retract(const std::string& stream, const Tuple& tuple) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  StreamState& ss = it->second;
  if (ss.def.timestamp_field < 0) {
    return Status::FailedPrecondition(
        "retractions need a timestamp column on " + stream);
  }
  TCQ_RETURN_NOT_OK(CheckTuple(ss.def, tuple));
  Tuple r = tuple;
  r.set_timestamp(
      tuple.cell(static_cast<size_t>(ss.def.timestamp_field)).int64_value());
  r.set_retraction(true);
  // A retraction is not an arrival: it never advances watermarks or the
  // arrival count. The archived assertion must exist — a retraction of a
  // tuple still waiting in the reorder buffer (or never asserted) is
  // dropped and counted.
  if (!ss.archive->CancelMatching(r)) {
    ++ss.dis.unmatched_retractions;
    TCQ_METRIC(ServerMetrics::Get().dis_unmatched_retractions->Add(1));
    return Status::OK();
  }
  ++ss.dis.retractions;
  TCQ_METRIC(ServerMetrics::Get().dis_retractions->Add(1));
  // Both CACQ lanes saw the assertion, so the signed tuple flows to all
  // standing queries (kAll); it cancels SteM state and emits signed rows.
  TCQ_RETURN_NOT_OK(InjectCacqLocked(stream, &ss, {r}, IngressLane::kAll));
  // Fired speculative windows covering the timestamp must be revised;
  // delayed windows that already fired keep the stale row (documented).
  ReviseQueriesLocked(ss, r.timestamp());
  return Status::OK();
}

size_t Server::PumpHeartbeats() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.idle_heartbeat_ms <= 0) return 0;
  const int64_t now = clock_ms_();
  size_t punctuated = 0;
  for (auto& [name, ss] : streams_) {
    if (ss.def.timestamp_field < 0) continue;  // Arrival seq: never idle.
    if (now - ss.last_arrival_ms < options_.idle_heartbeat_ms) continue;
    // Punctuate up to the highest safe watermark among streams this one
    // shares a multi-stream windowed query with — the partners whose
    // windows it is stalling, and (by the shared-clock assumption) the
    // same timestamp domain. Single-stream queries never stall on a
    // partner, so a stream with no multi-stream footprint is left alone.
    Timestamp target = kMinTimestamp;
    for (const QueryState* qs : ss.windowed) {
      for (const StreamState* partner : qs->footprint) {
        if (partner != &ss) target = std::max(target, partner->watermark);
      }
    }
    if (target <= ss.watermark) continue;  // Nothing to unblock.
    const Status st = HeartbeatLocked(name, &ss, target, /*idle=*/true);
    TCQ_CHECK(st.ok()) << st;
    ss.last_arrival_ms = now;
    ++punctuated;
  }
  return punctuated;
}

void Server::SetClockForTesting(std::function<int64_t()> now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ms_ = std::move(now_ms);
}

Status Server::ReplayStream(const std::string& stream, Timestamp from_ts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  StreamState& ss = it->second;
  if (ss.reorder.buffered() > 0) {
    return Status::FailedPrecondition(
        "replay on " + stream +
        " with disordered arrivals still buffered; heartbeat first");
  }
  // Chunked re-delivery through the standing-query lanes. The archive
  // serves each chunk (spool region first, then the resident tail) with
  // equal-timestamp runs never split, so replayed batches respect the
  // same timestamp-run boundaries standard ingress releases do. Replayed
  // records are history — final by definition — so both consistency
  // lanes see them once (IngressLane::kAll); they are NOT re-archived.
  Timestamp lo = from_ts;
  Timestamp max_ts = kMinTimestamp;
  size_t replayed = 0;
  for (;;) {
    TupleVector chunk;
    const Timestamp next =
        ss.archive->ScanChunk(lo, kMaxTimestamp, 1024, &chunk);
    if (!chunk.empty()) {
      max_ts = std::max(max_ts, chunk.back().timestamp());
      replayed += chunk.size();
      TCQ_RETURN_NOT_OK(
          InjectCacqLocked(stream, &ss, std::move(chunk), IngressLane::kAll));
    }
    if (next == kMaxTimestamp) break;
    lo = next;
  }
  if (replayed > 0) {
    TCQ_METRIC(ServerMetrics::Get().spool_replayed->Add(replayed));
    // Replayed history is released history: punctuate the (empty)
    // reorder buffer so the raw watermark covers it, advance the safe
    // watermark, and let windowed queries re-advance over the range. A
    // fresh server reopened on a spool directory starts at kMinTimestamp
    // and lands exactly where the previous incarnation left off.
    std::vector<Tuple> released;
    ss.reorder.Punctuate(max_ts, &released);
    TCQ_CHECK(released.empty());
    if (max_ts > ss.watermark) ss.watermark = max_ts;
    AdvanceQueriesLocked(ss);
  }
  return Status::OK();
}

void Server::DeliverResults(QueryState* qs, std::vector<ResultSet>&& sets) {
  std::lock_guard<std::mutex> rlock(results_mu_);
  for (ResultSet& rs : sets) {
    qs->rows_delivered += rs.rows.size();
    TCQ_METRIC(ServerMetrics::Get().delivered_rows->Add(rs.rows.size()));
    if (qs->callback) {
      qs->callback(rs);
    } else {
      qs->results.push_back(std::move(rs));
    }
  }
}

Status Server::InjectCacqLocked(const std::string& stream, StreamState* ss,
                                std::vector<Tuple> batch, IngressLane lane) {
  const size_t listeners = lane == IngressLane::kDelayed ? ss->cacq_delayed
                           : lane == IngressLane::kSpeculative
                               ? ss->cacq_speculative
                               : ss->cacq_live();
  if (listeners == 0 || batch.empty()) return Status::OK();
  if (ss->sharded != nullptr) {
    return ss->sharded->PushBatch(stream, std::move(batch), lane);
  }
  const Status st = ss->cacq->InjectBatch(stream, batch, lane);
  // Deliver even when the injection failed part-way, so no row it
  // emitted first is left waiting in the buffer.
  if (!ss->cacq_pending.empty()) DeliverEmissions(ss, ss->cacq_pending);
  return st;
}

void Server::DeliverEmissions(StreamState* ss, std::vector<Emission>& batch) {
  {
    std::lock_guard<std::mutex> rlock(results_mu_);
    ResultSet rs;  // Reused for every row a callback consumes.
    for (const auto& [engine_q, t] : batch) {
      QueryState* owner = engine_q < ss->cacq_owner.size()
                              ? ss->cacq_owner[engine_q]
                              : nullptr;
      if (owner == nullptr) continue;  // Canceled mid-flight.
      rs.t = t.timestamp();
      rs.rows.clear();
      rs.rows.push_back(ProjectCacqRow(*owner, t));
      ++owner->rows_delivered;
      TCQ_METRIC(ServerMetrics::Get().delivered_rows->Add(1));
      if (owner->callback) {
        owner->callback(rs);
      } else {
        owner->results.push_back(std::move(rs));
      }
    }
  }
  batch.clear();  // Keeps the capacity for the next batch...
  // ...unless a rare huge injection (a replay chunk over many queries)
  // grew it: the inline buffer lives as long as the stream.
  if (batch.capacity() > kMaxRetainedEmissions) batch.shrink_to_fit();
}

std::optional<ResultSet> Server::Poll(QueryId q) {
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> rlock(results_mu_);
  auto it = queries_.find(q);
  if (it == queries_.end() || it->second->results.empty()) {
    return std::nullopt;
  }
  std::deque<ResultSet>& dq = it->second->results;
  ResultSet rs = std::move(dq.front());
  dq.pop_front();
  return rs;
}

std::vector<ResultSet> Server::PollAll(QueryId q) {
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> rlock(results_mu_);
  std::vector<ResultSet> out;
  auto it = queries_.find(q);
  if (it == queries_.end()) return out;
  auto& dq = it->second->results;
  out.assign(std::make_move_iterator(dq.begin()),
             std::make_move_iterator(dq.end()));
  dq.clear();
  return out;
}

size_t Server::num_active_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

size_t Server::PumpMetrics() {
  PublishPoolMetrics();  // Pull allocator-pool totals into the registry.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(kMetricsStream);
  TCQ_CHECK(it != streams_.end()) << "introspection stream missing";

  std::vector<Tuple> rows;
  auto add = [&rows](const std::string& name, const char* kind,
                     double value) {
    rows.push_back(Tuple::Make({Value::String(name), Value::String(kind),
                                Value::Double(value)}));
  };

  // The global registry (empty under -DTCQ_DISABLE_METRICS).
  for (const MetricSample& s : MetricRegistry::Global().Snapshot()) {
    switch (s.kind) {
      case MetricKind::kCounter:
        add(s.name, "counter", s.value);
        break;
      case MetricKind::kGauge:
        add(s.name, "gauge", s.value);
        break;
      case MetricKind::kHistogram:
        add(s.name + ".count", "histogram", s.value);
        add(s.name + ".sum", "histogram", s.sum);
        add(s.name + ".p50", "histogram", s.p50);
        add(s.name + ".p99", "histogram", s.p99);
        break;
    }
  }

  // Per-stream / per-query detail only the server knows. These stay live
  // in every build, so queries over tcq.metrics always see tuples.
  for (const auto& [name, ss] : streams_) {
    if (name == kMetricsStream) continue;  // No self-feedback rows.
    const std::string prefix = "tcq.stream." + name + ".";
    add(prefix + "arrivals", "counter", static_cast<double>(ss.arrivals));
    add(prefix + "rejected", "counter", static_cast<double>(ss.rejected));
    add(prefix + "watermark", "gauge",
        ss.watermark == kMinTimestamp ? 0.0
                                      : static_cast<double>(ss.watermark));
    add(prefix + "raw_watermark", "gauge",
        ss.reorder.raw_watermark() == kMinTimestamp
            ? 0.0
            : static_cast<double>(ss.reorder.raw_watermark()));
    add(prefix + "buffered", "gauge",
        static_cast<double>(ss.reorder.buffered()));
    add(prefix + "disorder.released", "counter",
        static_cast<double>(ss.dis.released));
    add(prefix + "disorder.late_within_bound", "counter",
        static_cast<double>(ss.dis.late_within_bound));
    add(prefix + "disorder.beyond_bound", "counter",
        static_cast<double>(ss.dis.beyond_bound));
    add(prefix + "disorder.dropped", "counter",
        static_cast<double>(ss.dis.dropped));
    add(prefix + "disorder.ingested_late", "counter",
        static_cast<double>(ss.dis.ingested_late));
    add(prefix + "disorder.heartbeats", "counter",
        static_cast<double>(ss.dis.heartbeats));
    add(prefix + "disorder.idle_heartbeats", "counter",
        static_cast<double>(ss.dis.idle_heartbeats));
    add(prefix + "disorder.retractions", "counter",
        static_cast<double>(ss.dis.retractions));
    add(prefix + "disorder.unmatched_retractions", "counter",
        static_cast<double>(ss.dis.unmatched_retractions));
  }
  uint64_t delivered = 0;
  {
    std::lock_guard<std::mutex> rlock(results_mu_);
    delivered = retired_rows_delivered_;
    for (const auto& [id, q] : queries_) delivered += q->rows_delivered;
  }
  add("tcq.server.active_queries", "gauge",
      static_cast<double>(queries_.size()));
  add("tcq.server.query_delivered_rows", "counter",
      static_cast<double>(delivered));

  const size_t n = rows.size();
  Status st =
      IngestBatchLocked(kMetricsStream, &it->second, std::move(rows), nullptr);
  TCQ_CHECK(st.ok()) << st;
  return n;
}

namespace {

void AppendKey(const std::string& key, std::string* out) {
  out->push_back('"');
  *out += JsonEscape(key);
  *out += "\":";
}

}  // namespace

std::string Server::SnapshotMetrics() const {
  PublishPoolMetrics();  // Pull allocator-pool totals into the registry.
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\":{";
  bool first = true;
  for (const MetricSample& s : MetricRegistry::Global().Snapshot()) {
    if (!first) out += ",";
    first = false;
    AppendSampleJson(s, &out);
  }

  out += "},\"streams\":{";
  first = true;
  for (const auto& [name, ss] : streams_) {
    if (!first) out += ",";
    first = false;
    AppendKey(name, &out);
    out += "{\"arrivals\":" + std::to_string(ss.arrivals) +
           ",\"rejected\":" + std::to_string(ss.rejected) + ",\"watermark\":" +
           std::to_string(ss.watermark == kMinTimestamp ? 0 : ss.watermark) +
           ",\"raw_watermark\":" +
           std::to_string(ss.reorder.raw_watermark() == kMinTimestamp
                              ? 0
                              : ss.reorder.raw_watermark()) +
           ",\"buffered\":" + std::to_string(ss.reorder.buffered()) +
           ",\"cacq_queries\":" +
           std::to_string(ss.cacq_live()) +
           ",\"disorder\":{\"released\":" + std::to_string(ss.dis.released) +
           ",\"late_within_bound\":" +
           std::to_string(ss.dis.late_within_bound) +
           ",\"beyond_bound\":" + std::to_string(ss.dis.beyond_bound) +
           ",\"dropped\":" + std::to_string(ss.dis.dropped) +
           ",\"ingested_late\":" + std::to_string(ss.dis.ingested_late) +
           ",\"heartbeats\":" + std::to_string(ss.dis.heartbeats) +
           ",\"idle_heartbeats\":" + std::to_string(ss.dis.idle_heartbeats) +
           ",\"retractions\":" + std::to_string(ss.dis.retractions) +
           ",\"unmatched_retractions\":" +
           std::to_string(ss.dis.unmatched_retractions) + "}" +
           ",\"history\":{\"resident\":" +
           std::to_string(ss.archive->resident_size()) +
           ",\"spooled\":" + std::to_string(ss.archive->spooled_size()) +
           "}}";
  }

  if (spool_ != nullptr) {
    // The shared-spool view: on-disk footprint plus the page-cache
    // behavior that decides cold-scan latency (tcq.spool.* counters in
    // the registry section carry the append/recovery detail).
    const spool::BufferManager::Stats cs = spool_->cache_stats();
    out += "},\"spool\":{\"bytes\":" + std::to_string(spool_->bytes()) +
           ",\"segments\":" + std::to_string(spool_->segments()) +
           ",\"keys\":" + std::to_string(spool_->Keys().size()) +
           ",\"cache_pages\":" + std::to_string(spool_->cache_pages()) +
           ",\"cache\":{\"hits\":" + std::to_string(cs.hits) +
           ",\"misses\":" + std::to_string(cs.misses) +
           ",\"evictions\":" + std::to_string(cs.evictions) +
           ",\"readahead\":" + std::to_string(cs.readahead) + "}";
  }

  out += "},\"queries\":{";
  first = true;
  {
    std::lock_guard<std::mutex> rlock(results_mu_);
    for (const auto& [q, qptr] : queries_) {
      const QueryState& qs = *qptr;
      if (!first) out += ",";
      first = false;
      AppendKey(std::to_string(q), &out);
      out += std::string("{\"active\":true,\"kind\":\"") +
             (qs.cacq_stream != nullptr ? "cacq" : "windowed") +
             "\",\"delivered_rows\":" + std::to_string(qs.rows_delivered) +
             ",\"pending_sets\":" + std::to_string(qs.results.size()) + "}";
    }
  }

  // Shared-eddy detail per stream that has one: routing counters, per-op
  // stats (thin views over the telemetry counters) and SteM snapshots.
  out += "},\"eddies\":{";
  first = true;
  for (const auto& [name, ss] : streams_) {
    if (ss.cacq == nullptr) continue;
    if (!first) out += ",";
    first = false;
    const Eddy& eddy = ss.cacq->eddy();
    AppendKey(name, &out);
    out += "{\"decisions\":" + std::to_string(eddy.decisions()) +
           ",\"visits\":" + std::to_string(eddy.visits()) +
           ",\"emitted\":" + std::to_string(eddy.emitted()) +
           ",\"cache_hits\":" + std::to_string(eddy.decision_cache_hits()) +
           ",\"cache_misses\":" +
           std::to_string(eddy.decision_cache_misses()) + ",\"ops\":[";
    const std::vector<EddyOpStats>& stats = eddy.op_stats();
    for (size_t i = 0; i < stats.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"name\":\"" + JsonEscape(eddy.op(i)->name()) +
             "\",\"routed\":" + std::to_string(stats[i].routed.value()) +
             ",\"passed\":" + std::to_string(stats[i].passed.value()) +
             ",\"produced\":" + std::to_string(stats[i].produced.value()) +
             "}";
    }
    out += "],\"stems\":[";
    const auto stems = ss.cacq->stem_snapshots();
    for (size_t i = 0; i < stems.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"name\":\"" + JsonEscape(stems[i].name) +
             "\",\"size\":" + std::to_string(stems[i].size) +
             ",\"probes\":" + std::to_string(stems[i].probes) +
             ",\"scanned\":" + std::to_string(stems[i].scanned) +
             ",\"matches\":" + std::to_string(stems[i].matches) + "}";
    }
    out += "]}";
  }

  // Shard-fleet detail per sharded stream (atomics-only ShardStats — the
  // one engine view that is safe to read while shard threads run).
  out += "},\"shards\":{";
  first = true;
  for (const auto& [name, ss] : streams_) {
    if (ss.sharded == nullptr) continue;
    if (!first) out += ",";
    first = false;
    AppendKey(name, &out);
    out += "[";
    const std::vector<ShardedEngine::ShardStats> stats =
        ss.sharded->shard_stats();
    for (size_t i = 0; i < stats.size(); ++i) {
      if (i != 0) out += ",";
      // Buckets owned comes from the live PartitionMap (atomic reads):
      // rebalancing shifts these while the fleet runs.
      out += "{\"routed\":" + std::to_string(stats[i].routed) +
             ",\"processed\":" + std::to_string(stats[i].processed) +
             ",\"queue_depth\":" + std::to_string(stats[i].queue_depth) +
             ",\"eddy_decisions\":" + std::to_string(stats[i].eddy_decisions) +
             ",\"eddy_emitted\":" + std::to_string(stats[i].eddy_emitted) +
             ",\"buckets\":" +
             std::to_string(
                 ss.sharded->partition_map().BucketsOwnedBy(i).size()) +
             "}";
    }
    out += "]";
  }
  // Replication detail per sharded stream with process-pair HA enabled
  // (atomics + replica-store counters — safe while shard threads run).
  out += "},\"replicas\":{";
  first = true;
  for (const auto& [name, ss] : streams_) {
    if (ss.sharded == nullptr || !ss.sharded->replication_enabled()) continue;
    if (!first) out += ",";
    first = false;
    AppendKey(name, &out);
    out += "[";
    const std::vector<ShardedEngine::ReplicaStats> reps =
        ss.sharded->replica_stats();
    for (size_t i = 0; i < reps.size(); ++i) {
      if (i != 0) out += ",";
      out += std::string("{\"alive\":") + (reps[i].alive ? "true" : "false") +
             ",\"applied_lsn\":" + std::to_string(reps[i].applied_lsn) +
             ",\"logged_lsn\":" + std::to_string(reps[i].logged_lsn) +
             ",\"snapshot_floor\":" + std::to_string(reps[i].snapshot_floor) +
             ",\"changelog_records\":" +
             std::to_string(reps[i].changelog_records) +
             ",\"changelog_bytes\":" + std::to_string(reps[i].changelog_bytes) +
             ",\"checkpoints\":" + std::to_string(reps[i].checkpoints) +
             ",\"torn_rejected\":" + std::to_string(reps[i].torn_rejected) +
             "}";
    }
    out += "]";
  }
  out += "}}";
  return out;
}

}  // namespace tcq
