#ifndef TCQ_CORE_SERVER_H_
#define TCQ_CORE_SERVER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cacq/engine.h"
#include "cacq/sharded_engine.h"
#include "core/analyzer.h"
#include "core/runner.h"
#include "ingress/wrapper.h"
#include "tuple/catalog.h"

namespace tcq {

/// The TelegraphCQ server facade: the in-process equivalent of the
/// paper's FrontEnd + Executor + Wrapper processes (§4.2, Figure 5).
///
///  * DefineStream / DefineTable populate the system catalog;
///  * Submit parses, analyzes and *dynamically folds in* a continuous
///    query — windowed queries get a QueryRunner in the query class of
///    their footprint, while standing single-stream filter queries join
///    the per-stream CACQ shared eddy;
///  * Push ingests stream data: it lands in the stream's archive (the
///    spooled history a scanner serves window scans from), advances every
///    runner whose footprint includes the stream, and routes through the
///    CACQ engine;
///  * results accumulate in per-query output queues, pulled with Poll —
///    the PSoup-style separation of computation from delivery — or pushed
///    through a callback.
///
/// Thread-safety: Push/Submit/Poll are serialized by one mutex; the
/// heavy lifting stays single-threaded per call (wrap the server in
/// ExecutionObject modules to scale across streams).
class Server {
 public:
  struct Options {
    std::string policy = "lottery";
    uint64_t seed = 7;
    /// Archive retention span per stream (how much history windows and
    /// late-registered queries can reach back into).
    Timestamp retention_span = kMaxTimestamp;
    /// Worker shards per stream's shared CACQ engine. 1 (default) keeps
    /// the classic inline engine: injection runs synchronously inside
    /// Push, results are visible the moment Push returns. With N > 1
    /// each stream's standing filters/joins execute on N shard threads
    /// behind a hash exchange (DESIGN.md §11): Push only scatters, CACQ
    /// results arrive asynchronously (callbacks fire on the egress
    /// thread; call Quiesce() for a delivery barrier). Windowed queries
    /// are unaffected either way.
    size_t cacq_shards = 1;
    /// Hash buckets in each sharded stream's PartitionMap — the granule
    /// online rebalancing moves between shards (DESIGN.md §12).
    size_t cacq_buckets = 64;
    /// Runs a RebalanceController per sharded stream that watches shard
    /// backlog and migrates hot buckets automatically (Flux §2.4).
    /// Manual Rebalance() works with or without it.
    bool auto_rebalance = false;
    RebalanceController::Options rebalance;
    /// Standby replicas per shard (Flux process pairs, DESIGN.md §13):
    /// 0 = no fault tolerance; 1 dual-routes every scattered batch into a
    /// per-shard changelog and keeps a warm standby engine, so a killed
    /// shard can be failed over with zero lost or duplicated results.
    /// Only meaningful with cacq_shards > 1.
    size_t cacq_replicas = 0;
    /// Default per-stream disorder bound (DESIGN.md §15): arrivals whose
    /// timestamp may still be overtaken by earlier data are buffered in a
    /// reorder buffer and released in timestamp order once the stream's
    /// raw high-water mark has advanced past ts + max_disorder. 0 keeps
    /// the classic strictly-in-order ingress. Per-stream override:
    /// SetDisorderBound. Ignored for arrival-sequence streams (no
    /// timestamp column — disorder is impossible there).
    Timestamp max_disorder = 0;
    /// What happens to an arrival later than the disorder bound (its
    /// timestamp is already below the released watermark).
    LatePolicy late_policy = LatePolicy::kReject;
    /// Idle-stream heartbeat timeout in milliseconds (0 = disabled): a
    /// stream with a timestamp column that has been silent this long is
    /// punctuated up to its multi-stream-query partners' watermark on the
    /// next PumpHeartbeats() call, so a quiet stream stops stalling shared
    /// windowed watermarks. Assumes the streams share a timestamp clock.
    int64_t idle_heartbeat_ms = 0;
    /// Disk-backed history spool (DESIGN.md §16). Empty = off: all
    /// history stays resident, the classic unbounded-RAM archive. Set to
    /// a directory to bound resident memory — each stream's archive keeps
    /// only the newest spool_resident_tuples in RAM and demotes the rest
    /// to append-only segments under this directory; window scans and
    /// kIngestLate backfill read through the spool's page cache
    /// transparently, and a server reopened on the same directory adopts
    /// the spooled history (see ReplayStream).
    std::string spool_dir;
    /// Spool page-cache capacity in 4 KiB pages, shared by every stream —
    /// THE resident-memory knob for queries over history: cold scans
    /// fault through it, so RAM stays bounded no matter how much history
    /// the windows reach back into.
    size_t spool_cache_pages = 256;
    /// Newest tuples each archive keeps in RAM before demoting to disk.
    size_t spool_resident_tuples = 4096;
    /// Spool segment rotation size (smaller = finer retention granule).
    uint64_t spool_segment_bytes = 4ull << 20;
    /// fsync every demotion (crash-safety tests; ruinous throughput).
    bool spool_sync_each_append = false;
  };

  Server();
  explicit Server(Options options);
  ~Server();  // Stops shard/egress threads before any state they touch.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // --- Catalog -----------------------------------------------------------
  /// `timestamp_field`: column carrying the application timestamp used by
  /// windows (-1 = arrival sequence numbers). `partition_field`: column
  /// the sharded exchange hashes on when cacq_shards > 1 (-1 = the first
  /// non-timestamp column); equi-joins between sharded streams must join
  /// on their partition fields.
  Status DefineStream(const std::string& name, SchemaPtr schema,
                      int timestamp_field = -1, int partition_field = -1);
  Status DefineTable(const std::string& name, SchemaPtr schema,
                     TupleVector rows);

  // --- Queries -------------------------------------------------------------
  /// Per-query submission knobs.
  struct SubmitOptions {
    /// CEDR consistency level (DESIGN.md §15). kDelayed (default) holds
    /// results until the safe watermark proves them final; kSpeculative
    /// emits at the raw watermark and revises with retraction-signed rows
    /// when late data changes an already-delivered result.
    Consistency consistency = Consistency::kDelayed;
  };

  /// Registers a continuous query; results accumulate until polled.
  Result<QueryId> Submit(const std::string& sql);
  Result<QueryId> Submit(const std::string& sql, const SubmitOptions& opts);

  /// Push-mode delivery for one query (egress operator): set before data
  /// flows; results still accumulate for Poll when no callback is set.
  using Callback = std::function<void(const ResultSet&)>;
  Status SetCallback(QueryId q, Callback cb);

  Status Cancel(QueryId q);

  /// Output schema of a submitted query.
  Result<SchemaPtr> OutputSchema(QueryId q) const;

  // --- Data ------------------------------------------------------------------
  /// Ingests one tuple. Its timestamp comes from the stream's declared
  /// timestamp column (or arrival order), and every affected query
  /// advances.
  Status Push(const std::string& stream, const Tuple& tuple);

  /// Ingests a whole batch under ONE lock acquisition, with one archive
  /// spool pass, one shared-eddy injection (one Drain) and one windowed
  /// advance for the entire batch. Results are identical to pushing each
  /// tuple individually; only per-tuple overhead is amortized.
  ///
  /// Invalid tuples (arity mismatch, bad or out-of-order timestamp) are
  /// skipped: when `rejected` is non-null their count is reported there
  /// and the valid remainder still flows (returns OK); when null, the
  /// first error is returned after the preceding valid prefix has been
  /// ingested — the same partial-ingest semantics as a Push loop.
  Status PushBatch(const std::string& stream, std::vector<Tuple> batch,
                   size_t* rejected = nullptr);

  /// Convenience: drain a pull source into a stream.
  Status PushAll(const std::string& stream, TupleSource* source);

  // --- Disorder, punctuation and retraction (DESIGN.md §15) ---------------
  /// Sets `stream`'s disorder bound and beyond-bound policy, overriding
  /// the server-wide Options defaults. Requires a timestamp column.
  Status SetDisorderBound(const std::string& stream, Timestamp max_disorder,
                          LatePolicy policy = LatePolicy::kReject);

  /// Explicit punctuation: the source asserts no future arrival on
  /// `stream` has timestamp <= ts. Flushes the reorder buffer through ts,
  /// advances the safe watermark to at least ts, and advances every query
  /// watching the stream — the cure for a quiet stream stalling a
  /// multi-stream watermark. Requires a timestamp column.
  Status Heartbeat(const std::string& stream, Timestamp ts);

  /// Ingests a retraction: cancels the archived assertion whose payload
  /// (timestamp + cells) matches `tuple`, flows a retraction-signed tuple
  /// through the stream's standing CACQ queries (canceling SteM state and
  /// emitting signed result rows), and revises speculative windowed
  /// queries. An unmatched retraction is dropped and counted
  /// (tcq.disorder.unmatched_retractions); delayed windowed queries see
  /// the cancellation only in windows that have not fired yet. Requires a
  /// timestamp column.
  Status Retract(const std::string& stream, const Tuple& tuple);

  /// Scans every stream for idle-timeout heartbeats (Options::
  /// idle_heartbeat_ms): a silent stream is punctuated up to the highest
  /// safe watermark among streams it shares a multi-stream windowed query
  /// with. Returns the number of streams punctuated. Call it from a timer
  /// (there is no background thread).
  size_t PumpHeartbeats();

  /// Replaces the wall clock PumpHeartbeats uses to measure idleness.
  void SetClockForTesting(std::function<int64_t()> now_ms);

  /// Replays `stream`'s archived history with timestamp >= from_ts
  /// through the standing-query lanes (DESIGN.md §16): every standing
  /// CACQ query — delayed and speculative alike, the records are final —
  /// sees the replayed tuples in timestamp order, the safe watermark
  /// advances over the replayed range, and windowed queries re-advance.
  /// Records are read back through the spool's page cache when the
  /// history lives on disk and are NOT re-archived. The primary use is a
  /// server reopened on Options::spool_dir: DefineStream adopts the
  /// spooled history, then ReplayStream(stream, kMinTimestamp) feeds it
  /// to freshly registered queries. Fails if disordered arrivals are
  /// still buffered (heartbeat first — replay may not interleave with an
  /// open disorder window).
  Status ReplayStream(const std::string& stream, Timestamp from_ts);

  /// Delivery barrier for sharded execution: returns once every tuple
  /// pushed before the call has been executed and its results delivered
  /// (queued for Poll, or called back). A no-op when cacq_shards == 1 —
  /// the inline path is already synchronous. Must not be called from a
  /// result callback.
  void Quiesce();

  /// Manually migrates one hash bucket of `stream`'s sharded exchange to
  /// `to_shard` mid-stream (Flux-style state movement; no results lost or
  /// duplicated — see ShardedEngine::MigrateBucket). The stream must be
  /// running sharded (cacq_shards > 1 and at least one standing query).
  /// Must not be called from a result callback.
  Status Rebalance(const std::string& stream, size_t bucket, size_t to_shard);

  // --- Results -----------------------------------------------------------------
  /// Next undelivered result set of query q, if any.
  std::optional<ResultSet> Poll(QueryId q);
  /// All undelivered result sets of query q.
  std::vector<ResultSet> PollAll(QueryId q);

  size_t num_active_queries() const;

  // --- Telemetry ---------------------------------------------------------------
  /// Name of the reserved introspection stream every server defines at
  /// construction (schema: name STRING, kind STRING, value DOUBLE; arrival
  /// sequence timestamps). Continuous queries range over engine telemetry
  /// like over any stream:
  ///   SELECT name, value FROM tcq.metrics WHERE value > 1000
  static constexpr const char* kMetricsStream = "tcq.metrics";

  /// Publishes one engine-telemetry snapshot into `tcq.metrics` as a
  /// single batch of arrivals: every metric in the global registry plus
  /// the per-stream / per-query detail only the server knows (ingest,
  /// rejects, watermarks, delivered rows — live in every build, including
  /// -DTCQ_DISABLE_METRICS). Returns the number of tuples published.
  size_t PumpMetrics();

  /// JSON snapshot of engine telemetry (contract in DESIGN.md §10): the
  /// global metric registry plus per-stream, per-query and shared-eddy
  /// detail. Used by the examples and scripts/bench.sh.
  std::string SnapshotMetrics() const;

 private:
  struct StreamState;
  /// (engine slot, full-width result tuple): what a CACQ engine emits.
  using Emission = ShardedEngine::Emission;
  /// Source shard, lane and release threshold of an emission batch.
  using EgressTag = ShardedEngine::EgressTag;

  /// A live query. Cancel destroys it; only the output schema outlives it
  /// (output_schemas_).
  struct QueryState {
    Consistency consistency = Consistency::kDelayed;
    /// Delayed CACQ path: the first arrival-lane timestamp it delivers.
    /// Submitted while tuples sat in the reorder buffer, the query never
    /// saw them routed, so it starts above the stream's raw watermark at
    /// Submit: every tuple there arrives after Submit, and its output is a
    /// timestamp suffix of the in-order replay.
    Timestamp cacq_from = kMinTimestamp;
    AnalyzedQuery analyzed;
    std::unique_ptr<QueryRunner> runner;  ///< Windowed path.
    /// Windowed path: the distinct streams of the footprint (map nodes are
    /// address-stable), read for the watermark minimum on every advance.
    std::vector<StreamState*> footprint;
    StreamState* cacq_stream = nullptr;  ///< CACQ path (null: windowed).
    QueryId cacq_id = 0;                 ///< Engine slot on that stream.
    std::deque<ResultSet> results;
    Callback callback;
    uint64_t rows_delivered = 0;  ///< Egress rows (queued or called back).
  };

  /// A delayed CACQ query's projected row, routed on the arrival lane and
  /// waiting for the stream's release threshold to pass its timestamp.
  struct HeldRow {
    Tuple row;
    QueryState* owner;
  };
  /// One release buffer (DESIGN.md §15). Rows stay stable-sorted by
  /// timestamp over arrival order — the reorder buffer's release order —
  /// so each delayed query's rows leave in exactly the order routing the
  /// release feed would have produced them.
  struct HeldRows {
    std::vector<HeldRow> rows;  ///< [head, end) are still held.
    size_t head = 0;
    size_t size() const { return rows.size() - head; }
  };

  struct StreamState {
    StreamDef def;
    std::unique_ptr<Archive> archive;
    /// SAFE watermark: the released frontier F. Every tuple at or below it
    /// has been released to the archive/delayed path, and no future
    /// release is below it. Arrivals with ts < F are beyond-bound
    /// stragglers (LatePolicy). The raw high-water mark (max stamped ts)
    /// lives on `reorder`.
    Timestamp watermark = kMinTimestamp;
    int64_t arrivals = 0;
    int64_t rejected = 0;  ///< Tuples refused by validation/stamping.
    /// Bounded-disorder ingress (DESIGN.md §15). max_disorder == 0 is the
    /// classic in-order path: arrivals release immediately, watermark
    /// semantics are exactly the pre-disorder behavior.
    ReorderBuffer reorder;
    LatePolicy late_policy = LatePolicy::kReject;
    int64_t last_arrival_ms = 0;  ///< Idle-heartbeat bookkeeping.
    /// Standing CACQ queries per consistency level: stragglers are routed
    /// only with speculative listeners, and a batch carries a release
    /// threshold only with delayed ones.
    size_t cacq_delayed = 0;
    size_t cacq_speculative = 0;
    /// Per-stream disorder counters (PumpMetrics / SnapshotMetrics rows).
    struct Disorder {
      int64_t released = 0;
      int64_t late_within_bound = 0;
      int64_t beyond_bound = 0;
      int64_t dropped = 0;
      int64_t ingested_late = 0;
      int64_t heartbeats = 0;
      int64_t idle_heartbeats = 0;
      int64_t retractions = 0;
      int64_t unmatched_retractions = 0;
    } dis;
    /// Exchange hash column when cacq_shards > 1 (resolved at definition).
    size_t partition_column = 0;
    std::unique_ptr<CacqEngine> cacq;  ///< Lazy inline eddy (1 shard).
    /// Inline engine emissions of the injection in progress, drained by
    /// DeliverEmissions after it (capacity reused across injections).
    std::vector<Emission> cacq_pending;
    /// Within-bound arrivals of the ingest in progress when they differ
    /// from its releases, routed once by InjectArrivalsLocked (capacity
    /// reused across ingests).
    std::vector<Tuple> cacq_arrivals;
    std::unique_ptr<ShardedEngine> sharded;  ///< Lazy shard fleet (N > 1).
    /// Release buffers for delayed queries' arrival-lane rows: one for the
    /// inline engine, one per shard (each shard's rows leave in its own
    /// release order). Guarded by results_mu_.
    std::vector<HeldRows> held;
    /// Engine slot -> live owning query (null = free slot, or a cancelled
    /// query whose in-flight emissions are dropped). Engine slots are
    /// dense and reused, so this stays as wide as the peak live count.
    /// Guarded by results_mu_ (the egress thread resolves emissions
    /// through it); writers hold mu_ too.
    std::vector<QueryState*> cacq_owner;
    /// Highest `cacq_from` of the stream's delayed queries, never lowered:
    /// delivery screens only rows below it, and once the safe watermark
    /// passes it no arrival-lane row is. Guarded by results_mu_.
    Timestamp cacq_from_max = kMinTimestamp;
    /// Live windowed queries whose footprint includes this stream, in
    /// submission order: the only queries an ingest on this stream can
    /// advance or revise. CACQ and cancelled queries never appear here.
    std::vector<QueryState*> windowed;

    size_t cacq_live() const { return cacq_delayed + cacq_speculative; }
  };

  /// Records that `qs` owns engine slot `slot` on `ss`'s CACQ engine, and
  /// sets a delayed query's `cacq_from`.
  void MapCacqSlotLocked(StreamState* ss, QueryId slot, QueryState* qs);
  /// Watermark a windowed query may advance to: the minimum over its
  /// footprint (safe marks when delayed, raw marks when speculative).
  Timestamp FootprintWatermark(const QueryState& qs) const;
  /// Projects a full-width CACQ result tuple per the owner's select list.
  static Tuple ProjectCacqRow(const QueryState& owner, const Tuple& t);
  void DeliverResults(QueryState* qs, std::vector<ResultSet>&& sets);
  /// Feeds `batch` to the standing CACQ queries `lane` reaches on `ss`,
  /// if it has any: scatters it to the shard fleet, or injects it into
  /// the inline engine and delivers what that emitted before returning
  /// (also when the injection fails part-way). `release`: the stream's
  /// release threshold for a kArrival batch (kMaxTimestamp = none); with
  /// one, an empty batch still releases held rows. `batch` is moved to the
  /// shard fleet, or only read inline, so the caller may reuse it.
  Status InjectCacqLocked(const std::string& stream, StreamState* ss,
                          std::vector<Tuple>&& batch, IngressLane lane,
                          Timestamp release = kMaxTimestamp);
  /// Routes one ingest's within-bound `arrivals` (emptied) once, in
  /// arrival order, on kArrival, and each of the `late` stragglers on
  /// kSpeculative after the count of arrivals that preceded it. The run
  /// after the last straggler carries the batch's release threshold; the
  /// runs before it hold at `released_before`, the safe watermark before
  /// the batch.
  Status InjectArrivalsLocked(const std::string& stream, StreamState* ss,
                              std::vector<Tuple>& arrivals,
                              std::vector<std::pair<size_t, Tuple>>& late,
                              Timestamp released_before);
  /// The one CACQ egress, for both engines: one ResultSet per emission,
  /// in batch order, to its owner's callback or Poll queue; emissions of
  /// cancelled queries are dropped. A kArrival batch with a release
  /// threshold holds its delayed queries' rows in the tag's shard's
  /// release buffer, and every kArrival batch then delivers the held rows
  /// at or below its threshold. Clears `batch`. Takes results_mu_ only, never
  /// mu_: the sharded egress thread calls it while a producer blocked on
  /// a full exchange queue may hold mu_.
  void DeliverEmissions(StreamState* ss, std::vector<Emission>& batch,
                        const EgressTag& tag);
  /// Counts one filled result set `rs` for `owner` and hands it to the
  /// owner's callback or Poll queue (which may take its rows).
  static void DeliverRow(QueryState* owner, ResultSet& rs);
  /// DeliverEmissions tail: sorts the rows held from `first_new` on into
  /// `held` and delivers every held row at or below `release`.
  static void ReleaseHeldRows(HeldRows* held, size_t first_new,
                              Timestamp release);
  /// Punctuation tail: releases the delayed CACQ rows the safe watermark
  /// now covers — from the inline release buffer, or by sending the
  /// threshold to every shard.
  Status ReleaseHeldLocked(StreamState* ss);
  Status PushLocked(const std::string& stream, const Tuple& tuple);
  /// Validates `tuple` against `ss` and stamps its engine timestamp
  /// (declared column or arrival order). Watermark logic lives in
  /// IngestBatchLocked — stamping no longer touches it.
  Status StampLocked(StreamState* ss, Tuple* tuple);
  /// Advances every windowed query whose footprint includes `ss` —
  /// delayed queries to the min safe watermark over their footprint,
  /// speculative ones to the min raw watermark.
  void AdvanceQueriesLocked(const StreamState& ss);
  /// Revision pass: tells every speculative windowed query watching `ss`
  /// that data at or after `late_ts` changed under fired windows.
  void ReviseQueriesLocked(const StreamState& ss, Timestamp late_ts);
  /// Spools reorder-buffer releases: archive append and safe-watermark
  /// advance. The shared tail of ingest, Heartbeat and PumpHeartbeats.
  static void ApplyReleasedLocked(StreamState* ss,
                                  const std::vector<Tuple>& released);
  /// Punctuation body shared by Heartbeat and PumpHeartbeats.
  Status HeartbeatLocked(StreamState* ss, Timestamp ts, bool idle);
  /// PushBatch body after the stream lookup; shared with PumpMetrics.
  Status IngestBatchLocked(const std::string& stream, StreamState* ss,
                           std::vector<Tuple> batch, size_t* rejected);

  /// Serializes catalog, ingest and query registration (as before).
  mutable std::mutex mu_;
  /// Guards query result state (QueryState::results/callback/
  /// rows_delivered), the queries_ map, retired_rows_delivered_ and
  /// every cacq_owner table — the state the sharded egress thread touches.
  /// Lock order: mu_ before results_mu_; the egress thread takes
  /// results_mu_ alone, so it can never deadlock with a producer
  /// blocked on a full exchange while holding mu_.
  mutable std::mutex results_mu_;
  Options options_;
  Catalog catalog_;
  /// Shared disk spool (Options::spool_dir; null = off). Declared before
  /// streams_ so it outlives the archives and engines holding raw
  /// pointers into it.
  std::unique_ptr<Spool> spool_;
  std::map<std::string, StreamState> streams_;
  /// Live queries by public id. Public ids are monotonic and never
  /// reused; a cancelled id is simply absent (NotFound).
  std::map<QueryId, std::unique_ptr<QueryState>> queries_;
  /// Output schema per public id ever issued (the one thing that outlives
  /// Cancel); its size is the next public id.
  std::vector<SchemaPtr> output_schemas_;
  /// Egress rows of cancelled queries, so the delivered-rows total that
  /// PumpMetrics publishes stays monotonic.
  uint64_t retired_rows_delivered_ = 0;
  /// Live kSpeculative queries: lets ReviseQueriesLocked skip its per-batch
  /// sweep in the common no-speculative-queries case.
  size_t num_speculative_ = 0;
  /// Millisecond clock for idle-heartbeat detection (injectable).
  std::function<int64_t()> clock_ms_;
};

}  // namespace tcq

#endif  // TCQ_CORE_SERVER_H_
