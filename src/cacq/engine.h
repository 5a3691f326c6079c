#ifndef TCQ_CACQ_ENGINE_H_
#define TCQ_CACQ_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cacq/migration.h"
#include "cacq/shared_ops.h"
#include "eddy/eddy.h"
#include "expr/ast.h"
#include "modules/grouped_filter.h"
#include "stem/stem.h"

namespace tcq {

/// A continuous query registered with the shared engine.
struct CacqQuerySpec {
  /// Source aliases this query ranges over (its *footprint*) — a subset of
  /// the engine's streams. Single-stream selection queries name one.
  std::vector<std::string> sources;
  /// WHERE predicate with qualified (or unique bare) column names; null =
  /// no predicate. Equality factors between two sources become shared
  /// SteM joins; single-column factors enter grouped filters; everything
  /// else becomes per-query residual work.
  ExprPtr where;
  /// CEDR consistency level (DESIGN.md §15): false = delayed-but-correct,
  /// true = speculative (may see retraction-signed tuples). It selects
  /// the IngressLanes that seed the query: a speculative query sees
  /// kArrival and kSpeculative; a delayed single-source query sees
  /// kArrival, its rows held at delivery until released; a delayed
  /// multi-source (SteM) query sees kReleased. Every query sees kAll.
  bool speculative = false;
};

/// CACQ (§3.1): one Eddy executing many continuous queries at once — the
/// "super-query" that is the disjunction of all registered queries. Tuple
/// lineage (a query bitmap) tracks which queries each tuple still
/// satisfies; grouped filters index shared selections; shared SteMs serve
/// every query's joins from one copy of the state.
///
/// One engine is one *query class* (§4.2.2): all join queries registered
/// here must agree on the equi-join graph (the executor opens a new class
/// for a different footprint). Selection queries over any single stream
/// mix freely. Newly added queries see only data arriving after them.
class CacqEngine {
 public:
  struct Options {
    std::string policy = "lottery";
    uint64_t seed = 7;
    Eddy::Options eddy;
    /// Non-null: window-expired SteM state demotes to this spool instead of
    /// being freed (DESIGN.md §16). Keys are spool_prefix + "stem." + the
    /// SteM's alias + "." + key column. The caller keeps the spool alive
    /// past the engine; the engine never opens or closes it.
    Spool* spool = nullptr;
    std::string spool_prefix;
  };

  CacqEngine();
  explicit CacqEngine(Options options);

  CacqEngine(const CacqEngine&) = delete;
  CacqEngine& operator=(const CacqEngine&) = delete;

  /// Declares a stream before any query references it.
  Result<size_t> AddStream(const std::string& name, SchemaPtr schema);

  /// Delivery callback: (query, full-width result tuple). For a selection
  /// query the tuple's cells outside its stream are NULL; join results
  /// carry both sides. Use layout().Narrow to project a source back out.
  using Sink = std::function<void(QueryId, const Tuple&)>;
  void SetSink(Sink sink) { sink_ = std::move(sink); }

  /// Registers a continuous query; it applies to all future tuples. The
  /// returned id is the lowest free query slot: ids freed by RemoveQuery
  /// are reused, so every per-tuple lineage bitset is as wide as the peak
  /// number of live queries, not the number ever registered. The choice
  /// depends only on the sequence of AddQuery/RemoveQuery calls, so
  /// engines fed the same sequence agree on every slot.
  Result<QueryId> AddQuery(const CacqQuerySpec& spec);

  /// Registers `spec` at a caller-chosen free slot (AlreadyExists if the
  /// slot is live). The sharded exchange picks slots centrally — it may
  /// hold a removed slot back until the egress stage has drained the old
  /// query's emissions — and installs each query at the same slot on every
  /// shard and standby.
  Status AddQueryAt(QueryId slot, const CacqQuerySpec& spec);

  /// Unregisters a query and frees its slot; shared state it alone used is
  /// scrubbed, including its lineage bit on every stored SteM entry, so a
  /// query that later reuses the slot starts from a clean lineage.
  Status RemoveQuery(QueryId q);

  /// Feeds one tuple of `stream` and routes it (plus any join matches).
  /// `lane` restricts the seeded lineage to the queries that lane reaches
  /// (see IngressLane; kAll = every interested query).
  Status Inject(const std::string& stream, const Tuple& tuple,
                IngressLane lane = IngressLane::kAll);

  /// Feeds a whole same-stream batch through ONE stream lookup, one
  /// lineage-seed snapshot and one Drain(). The eddy amortizes one routing
  /// decision per stage over the batch; results are identical to injecting
  /// each tuple alone (routing invariance), only cheaper.
  Status InjectBatch(const std::string& stream,
                     const std::vector<Tuple>& batch,
                     IngressLane lane = IngressLane::kAll);

  /// InjectBatch by source index (layout().SourceIndexOf order). The
  /// sharded exchange resolves the stream once at scatter time and feeds
  /// every shard by index, skipping the per-task name lookup.
  Status InjectBatch(size_t source, const std::vector<Tuple>& batch,
                     IngressLane lane = IngressLane::kAll);

  /// Evicts join state older than `ts` (window maintenance).
  void EvictBefore(Timestamp ts);

  /// State-migration half of online rebalancing (cacq/migration.h,
  /// DESIGN.md §12). Both must run on the thread that owns this engine —
  /// the sharded exchange sends them as control closures.
  ///
  /// ExtractBucketState removes, from every shared SteM, the live entries
  /// whose key cell satisfies `in_bucket` (the caller closes over
  /// PartitionMap::BucketOf(key) == bucket) and packages them with their
  /// lineage and max arrival seq.
  BucketState ExtractBucketState(size_t bucket,
                                 const std::function<bool(const Value&)>&
                                     in_bucket);

  /// Installs a donor's extracted state into this engine's matching SteMs
  /// and raises the eddy's arrival-seq floor past the installed entries.
  /// Fails (without partial install) if a SteM named by the state does not
  /// exist here — shards register identical streams/queries, so a mismatch
  /// means the caller migrated across non-identical engines.
  Status InstallBucketState(const BucketState& state);

  /// Process-pair replication half (DESIGN.md §13), same thread-ownership
  /// rule as the bucket pair above.
  ///
  /// CheckpointState copies (without removing) every SteM's live entries
  /// plus the eddy's arrival counter — the snapshot a standby replica
  /// recovers from.
  EngineCheckpoint CheckpointState() const;

  /// Replaces this engine's SteM state with `ckpt` and aligns the eddy's
  /// arrival counter to the primary's, so a changelog tail replayed next
  /// stamps seqs exactly as the primary would have. Rejects torn
  /// checkpoints (ckpt.complete == false) and engine mismatches without
  /// partial installs. Grouped filters / queries are untouched: replicas
  /// register the same queries through the normal control path.
  Status RestoreCheckpoint(const EngineCheckpoint& ckpt);

  size_t num_active_queries() const { return active_queries_; }
  /// Width of the query slot table: the peak number of slots live at once.
  /// Every lineage bitset the engine seeds is this wide.
  size_t num_query_slots() const { return queries_.size(); }
  const Eddy& eddy() const { return *eddy_; }
  const SourceLayout& layout() const { return layout_; }

  /// Snapshot of one shared SteM's state for introspection
  /// (Server::SnapshotMetrics).
  struct StemSnapshot {
    std::string name;
    size_t size = 0;       ///< Live stored tuples.
    uint64_t probes = 0;
    uint64_t scanned = 0;
    uint64_t matches = 0;  ///< Join results kept from those probes.
  };
  std::vector<StemSnapshot> stem_snapshots() const;

 private:
  struct JoinKey {
    size_t target_source;
    int stored_key;  ///< Absolute column index the stem indexes.
    bool operator<(const JoinKey& o) const {
      return target_source != o.target_source
                 ? target_source < o.target_source
                 : stored_key < o.stored_key;
    }
  };

  struct QueryInfo {
    SmallBitset footprint;
    bool active = false;
    /// Grouped-filter registrations: (column op const) per column op, for
    /// removal bookkeeping.
    std::vector<size_t> filter_columns;
    std::vector<std::shared_ptr<ResidualFilterOp>> residual_ops;
  };

  /// Lazily creates the grouped-filter operator for a column.
  std::shared_ptr<GroupedFilterOp> FilterOpFor(size_t column);
  /// Lazily creates the residual operator for a source set.
  std::shared_ptr<ResidualFilterOp> ResidualOpFor(const SmallBitset& req);
  /// Lazily creates build op + stem for (source, key column) and the probe
  /// ops in both directions for an equi-join pair.
  Status EnsureJoin(size_t src_a, int col_a, size_t src_b, int col_b);

  /// The lineage every tuple of `source` injected on `lane` starts with:
  /// the source's interested queries that `lane` reaches.
  SmallBitset LaneSeed(size_t source, IngressLane lane) const;
  void Deliver(RoutedTuple&& rt);

  Options options_;
  SourceLayout layout_;
  std::unique_ptr<Eddy> eddy_;
  /// InjectBatch's reused build buffer (see Eddy::InjectRoutedBatch).
  std::vector<RoutedTuple> staged_;
  Sink sink_;

  /// Indexed by query slot; inactive entries are free slots.
  std::vector<QueryInfo> queries_;
  /// Free slots below queries_.size(), lowest first.
  std::set<QueryId> free_slots_;
  size_t active_queries_ = 0;
  /// Per source: queries whose footprint contains it (lineage seed).
  std::vector<SmallBitset> interested_;
  /// Queries each IngressLane reaches, indexed by the lane (kAll's entry
  /// is unused: it reaches every interested query). A lane injection
  /// intersects its lineage seed with its entry, so SteM queries never
  /// build state from raw (possibly disordered) arrivals and no query
  /// sees an arrival twice.
  SmallBitset lane_queries_[4];

  std::map<size_t, std::shared_ptr<GroupedFilterOp>> filter_ops_;
  std::map<uint64_t, std::shared_ptr<ResidualFilterOp>> residual_ops_;
  std::map<JoinKey, SteMPtr> stems_;
  /// Registered probe edges (target, stored key, probe key) to avoid dups.
  std::map<std::tuple<size_t, int, int>, bool> probe_edges_;
};

}  // namespace tcq

#endif  // TCQ_CACQ_ENGINE_H_
