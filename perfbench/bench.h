// Shared declarations of the end-to-end benchmark (see README.md).
//
// The benchmark drives the public tcq::Server API from one generator
// thread. A Workload supplies the streams, the standing and churn query
// sets, a deterministic seeded input feed and, per query, a Reference
// that computes the expected answer without the engine. The harness
// (main.cc) runs the phases and times them; layers.cc replays the same
// input through single layers for the traced run.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/server.h"
#include "expr/ast.h"
#include "tuple/tuple.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Tuples per PushBatch call, in every phase and workload.
constexpr size_t kBatchTuples = 64;

/// 64-bit finalizer (splitmix64).
uint64_t Mix(uint64_t x);
uint64_t HashValue(const tcq::Value& v);
/// Hash of one result row: its cells in order plus the ResultSet::t it
/// was delivered under.
uint64_t HashRow(const tcq::Value* cells, size_t n, tcq::Timestamp t);
inline uint64_t HashRow(const tcq::Tuple& row, tcq::Timestamp t) {
  return HashRow(row.cells().data(), row.arity(), t);
}

/// Order-insensitive digest of a multiset of result rows. A retraction-
/// signed row subtracts, so speculative output that revises itself nets
/// to the same digest as the final answer.
struct Digest {
  int64_t rows = 0;
  uint64_t hash = 0;

  void Add(uint64_t row_hash, bool retraction) {
    if (retraction) {
      --rows;
      hash -= Mix(row_hash);
    } else {
      ++rows;
      hash += Mix(row_hash);
    }
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// One PushBatch worth of input for one stream.
struct Batch {
  size_t stream = 0;
  std::vector<tcq::Tuple> tuples;
};

/// `column op constant`, the shape of every filter factor the workloads
/// generate. Filter queries are built from these, so the SQL text, the
/// standalone GroupedFilter replay and the reference evaluator all read
/// the same definition.
struct Atom {
  size_t column = 0;
  tcq::BinaryOp op = tcq::BinaryOp::kEq;
  tcq::Value constant;

  bool Eval(const tcq::Tuple& t) const;
};

/// Expected answer of one query, computed without the engine.
class Reference {
 public:
  virtual ~Reference() = default;
  /// Filter references: called, in push order, for each tuple of the
  /// query's stream pushed while the query is registered and whose atoms
  /// may pass (the Oracle skips tuples an equality atom rules out).
  virtual void OnTuple(const tcq::Tuple&) {}
  /// Expected digest of everything the query delivered by the end of the
  /// run (`final_watermark[s]` is the highest timestamp pushed on stream
  /// s).
  virtual Digest Expected(const std::vector<tcq::Timestamp>& final_watermark) = 0;
};

struct QuerySpec {
  std::string sql;
  tcq::Consistency consistency = tcq::Consistency::kDelayed;
  /// Streams the query reads (indexes into Workload::streams()).
  std::vector<size_t> streams;
  /// Windowed queries deliver ResultSet::t = the window's right end;
  /// filter rows deliver the timestamp of the tuple that produced them.
  bool windowed = false;
  /// Filter queries: conjunction of atoms over streams[0].
  std::vector<Atom> atoms;
  std::shared_ptr<Reference> reference;
};

struct StreamInfo {
  std::string name;
  tcq::SchemaPtr schema;
  int timestamp_field = 0;
  int partition_field = -1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  const std::vector<StreamInfo>& streams() const { return streams_; }

  /// Server configuration; `spool_dir` is a fresh directory inside the
  /// checkout (workloads without a spool ignore it).
  virtual tcq::Server::Options ServerOptions(
      const std::string& spool_dir) const = 0;
  virtual bool uses_spool() const { return false; }
  /// Disorder bound the feed respects (0 = in order).
  virtual tcq::Timestamp max_disorder() const { return 0; }
  /// Offered rate of the open-loop phase, tuples per second.
  virtual double offered_rate() const = 0;
  /// Churn rate of the open-loop phase: Submit+Cancel pairs per second.
  virtual double churn_rate() const = 0;
  /// Closed-loop batches pushed, untimed, before the open-loop phase:
  /// enough to fill the archive's retention span (and the spool), so the
  /// measured phases start from steady state.
  virtual size_t warmup_batches() const = 0;
  /// Batches per saturated-phase chunk (a chunk is pushed and drained
  /// inside the timer; the next one is generated outside it).
  virtual size_t chunk_batches() const { return 512; }
  /// Churn queries kept registered at once.
  virtual size_t churn_live() const { return 8; }

  /// The standing query set (fresh References on every call).
  virtual std::vector<QuerySpec> StandingQueries() = 0;
  /// Churn query `i` (deterministic in the seed and i).
  virtual QuerySpec ChurnQuery(uint64_t i) = 0;

  /// Appends the next `n` batches of the input feed. The feed is a pure
  /// function of the seed: the k-th batch is the same however the calls
  /// are split.
  virtual void Generate(size_t n, std::vector<Batch>* out) = 0;

  /// Reference bookkeeping for every batch pushed, in push order
  /// (workloads whose references read the whole input record it here).
  virtual void OnPushed(const Batch&) {}

 protected:
  std::vector<StreamInfo> streams_;
};

/// Feeds pushed batches to the references of the registered queries.
/// Filter queries are indexed by their first equality atom or by a
/// two-sided numeric band, so a tuple reaches only the references it may
/// satisfy (each re-checks all its atoms); this keeps checking every row
/// of a saturated run cheap.
class Oracle {
 public:
  explicit Oracle(Workload* workload);

  /// The query's reference sees every batch offered from now on...
  void Activate(const QuerySpec& q);
  /// ...until this call.
  void Deactivate(const QuerySpec& q);
  /// Accounts one pushed batch (call in push order).
  void OnBatch(const Batch& batch);

 private:
  /// References of `lo < column < lo + width` queries, sorted by lo.
  struct BandIndex {
    size_t column = 0;
    double max_width = 0;
    std::vector<std::pair<double, Reference*>> by_lo;
  };
  struct StreamIndex {
    std::vector<std::pair<size_t, std::unordered_map<tcq::Value,
                                                     std::vector<Reference*>,
                                                     tcq::ValueHash>>>
        eq;  // (column, constant -> references)
    std::vector<BandIndex> bands;
    std::vector<Reference*> scan;
  };
  /// The equality or scan list a query belongs to; null for a windowed
  /// query or a band query (`band` then receives its index and bounds).
  std::vector<Reference*>* SlotOf(const QuerySpec& q, BandIndex** band,
                                  double* lo, double* width);

  Workload* workload_;
  std::vector<StreamIndex> streams_;
};

/// One named measurement as the benchmark prints it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Standalone replays for the traced run: builds a fresh feed of the
/// workload with `seed` and times its input through one public layer
/// class at a time (ReorderBuffer, Archive, Archive + Spool, CacqEngine,
/// GroupedFilter, Parser + Analyzer). Appends one Metric per layer and
/// returns the summed per-tuple cost of the layers the workload's ingest
/// path runs (reorder + archive + shared eddy), in ns.
double ReplayLayers(const std::string& workload, uint64_t seed,
                    const std::string& tmp_dir, std::vector<Metric>* out);

/// Creates the named workload ("filters_inline", "windowed_history",
/// "sharded_disorder") or returns null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// Reference for a filter query: evaluates the atoms on the tuples it is
/// offered and projects `projection` (column indexes).
std::shared_ptr<Reference> MakeFilterReference(std::vector<Atom> atoms,
                                               std::vector<size_t> projection);

/// SQL text for a filter query over `stream` selecting `projection`.
std::string FilterSql(const StreamInfo& stream, const std::vector<Atom>& atoms,
                      const std::vector<size_t>& projection);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
