#ifndef TCQ_CORE_RUNNER_H_
#define TCQ_CORE_RUNNER_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "eddy/eddy.h"
#include "eddy/operators.h"
#include "ingress/wrapper.h"

namespace tcq {

/// One evaluation of the query over one window: the paper's output model
/// is "a sequence of sets, each set associated with an instant in time"
/// (§4.1.1).
struct ResultSet {
  Timestamp t = 0;  ///< The for-loop variable's value for this window.
  TupleVector rows;
};

/// CEDR-style per-query consistency level over a disordered feed
/// (DESIGN.md §15).
enum class Consistency : uint8_t {
  /// Delayed-but-correct: results are held until the safe (released)
  /// watermark passes the window close, so every delivery is final —
  /// byte-identical to replaying the feed in timestamp order.
  kDelayed = 0,
  /// Speculative: results are emitted the moment the raw watermark allows,
  /// and a late arrival that changes an already-delivered window triggers
  /// a revision — retraction-signed rows canceling the stale results plus
  /// fresh assertions. Converges to the delayed answer.
  kSpeculative = 1,
};

/// Executes one analyzed query as a continuous, windowed dataflow. The
/// runner consumes stream data through per-source archives, fires each
/// window of the for-loop as soon as the data it needs has arrived, and
/// evaluates the window through a fresh adaptive (Eddy) plan —
/// SteM builds/probes for every join edge, filter operators for every
/// predicate — followed by projection or windowed aggregation.
///
/// Landmark aggregates take the incremental O(1)-state path (§4.1.2),
/// rebuilt from the archive when a retraction or late insert has changed
/// history they already consumed; other shapes re-evaluate the window,
/// which is always correct.
class QueryRunner {
 public:
  struct Options {
    std::string policy = "lottery";
    uint64_t seed = 7;
    /// Start time (ST) for the query's for-loop.
    Timestamp start_time = 1;
    /// Consistency::kSpeculative support: keep a bounded history of fired
    /// windows so Revise() can recompute them when late data lands. Also
    /// disables the stateful landmark fast path (its accumulators cannot
    /// be rewound).
    bool speculative = false;
  };

  /// `archives[s]` serves source s's history; table sources read their
  /// rows from the catalog snapshot in `analyzed.defs`. Archives are
  /// shared with the server, which appends arriving data.
  QueryRunner(AnalyzedQuery analyzed, std::vector<const Archive*> archives,
              std::vector<TupleVector> table_rows, Options options);

  QueryRunner(const QueryRunner&) = delete;
  QueryRunner& operator=(const QueryRunner&) = delete;

  /// Fires every window whose data has fully arrived (right ends <=
  /// `high_watermark` for all of the window's streams). Appends one
  /// ResultSet per fired window to `out`. Returns the number fired.
  size_t Advance(Timestamp high_watermark, std::vector<ResultSet>* out);

  /// Speculative revision (DESIGN.md §15): a tuple with timestamp
  /// `late_ts` landed in (or left) the archives after windows covering it
  /// fired. Recomputes every retained fired window whose bounds contain
  /// late_ts and, for each whose result multiset changed, appends one
  /// ResultSet at the window's instant holding retraction-signed copies of
  /// the stale rows followed by the fresh assertions. No-op (returns 0)
  /// unless Options::speculative. Windows older than the retained history
  /// (kMaxFiredHistory) are never revised — the documented horizon.
  size_t Revise(Timestamp late_ts, std::vector<ResultSet>* out);

  /// True once the for-loop condition has failed (query finished).
  bool done() const { return done_; }

  const AnalyzedQuery& analyzed() const { return analyzed_; }

  /// Cumulative number of eddy routing visits across fired windows (a
  /// work measure for benches).
  uint64_t total_visits() const { return total_visits_; }

 private:
  /// Evaluates one window step and produces its result set.
  ResultSet ExecuteWindow(const WindowSequence::Step& step);

  /// Runs window contents through a fresh Eddy plan; returns wide tuples.
  std::vector<Tuple> RunDataflow(const WindowSequence::Step& step);

  AnalyzedQuery analyzed_;
  std::vector<const Archive*> archives_;
  std::vector<TupleVector> table_rows_;
  Options options_;

  WindowSequence sequence_;
  std::optional<WindowSequence::Step> pending_step_;
  bool done_ = false;
  uint64_t total_visits_ = 0;

  /// Incremental landmark-aggregate state (§4.1.2 fast path).
  std::unique_ptr<WindowAggregator> landmark_agg_;
  Timestamp landmark_fed_through_ = kMinTimestamp;
  /// Archive history_version() the accumulators were built against: a
  /// retraction or backfill since then rebuilds them from the archive.
  uint64_t landmark_version_ = 0;
  bool use_landmark_path_ = false;
  int landmark_clause_ = -1;

  /// Speculative mode: fired windows retained for revision, oldest first.
  struct FiredWindow {
    WindowSequence::Step step;
    TupleVector rows;  ///< The rows as last delivered (or last revised).
  };
  static constexpr size_t kMaxFiredHistory = 64;
  std::deque<FiredWindow> fired_;
};

}  // namespace tcq

#endif  // TCQ_CORE_RUNNER_H_
