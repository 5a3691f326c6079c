#include "psoup/psoup.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/predicates.h"
#include "spool/spool.h"
#include "telemetry/metrics.h"

namespace tcq {

#ifndef TCQ_METRICS_DISABLED
namespace {

/// Process-wide PSoup telemetry (DESIGN.md §10).
struct PsoupMetrics {
  Counter* data_in;        ///< Tuples fed via OnData.
  Counter* materialized;   ///< Result-structure appends (data-side).
  Counter* registrations;  ///< Standing queries registered.
  Counter* invocations;    ///< Client Invoke calls answered.
  Gauge* resident_bytes;   ///< Data-SteM history bytes held in RAM.

  static PsoupMetrics& Get() {
    static PsoupMetrics* m = [] {
      MetricRegistry& reg = MetricRegistry::Global();
      auto* agg = new PsoupMetrics();
      agg->data_in = reg.GetCounter("tcq.psoup.data_in");
      agg->materialized = reg.GetCounter("tcq.psoup.materialized");
      agg->registrations = reg.GetCounter("tcq.psoup.registrations");
      agg->invocations = reg.GetCounter("tcq.psoup.invocations");
      agg->resident_bytes = reg.GetGauge("tcq.psoup.resident_bytes");
      return agg;
    }();
    return *m;
  }
};

}  // namespace
#endif  // TCQ_METRICS_DISABLED

PSoup::PSoup(SchemaPtr schema) : PSoup(std::move(schema), Options()) {}

PSoup::PSoup(SchemaPtr schema, Options options)
    : schema_(std::move(schema)), options_(options) {
  TCQ_CHECK(schema_ != nullptr);
}

PSoup::~PSoup() {
  TrackHistoryBytes(-resident_bytes_);  // Gauge hygiene on teardown.
}

void PSoup::TrackHistoryBytes(int64_t delta) {
  resident_bytes_ += delta;
  TCQ_METRIC(PsoupMetrics::Get().resident_bytes->Add(delta));
}

void PSoup::AttachSpool(Spool* spool, std::string key,
                        size_t resident_limit) {
  TCQ_CHECK(spool != nullptr);
  TCQ_CHECK(resident_limit > 0) << "psoup needs a resident tail";
  TCQ_CHECK(spool_ == nullptr) << "spool already attached";
  spool_ = spool;
  spool_key_ = std::move(key);
  resident_limit_ = resident_limit;
  spooled_ = spool_->records(spool_key_);
  spool_frontier_ = spool_->main_frontier(spool_key_);
  TCQ_CHECK(history_.empty() ||
            history_.front().timestamp() >= spool_frontier_)
      << "spooled history must predate resident tuples";
  DemoteOverflow();
}

void PSoup::DemoteOverflow() {
  while (history_.size() > resident_limit_) {
    const Tuple& victim = history_.front();
    TCQ_CHECK(spool_->Append(spool_key_, victim).ok())
        << "psoup history demotion failed";
    spool_frontier_ = std::max(spool_frontier_, victim.timestamp());
    ++spooled_;
    TrackHistoryBytes(-static_cast<int64_t>(victim.ApproxBytes()));
    history_.pop_front();
  }
}

Result<QueryId> PSoup::Register(const ExprPtr& predicate,
                                Timestamp window_width) {
  if (window_width <= 0) {
    return Status::InvalidArgument("window width must be positive");
  }
  const QueryId qid = static_cast<QueryId>(queries_.size());

  QueryState state;
  state.window_width = window_width;

  // Decompose the predicate into indexable factors and residual work, but
  // register nothing until everything validates (atomic registration).
  struct FilterReg {
    size_t column;
    BinaryOp op;
    Value constant;
  };
  std::vector<FilterReg> filter_regs;
  std::vector<ExprPtr> residual_factors;
  if (predicate != nullptr) {
    TCQ_ASSIGN_OR_RETURN(state.bound_predicate, predicate->Bind(*schema_));
    for (const ExprPtr& factor : ExtractConjuncts(predicate)) {
      if (auto sp = MatchSimplePredicate(factor)) {
        auto idx = schema_->IndexOf(sp->column);
        if (idx.ok()) {
          filter_regs.push_back({*idx, sp->op, std::move(sp->constant)});
          continue;
        }
      }
      TCQ_ASSIGN_OR_RETURN(ExprPtr bound, factor->Bind(*schema_));
      residual_factors.push_back(std::move(bound));
    }
  }

  for (FilterReg& r : filter_regs) {
    filter_index_[r.column].AddPredicate(qid, r.op, std::move(r.constant));
  }
  for (ExprPtr& r : residual_factors) {
    residuals_.emplace_back(qid, std::move(r));
  }

  // "New query probes old data": seed the Results Structure from history —
  // the demoted prefix first (read back through the spool's page cache in
  // timestamp-merge order), then the resident tail. Every spooled tuple
  // predates every resident one, so the results deque stays sorted.
  const auto seed = [&](const Tuple& t) {
    if (state.bound_predicate != nullptr) {
      const Value keep = state.bound_predicate->Eval(t);
      if (keep.is_null() || !keep.bool_value()) return;
    }
    state.results.push_back(t);
  };
  if (spool_ != nullptr && spooled_ > 0) {
    TCQ_CHECK(spool_
                  ->Scan(spool_key_, spool_floor_, kMaxTimestamp,
                         [&](const Tuple& t) {
                           seed(t);
                           return true;
                         })
                  .ok())
        << "psoup history seed scan failed";
  }
  for (const Tuple& t : history_) seed(t);

  state.active = true;
  queries_.push_back(std::move(state));
  active_bits_.Resize(queries_.size());
  active_bits_.Set(qid);
  ++active_;
  TCQ_METRIC(PsoupMetrics::Get().registrations->Add(1));
  return qid;
}

Status PSoup::Unregister(QueryId q) {
  if (q >= queries_.size() || !queries_[q].active) {
    return Status::NotFound("no such active query");
  }
  queries_[q].active = false;
  queries_[q].results.clear();
  active_bits_.Clear(q);
  --active_;
  for (auto& [col, gf] : filter_index_) gf.RemoveQuery(q);
  residuals_.erase(std::remove_if(residuals_.begin(), residuals_.end(),
                                  [q](const auto& r) { return r.first == q; }),
                   residuals_.end());
  return Status::OK();
}

SmallBitset PSoup::MatchQueries(const Tuple& t) const {
  SmallBitset candidates = active_bits_;
  for (const auto& [col, gf] : filter_index_) {
    if (candidates.size_bits() < gf.num_queries()) {
      candidates.Resize(gf.num_queries());
    }
    gf.Apply(t.cell(col), &candidates);
    if (candidates.None()) return candidates;
  }
  for (const auto& [q, expr] : residuals_) {
    if (q >= candidates.size_bits() || !candidates.Test(q)) continue;
    const Value keep = expr->Eval(t);
    if (keep.is_null() || !keep.bool_value()) candidates.Clear(q);
  }
  return candidates;
}

namespace {

/// Inserts `t` keeping `dq` sorted by timestamp. In-order arrivals hit the
/// O(1) push_back fast path; a late tuple pays an ordered insert so that
/// Invoke's binary search and front-eviction stay correct — duplicated and
/// out-of-order delivery must not corrupt materialized results.
void InsertByTimestamp(std::deque<Tuple>* dq, const Tuple& t) {
  if (dq->empty() || dq->back().timestamp() <= t.timestamp()) {
    dq->push_back(t);
    return;
  }
  const auto pos = std::upper_bound(
      dq->begin(), dq->end(), t.timestamp(),
      [](Timestamp ts, const Tuple& u) { return ts < u.timestamp(); });
  dq->insert(pos, t);
}

}  // namespace

void PSoup::OnData(const Tuple& tuple) {
  // Build into the Data SteM. A straggler older than every resident tuple
  // goes straight to the spool's late run (keeping the resident deque's
  // global-suffix invariant); everything else lands resident and the
  // overflow demotes from the front below.
  if (spool_ != nullptr && tuple.timestamp() < spool_frontier_) {
    if (tuple.timestamp() >= spool_floor_) {
      TCQ_CHECK(spool_->Append(spool_key_, tuple).ok())
          << "psoup straggler spool failed";
      ++spooled_;
    }
  } else {
    InsertByTimestamp(&history_, tuple);
    TrackHistoryBytes(static_cast<int64_t>(tuple.ApproxBytes()));
  }
  if (tuple.timestamp() > max_ts_) max_ts_ = tuple.timestamp();
  if (options_.history_span != kMaxTimestamp) {
    const Timestamp cutoff = max_ts_ - options_.history_span + 1;
    while (!history_.empty() && history_.front().timestamp() < cutoff) {
      TrackHistoryBytes(
          -static_cast<int64_t>(history_.front().ApproxBytes()));
      history_.pop_front();
    }
    if (spool_ != nullptr && cutoff > spool_floor_) {
      spool_floor_ = cutoff;
      if (spooled_ > 0) {
        TCQ_CHECK(spool_->EvictBefore(spool_key_, cutoff).ok());
        spooled_ = spool_->records(spool_key_);
      }
    }
  }
  if (spool_ != nullptr) DemoteOverflow();
  TCQ_METRIC(PsoupMetrics::Get().data_in->Add(1));
  // Probe the Query SteM; materialize into each match's results.
  SmallBitset matches = MatchQueries(tuple);
  for (auto& [col, gf] : filter_index_) gf.FlushMetrics();
  matches.ForEachSet([&](size_t q) {
    if (q < queries_.size() && queries_[q].active) {
      InsertByTimestamp(&queries_[q].results, tuple);
      TCQ_METRIC(PsoupMetrics::Get().materialized->Add(1));
    }
  });
}

Result<TupleVector> PSoup::Invoke(QueryId q, Timestamp now) const {
  if (q >= queries_.size() || !queries_[q].active) {
    return Status::NotFound("no such active query");
  }
  TCQ_METRIC(PsoupMetrics::Get().invocations->Add(1));
  const QueryState& state = queries_[q];
  const Timestamp lo = now - state.window_width + 1;
  // Results are timestamp-ordered: binary-search the window.
  const auto begin = std::lower_bound(
      state.results.begin(), state.results.end(), lo,
      [](const Tuple& t, Timestamp ts) { return t.timestamp() < ts; });
  const auto end = std::upper_bound(
      begin, state.results.end(), now,
      [](Timestamp ts, const Tuple& t) { return ts < t.timestamp(); });
  return TupleVector(begin, end);
}

void PSoup::EvictBefore(Timestamp ts) {
  if (spool_ != nullptr) {
    // Demote rather than free: evicted history leaves RAM but remains on
    // disk for future Register() seeds.
    while (!history_.empty() && history_.front().timestamp() < ts) {
      const Tuple& victim = history_.front();
      TCQ_CHECK(spool_->Append(spool_key_, victim).ok())
          << "psoup history demotion failed";
      spool_frontier_ = std::max(spool_frontier_, victim.timestamp());
      ++spooled_;
      TrackHistoryBytes(-static_cast<int64_t>(victim.ApproxBytes()));
      history_.pop_front();
    }
  }
  while (!history_.empty() && history_.front().timestamp() < ts) {
    TrackHistoryBytes(-static_cast<int64_t>(history_.front().ApproxBytes()));
    history_.pop_front();
  }
  for (QueryState& state : queries_) {
    while (!state.results.empty() &&
           state.results.front().timestamp() < ts) {
      state.results.pop_front();
    }
  }
}

size_t PSoup::materialized_results() const {
  size_t n = 0;
  for (const QueryState& s : queries_) n += s.results.size();
  return n;
}

}  // namespace tcq
