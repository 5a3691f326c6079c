#include "core/runner.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace tcq {

namespace {
/// A for-loop that executes exactly once (table-only snapshot queries).
ForLoopSpec OnceSpec() {
  ForLoopSpec spec;
  spec.condition =
      Expr::Binary(BinaryOp::kEq, Expr::Variable("t"),
                   Expr::Literal(Value::Int64(0)));
  spec.step = Expr::Literal(Value::Int64(-1));
  return spec;
}
}  // namespace

QueryRunner::QueryRunner(AnalyzedQuery analyzed,
                         std::vector<const Archive*> archives,
                         std::vector<TupleVector> table_rows, Options options)
    : analyzed_(std::move(analyzed)),
      archives_(std::move(archives)),
      table_rows_(std::move(table_rows)),
      options_(options),
      sequence_(analyzed_.window.has_value() ? &*analyzed_.window
                                             : nullptr,
                options.start_time) {
  TCQ_CHECK(archives_.size() == analyzed_.layout->num_sources());
  TCQ_CHECK(table_rows_.size() == analyzed_.layout->num_sources());
  if (!analyzed_.window.has_value()) {
    // Table-only snapshot: run once over everything.
    static const ForLoopSpec* const kOnce = new ForLoopSpec(OnceSpec());
    sequence_ = WindowSequence(kOnce, options.start_time);
  }

  // Landmark fast path (§4.1.2): single windowed stream + aggregates over
  // a landmark window never retire tuples — keep running accumulators.
  // Disabled for speculative queries: Revise() re-executes fired windows,
  // which the incremental accumulators cannot rewind.
  if (!options_.speculative && analyzed_.has_aggregates &&
      analyzed_.window.has_value() &&
      analyzed_.window->windows.size() == 1 &&
      analyzed_.layout->num_sources() == 1) {
    auto shape = ClassifyWindow(*analyzed_.window, 0, options_.start_time);
    if (shape.ok() && (shape->window_class == WindowClass::kLandmark ||
                       shape->window_class == WindowClass::kSnapshot)) {
      use_landmark_path_ = true;
      landmark_clause_ = 0;
      landmark_agg_ = std::make_unique<WindowAggregator>(
          analyzed_.aggregates, analyzed_.group_by, /*retain_tuples=*/false);
      landmark_version_ = archives_[0]->history_version();
    }
  }
}

size_t QueryRunner::Advance(Timestamp high_watermark,
                            std::vector<ResultSet>* out) {
  size_t fired = 0;
  while (!done_) {
    if (!pending_step_.has_value()) {
      pending_step_ = sequence_.Next();
      if (!pending_step_.has_value()) {
        done_ = true;
        break;
      }
    }
    // A window is executable once every stream it reads has delivered all
    // data up to the window's right end. Because several tuples can share
    // one timestamp, that is only certain when a strictly *later*
    // timestamp has been seen (punctuation-by-progress).
    bool ready = true;
    for (size_t s = 0; s < analyzed_.layout->num_sources(); ++s) {
      const int clause = analyzed_.window_clause_of_source[s];
      if (clause < 0) continue;  // Static table: always ready.
      if (pending_step_->bounds[static_cast<size_t>(clause)].right >=
          high_watermark) {
        ready = false;
        break;
      }
    }
    if (!ready) break;
    out->push_back(ExecuteWindow(*pending_step_));
    if (options_.speculative) {
      // Retain the fired window for revision; bounded history.
      fired_.push_back(FiredWindow{*pending_step_, out->back().rows});
      if (fired_.size() > kMaxFiredHistory) fired_.pop_front();
    }
    pending_step_.reset();
    ++fired;
  }
  return fired;
}

size_t QueryRunner::Revise(Timestamp late_ts, std::vector<ResultSet>* out) {
  if (!options_.speculative) return 0;
  size_t revised = 0;
  for (FiredWindow& fw : fired_) {
    // `late_ts` is the FLOOR of the changed range — one release batch can
    // carry several late timestamps, so any window reaching at or past the
    // floor may have changed. Re-execution is pure and the diff below is
    // empty for untouched windows, so over-selection only costs work.
    bool affected = false;
    for (size_t s = 0; s < analyzed_.layout->num_sources(); ++s) {
      const int clause = analyzed_.window_clause_of_source[s];
      if (clause < 0) continue;
      const WindowBounds& b = fw.step.bounds[static_cast<size_t>(clause)];
      if (late_ts <= b.right) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;
    // Re-execute against the current archives (pure: the landmark path is
    // off in speculative mode) and diff the result multisets.
    ResultSet fresh = ExecuteWindow(fw.step);
    std::map<std::string, int> delta;  // Row key -> new count - old count.
    auto key_of = [](const Tuple& row) {
      return row.ToString() + "@" + std::to_string(row.timestamp());
    };
    for (const Tuple& row : fresh.rows) ++delta[key_of(row)];
    for (const Tuple& row : fw.rows) --delta[key_of(row)];
    ResultSet diff;
    diff.t = fw.step.t;
    // Retractions first (stale rows, in delivered order), then the fresh
    // assertions — a client applying in order nets to the revised window.
    std::map<std::string, int> take = delta;
    for (const Tuple& row : fw.rows) {
      auto it = take.find(key_of(row));
      if (it != take.end() && it->second < 0) {
        ++it->second;
        Tuple retract = row;
        retract.set_retraction(true);
        diff.rows.push_back(std::move(retract));
      }
    }
    for (const Tuple& row : fresh.rows) {
      auto it = take.find(key_of(row));
      if (it != take.end() && it->second > 0) {
        --it->second;
        diff.rows.push_back(row);
      }
    }
    if (!diff.rows.empty()) {
      out->push_back(std::move(diff));
      ++revised;
    }
    fw.rows = std::move(fresh.rows);
  }
  return revised;
}

ResultSet QueryRunner::ExecuteWindow(const WindowSequence::Step& step) {
  ResultSet result;
  result.t = step.t;

  if (use_landmark_path_) {
    // Incremental: only the newly exposed suffix of the window is fed.
    const WindowBounds& b =
        step.bounds[static_cast<size_t>(landmark_clause_)];
    const uint64_t version = archives_[0]->history_version();
    if (version != landmark_version_) {
      // A retraction or kIngestLate backfill may have changed history the
      // accumulators already hold: rebuild them from the archive.
      landmark_agg_ = std::make_unique<WindowAggregator>(
          analyzed_.aggregates, analyzed_.group_by, /*retain_tuples=*/false);
      landmark_fed_through_ = kMinTimestamp;
      landmark_version_ = version;
    }
    const Timestamp from =
        std::max(b.left, landmark_fed_through_ == kMinTimestamp
                             ? b.left
                             : landmark_fed_through_ + 1);
    archives_[0]->ScanApply(from, b.right, [&](const Tuple& narrow) {
      // Landmark filters still apply before aggregation.
      const Tuple wide = analyzed_.layout->Widen(0, narrow);
      for (const auto& f : analyzed_.filters) {
        const Value keep = f.expr->Eval(wide);
        if (keep.is_null() || !keep.bool_value()) return;
      }
      landmark_agg_->Add(wide);
    });
    if (b.right > landmark_fed_through_) landmark_fed_through_ = b.right;
    result.rows = landmark_agg_->Emit(step.t);
    return result;
  }

  std::vector<Tuple> wide = RunDataflow(step);

  if (analyzed_.has_aggregates) {
    WindowAggregator agg(analyzed_.aggregates, analyzed_.group_by,
                         /*retain_tuples=*/false);
    for (const Tuple& t : wide) agg.Add(t);
    result.rows = agg.Emit(step.t);
    return result;
  }

  result.rows.reserve(wide.size());
  for (const Tuple& t : wide) {
    std::vector<Value> cells;
    cells.reserve(analyzed_.projections.size());
    for (const ExprPtr& e : analyzed_.projections) cells.push_back(e->Eval(t));
    result.rows.push_back(Tuple::Make(std::move(cells), t.timestamp()));
  }
  return result;
}

std::vector<Tuple> QueryRunner::RunDataflow(const WindowSequence::Step& step) {
  const SourceLayout& layout = *analyzed_.layout;
  const size_t n = layout.num_sources();
  Eddy eddy(&layout, MakePolicy(options_.policy, options_.seed));

  // Filters.
  for (const auto& f : analyzed_.filters) {
    eddy.AddOperator(
        std::make_shared<FilterOp>(f.expr->ToString(), f.expr, f.required));
  }

  // Join machinery for multi-source queries: one SteM per (source, key)
  // plus probes along every join edge (grouped per target so alternative
  // probe paths never duplicate).
  if (n > 1) {
    // Choose a key column per source: the first join edge touching it.
    std::vector<int> key_of(n, -1);
    for (const auto& j : analyzed_.joins) {
      if (key_of[j.src_a] == -1) key_of[j.src_a] = j.col_a;
      if (key_of[j.src_b] == -1) key_of[j.src_b] = j.col_b;
    }
    std::vector<SteMPtr> stems(n);
    for (size_t s = 0; s < n; ++s) {
      stems[s] = std::make_shared<SteM>("stem[" + layout.alias(s) + "]",
                                        layout.full_schema(), key_of[s]);
      eddy.AddOperator(std::make_shared<StemBuildOp>(
          "build[" + layout.alias(s) + "]", s, stems[s]));
    }
    // Probe edges: for each pair (probe source x -> target s), keyed when
    // a join edge connects them, otherwise a scan probe (cross product —
    // residual filters weed composites downstream).
    for (size_t target = 0; target < n; ++target) {
      for (size_t x = 0; x < n; ++x) {
        if (x == target) continue;
        int probe_key = -1;
        for (const auto& j : analyzed_.joins) {
          if (j.src_a == x && j.src_b == target &&
              j.col_b == key_of[target]) {
            probe_key = j.col_a;
          } else if (j.src_b == x && j.src_a == target &&
                     j.col_a == key_of[target]) {
            probe_key = j.col_b;
          }
        }
        SmallBitset probe_sources(n);
        probe_sources.Set(x);
        eddy.AddOperator(
            std::make_shared<StemProbeOp>(
                "probe[" + layout.alias(target) + "<-" + layout.alias(x) +
                    "]",
                &layout, target, stems[target], std::move(probe_sources),
                probe_key),
            /*group=*/static_cast<int>(target));
      }
    }
  }

  std::vector<Tuple> out;
  eddy.SetSink([&](RoutedTuple&& rt) { out.push_back(std::move(rt.tuple)); });

  // Inject every source's window contents (tables inject fully).
  for (size_t s = 0; s < n; ++s) {
    if (analyzed_.defs[s].is_table) {
      for (const Tuple& t : table_rows_[s]) eddy.Inject(s, t);
      continue;
    }
    const int clause = analyzed_.window_clause_of_source[s];
    TCQ_CHECK(clause >= 0);
    const WindowBounds& b = step.bounds[static_cast<size_t>(clause)];
    archives_[s]->ScanApply(
        b.left, b.right, [&](const Tuple& t) { eddy.Inject(s, t); });
  }
  eddy.Drain();
  total_visits_ += eddy.visits();
  return out;
}

}  // namespace tcq
