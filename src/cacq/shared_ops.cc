#include "cacq/shared_ops.h"

#include "common/logging.h"

namespace tcq {

// ---------------------------------------------------------- GroupedFilterOp

GroupedFilterOp::GroupedFilterOp(std::string name, size_t column,
                                 SmallBitset required)
    : EddyOperator(std::move(name)),
      column_(column),
      required_(std::move(required)) {}

bool GroupedFilterOp::Eligible(const SmallBitset& sources) const {
  return sources.Contains(required_);
}

EddyOpResult GroupedFilterOp::Process(RoutedTuple& rt) {
  EddyOpResult result;
  if (rt.queries.size_bits() < filter_.num_queries()) {
    rt.queries.Resize(filter_.num_queries());
  }
  filter_.Apply(rt.tuple.cell(column_), &rt.queries);
  result.pass = !rt.queries.None();
  return result;
}

// ---------------------------------------------------------- ResidualFilterOp

ResidualFilterOp::ResidualFilterOp(std::string name, SmallBitset required)
    : EddyOperator(std::move(name)), required_(std::move(required)) {}

void ResidualFilterOp::AddResidual(QueryId q, ExprPtr bound_expr) {
  TCQ_CHECK(bound_expr != nullptr);
  residuals_.emplace_back(q, std::move(bound_expr));
}

void ResidualFilterOp::RemoveQuery(QueryId q) {
  residuals_.erase(
      std::remove_if(residuals_.begin(), residuals_.end(),
                     [q](const auto& r) { return r.first == q; }),
      residuals_.end());
}

bool ResidualFilterOp::Eligible(const SmallBitset& sources) const {
  return sources.Contains(required_);
}

EddyOpResult ResidualFilterOp::Process(RoutedTuple& rt) {
  EddyOpResult result;
  for (const auto& [q, expr] : residuals_) {
    if (q >= rt.queries.size_bits() || !rt.queries.Test(q)) continue;
    const Value keep = expr->Eval(rt.tuple);
    if (keep.is_null() || !keep.bool_value()) rt.queries.Clear(q);
  }
  result.pass = !rt.queries.None();
  return result;
}

// --------------------------------------------------------- SharedStemBuildOp

SharedStemBuildOp::SharedStemBuildOp(std::string name, size_t source,
                                     SharedSteMPtr stem)
    : EddyOperator(std::move(name)), source_(source), stem_(std::move(stem)) {
  TCQ_CHECK(stem_ != nullptr);
}

bool SharedStemBuildOp::Eligible(const SmallBitset& sources) const {
  return sources.Count() == 1 && sources.Test(source_);
}

EddyOpResult SharedStemBuildOp::Process(RoutedTuple& rt) {
  stem_->Insert(rt.tuple, rt.queries);
  EddyOpResult result;
  result.pass = true;
  return result;
}

// --------------------------------------------------------- SharedStemProbeOp

SharedStemProbeOp::SharedStemProbeOp(std::string name,
                                     const SourceLayout* layout,
                                     size_t target, SharedSteMPtr target_stem,
                                     SmallBitset probe_sources,
                                     int probe_key_index,
                                     WindowHandlePtr window)
    : EddyOperator(std::move(name)),
      layout_(layout),
      target_(target),
      stem_(std::move(target_stem)),
      probe_sources_(std::move(probe_sources)),
      probe_key_index_(probe_key_index),
      window_(std::move(window)) {
  TCQ_CHECK(layout_ != nullptr && stem_ != nullptr);
}

bool SharedStemProbeOp::Eligible(const SmallBitset& sources) const {
  return !sources.Test(target_) && sources.Contains(probe_sources_);
}

EddyOpResult SharedStemProbeOp::Process(RoutedTuple& rt) {
  EddyOpResult result;
  result.pass = true;

  const Timestamp lo =
      window_ ? window_->lo.load(std::memory_order_relaxed) : kMinTimestamp;
  const Timestamp hi =
      window_ ? window_->hi.load(std::memory_order_relaxed) : kMaxTimestamp;

  const Value* key = nullptr;
  Value key_storage;
  if (probe_key_index_ >= 0 && stem_->key_field() >= 0) {
    key_storage = rt.tuple.cell(static_cast<size_t>(probe_key_index_));
    if (key_storage.is_null()) return result;
    key = &key_storage;
  }

  stem_->ProbeCollect(
      key, lo, hi, [&](const Tuple& stored, const SmallBitset& lineage) {
        if (stored.seq() >= rt.tuple.seq()) return;  // Arrival-order dedup.
        // Lineage intersection: only queries that accepted both sides.
        SmallBitset joint = rt.queries;
        SmallBitset other = lineage;
        const size_t width =
            std::max(joint.size_bits(), other.size_bits());
        joint.Resize(width);
        other.Resize(width);
        joint &= other;
        if (joint.None()) return;
        stem_->CountMatch();

        RoutedTuple out;
        out.tuple = layout_->MergeSparse(rt.tuple, stored);
        out.sources = rt.sources;
        out.sources.Set(target_);
        out.done = rt.done;
        out.queries = std::move(joint);
        result.outputs.push_back(std::move(out));
      });
  return result;
}

}  // namespace tcq
