#include "cacq/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/predicates.h"

namespace tcq {

namespace {
uint64_t FoldBits(const SmallBitset& bits) {
  uint64_t key = 0;
  bits.ForEachSet([&](size_t i) { key |= uint64_t{1} << (i % 64); });
  return key;
}
}  // namespace

CacqEngine::CacqEngine() : CacqEngine(Options()) {}

CacqEngine::CacqEngine(Options options) : options_(std::move(options)) {
  eddy_ = std::make_unique<Eddy>(
      &layout_, MakePolicy(options_.policy, options_.seed), options_.eddy);
  eddy_->SetPartialSink([this](RoutedTuple&& rt) { Deliver(std::move(rt)); });
}

Result<size_t> CacqEngine::AddStream(const std::string& name,
                                     SchemaPtr schema) {
  if (!queries_.empty()) {
    return Status::FailedPrecondition(
        "streams must be declared before queries");
  }
  if (layout_.SourceIndexOf(name) != layout_.num_sources()) {
    return Status::AlreadyExists("stream already declared: " + name);
  }
  const size_t idx = layout_.AddSource(name, std::move(schema));
  interested_.emplace_back();
  return idx;
}

std::shared_ptr<GroupedFilterOp> CacqEngine::FilterOpFor(size_t column) {
  auto it = filter_ops_.find(column);
  if (it != filter_ops_.end()) return it->second;
  // Which source owns this absolute column?
  size_t owner = layout_.num_sources();
  for (size_t s = 0; s < layout_.num_sources(); ++s) {
    if (column >= layout_.offset(s) &&
        column < layout_.offset(s) + layout_.arity(s)) {
      owner = s;
      break;
    }
  }
  TCQ_CHECK(owner < layout_.num_sources());
  SmallBitset required(layout_.num_sources());
  required.Set(owner);
  auto op = std::make_shared<GroupedFilterOp>(
      "gf[" + layout_.full_schema()->field(column).QualifiedName() + "]",
      column, std::move(required));
  eddy_->AddOperator(op);
  filter_ops_.emplace(column, op);
  return op;
}

std::shared_ptr<ResidualFilterOp> CacqEngine::ResidualOpFor(
    const SmallBitset& req) {
  const uint64_t key = FoldBits(req);
  auto it = residual_ops_.find(key);
  if (it != residual_ops_.end()) return it->second;
  auto op = std::make_shared<ResidualFilterOp>("residual", req);
  eddy_->AddOperator(op);
  residual_ops_.emplace(key, op);
  return op;
}

Status CacqEngine::EnsureJoin(size_t src_a, int col_a, size_t src_b,
                              int col_b) {
  auto ensure_stem = [&](size_t src, int key) -> SteMPtr {
    JoinKey jk{src, key};
    auto it = stems_.find(jk);
    if (it != stems_.end()) return it->second;
    auto stem = std::make_shared<SteM>(
        "stem[" + layout_.alias(src) + "]", layout_.full_schema(), key);
    if (options_.spool != nullptr) {
      stem->SetSpool(options_.spool,
                     options_.spool_prefix + "stem." + layout_.alias(src) +
                         "." + std::to_string(key));
    }
    stems_.emplace(jk, stem);
    eddy_->AddOperator(std::make_shared<StemBuildOp>(
        "build[" + layout_.alias(src) + "]", src, stem));
    return stem;
  };
  SteMPtr stem_a = ensure_stem(src_a, col_a);
  SteMPtr stem_b = ensure_stem(src_b, col_b);

  auto ensure_probe = [&](size_t target, const SteMPtr& stem,
                          int stored_key, size_t probe_src, int probe_key) {
    const auto edge = std::make_tuple(target, stored_key, probe_key);
    if (probe_edges_.count(edge) != 0) return;
    probe_edges_.emplace(edge, true);
    SmallBitset probe_sources(layout_.num_sources());
    probe_sources.Set(probe_src);
    eddy_->AddOperator(
        std::make_shared<StemProbeOp>(
            "probe[" + layout_.alias(target) + "<-" +
                layout_.alias(probe_src) + "]",
            &layout_, target, stem, std::move(probe_sources), probe_key),
        /*group=*/static_cast<int>(target));
  };
  ensure_probe(src_b, stem_b, col_b, src_a, col_a);
  ensure_probe(src_a, stem_a, col_a, src_b, col_b);
  return Status::OK();
}

Result<QueryId> CacqEngine::AddQuery(const CacqQuerySpec& spec) {
  const QueryId slot = free_slots_.empty()
                           ? static_cast<QueryId>(queries_.size())
                           : *free_slots_.begin();
  TCQ_RETURN_NOT_OK(AddQueryAt(slot, spec));
  return slot;
}

Status CacqEngine::AddQueryAt(QueryId qid, const CacqQuerySpec& spec) {
  if (qid < queries_.size() && queries_[qid].active) {
    return Status::AlreadyExists("query slot " + std::to_string(qid) +
                                 " is live");
  }
  if (spec.sources.empty()) {
    return Status::InvalidArgument("query needs at least one source");
  }
  QueryInfo info;
  info.footprint.Resize(layout_.num_sources());
  for (const std::string& name : spec.sources) {
    const size_t s = layout_.SourceIndexOf(name);
    if (s == layout_.num_sources()) {
      return Status::NotFound("query references unknown stream: " + name);
    }
    info.footprint.Set(s);
  }

  const SchemaPtr& schema = layout_.full_schema();
  std::vector<std::pair<std::shared_ptr<ResidualFilterOp>, ExprPtr>>
      residual_registrations;
  struct FilterRegistration {
    size_t column;
    BinaryOp op;
    Value constant;
  };
  std::vector<FilterRegistration> filter_registrations;

  // Classify each boolean factor of the WHERE clause.
  for (const ExprPtr& factor : ExtractConjuncts(spec.where)) {
    if (factor == nullptr) continue;
    // Equi-join between two sources -> shared SteM machinery.
    if (auto ej = MatchEquiJoin(factor)) {
      TCQ_ASSIGN_OR_RETURN(size_t ca, schema->IndexOf(ej->left_column));
      TCQ_ASSIGN_OR_RETURN(size_t cb, schema->IndexOf(ej->right_column));
      const std::string qa = schema->field(ca).qualifier;
      const std::string qb = schema->field(cb).qualifier;
      const size_t sa = layout_.SourceIndexOf(qa);
      const size_t sb = layout_.SourceIndexOf(qb);
      if (sa == sb) {
        // Same-source equality: treat as residual work below.
      } else {
        if (!info.footprint.Test(sa) || !info.footprint.Test(sb)) {
          return Status::InvalidArgument(
              "join predicate references sources outside the footprint: " +
              factor->ToString());
        }
        TCQ_RETURN_NOT_OK(EnsureJoin(sa, static_cast<int>(ca), sb,
                                     static_cast<int>(cb)));
        continue;
      }
    }
    // Single-column comparison against a constant -> grouped filter.
    if (auto sp = MatchSimplePredicate(factor)) {
      auto idx = schema->IndexOf(sp->column);
      if (idx.ok()) {
        filter_registrations.push_back(
            {*idx, sp->op, std::move(sp->constant)});
        continue;
      }
    }
    // Everything else -> per-query residual on the referenced sources.
    TCQ_ASSIGN_OR_RETURN(ExprPtr bound, factor->Bind(*schema));
    std::vector<std::string> cols;
    factor->CollectColumns(&cols);
    SmallBitset req(layout_.num_sources());
    for (const std::string& c : cols) {
      TCQ_ASSIGN_OR_RETURN(size_t idx, schema->IndexOf(c));
      const std::string qual = schema->field(idx).qualifier;
      const size_t s = layout_.SourceIndexOf(qual);
      TCQ_CHECK(s < layout_.num_sources());
      req.Set(s);
    }
    if (req.None()) req = info.footprint;  // Constant predicate.
    residual_registrations.emplace_back(ResidualOpFor(req), std::move(bound));
  }

  // All checks passed: commit the registration.
  for (FilterRegistration& r : filter_registrations) {
    FilterOpFor(r.column)->filter().AddPredicate(qid, r.op,
                                                 std::move(r.constant));
    info.filter_columns.push_back(r.column);
  }
  for (auto& [op, bound] : residual_registrations) {
    op->AddResidual(qid, std::move(bound));
    info.residual_ops.push_back(op);
  }
  info.active = true;
  info.speculative = spec.speculative;
  info.footprint.ForEachSet([&](size_t s) {
    if (interested_[s].size_bits() <= qid) interested_[s].Resize(qid + 1);
    interested_[s].Set(qid);
  });
  if (delayed_queries_.size_bits() <= qid) {
    delayed_queries_.Resize(qid + 1);
    speculative_queries_.Resize(qid + 1);
  }
  (spec.speculative ? speculative_queries_ : delayed_queries_).Set(qid);
  if (qid >= queries_.size()) {
    for (QueryId s = static_cast<QueryId>(queries_.size()); s < qid; ++s) {
      free_slots_.insert(s);
    }
    queries_.resize(qid + 1);
  } else {
    free_slots_.erase(qid);
  }
  queries_[qid] = std::move(info);
  ++active_queries_;
  return Status::OK();
}

Status CacqEngine::RemoveQuery(QueryId q) {
  if (q >= queries_.size() || !queries_[q].active) {
    return Status::NotFound("no such active query");
  }
  QueryInfo& info = queries_[q];
  info.active = false;
  --active_queries_;
  for (size_t column : info.filter_columns) {
    filter_ops_[column]->filter().RemoveQuery(q);
  }
  for (auto& op : info.residual_ops) op->RemoveQuery(q);
  for (auto& [jk, stem] : stems_) stem->ScrubQuery(q);
  for (SmallBitset& bits : interested_) {
    if (q < bits.size_bits()) bits.Clear(q);
  }
  if (q < delayed_queries_.size_bits()) delayed_queries_.Clear(q);
  if (q < speculative_queries_.size_bits()) speculative_queries_.Clear(q);
  info = QueryInfo();  // Drops the residual-op references; slot reusable.
  free_slots_.insert(q);
  return Status::OK();
}

Status CacqEngine::Inject(const std::string& stream, const Tuple& tuple,
                          IngressLane lane) {
  const size_t s = layout_.SourceIndexOf(stream);
  if (s == layout_.num_sources()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  RoutedTuple rt;
  rt.tuple = layout_.Widen(s, tuple);
  rt.sources.Resize(layout_.num_sources());
  rt.sources.Set(s);
  rt.queries = interested_[s];
  rt.queries.Resize(queries_.size());
  if (lane != IngressLane::kAll) {
    SmallBitset lane_set = lane == IngressLane::kSpeculative
                               ? speculative_queries_
                               : delayed_queries_;
    lane_set.Resize(queries_.size());
    rt.queries &= lane_set;
  }
  if (rt.queries.None()) return Status::OK();  // Nobody is listening.
  eddy_->InjectRouted(std::move(rt));
  eddy_->Drain();
  return Status::OK();
}

Status CacqEngine::InjectBatch(const std::string& stream,
                               const std::vector<Tuple>& batch,
                               IngressLane lane) {
  const size_t s = layout_.SourceIndexOf(stream);
  if (s == layout_.num_sources()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  return InjectBatch(s, batch, lane);
}

Status CacqEngine::InjectBatch(size_t s, const std::vector<Tuple>& batch,
                               IngressLane lane) {
  if (s >= layout_.num_sources()) {
    return Status::OutOfRange("source index out of range");
  }
  SmallBitset interested = interested_[s];
  interested.Resize(queries_.size());
  if (lane != IngressLane::kAll) {
    SmallBitset lane_set = lane == IngressLane::kSpeculative
                               ? speculative_queries_
                               : delayed_queries_;
    lane_set.Resize(queries_.size());
    interested &= lane_set;
  }
  if (interested.None() || batch.empty()) return Status::OK();
  // Built in place in a buffer the eddy adopts as its first run; the
  // buffer handed back is refilled by the next batch.
  for (const Tuple& tuple : batch) {
    RoutedTuple& rt = staged_.emplace_back();
    rt.tuple = layout_.Widen(s, tuple);
    rt.sources.Resize(layout_.num_sources());
    rt.sources.Set(s);
    rt.queries = interested;
  }
  eddy_->InjectRoutedBatch(&staged_);
  eddy_->Drain();
  return Status::OK();
}

void CacqEngine::EvictBefore(Timestamp ts) {
  for (auto& [jk, stem] : stems_) stem->EvictBefore(ts);
}

std::vector<CacqEngine::StemSnapshot> CacqEngine::stem_snapshots() const {
  std::vector<StemSnapshot> out;
  out.reserve(stems_.size());
  for (const auto& [jk, stem] : stems_) {
    out.push_back(StemSnapshot{stem->name(), stem->size(), stem->probes(),
                               stem->scanned(), stem->matches()});
  }
  return out;
}

void CacqEngine::Deliver(RoutedTuple&& rt) {
  if (!sink_ || rt.queries.None()) return;
  rt.queries.ForEachSet([&](size_t q) {
    if (q >= queries_.size() || !queries_[q].active) return;
    // Deliver when the tuple's composition is exactly the query footprint.
    if (queries_[q].footprint == rt.sources) {
      sink_(static_cast<QueryId>(q), rt.tuple);
    }
  });
}

}  // namespace tcq
