#include "eddy/eddy.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace tcq {

namespace {

#ifndef TCQ_METRICS_DISABLED
/// Process-wide routing telemetry, aggregated across eddies. Per-eddy and
/// per-operator detail stays on the Eddy (op_stats() and the accessors
/// above) and is composed into snapshots by whoever owns the eddy.
struct RoutingMetrics {
  Counter* injected;
  Counter* decisions;
  Counter* visits;
  Counter* emitted;
  Counter* cache_hits;
  Counter* cache_misses;

  static RoutingMetrics& Get() {
    static RoutingMetrics m = [] {
      MetricRegistry& r = MetricRegistry::Global();
      return RoutingMetrics{r.GetCounter("tcq.eddy.injected"),
                            r.GetCounter("tcq.eddy.decisions"),
                            r.GetCounter("tcq.eddy.visits"),
                            r.GetCounter("tcq.eddy.emitted"),
                            r.GetCounter("tcq.eddy.cache_hits"),
                            r.GetCounter("tcq.eddy.cache_misses")};
    }();
    return m;
  }
};
#endif

/// Decision-source markers used between the decision point and TraceHop.
constexpr int kDecisionPolicy = 0;
constexpr int kDecisionCached = 1;
constexpr int kDecisionSequence = 2;

/// Folds a bitset into one word (collision-free below 64 bits, which
/// covers realistic source counts and all but enormous operator sets).
uint64_t FoldBits(const SmallBitset& bits) {
  uint64_t key = 0;
  bits.ForEachSet([&](size_t i) { key |= uint64_t{1} << (i % 64); });
  return key;
}

/// Batch-cache key for a tuple's routing *stage*: both its source
/// composition and which operators it has already visited. Tuples at the
/// same stage may legitimately share one routing decision.
uint64_t StageKey(const RoutedTuple& rt) {
  return FoldBits(rt.sources) * 0x9E3779B97F4A7C15ULL ^ FoldBits(rt.done);
}
}  // namespace

Eddy::Eddy(const SourceLayout* layout, std::unique_ptr<RoutingPolicy> policy)
    : Eddy(layout, std::move(policy), Options()) {}

Eddy::Eddy(const SourceLayout* layout, std::unique_ptr<RoutingPolicy> policy,
           Options options)
    : layout_(layout), policy_(std::move(policy)), options_(options) {
  TCQ_CHECK(layout_ != nullptr);
  TCQ_CHECK(policy_ != nullptr);
  TCQ_CHECK(options_.batch_size >= 1);
  TCQ_CHECK(options_.fixed_sequence_length >= 1);
}

size_t Eddy::AddOperator(EddyOperatorPtr op, int group) {
  TCQ_CHECK(op != nullptr);
  const size_t id = ops_.size();
  const bool probe = op->IsJoinProbe();
  ops_.push_back(std::move(op));
  groups_.push_back(group);
  stats_.emplace_back();
  cost_hints_.push_back(ops_.back()->CostHint());

  // Hop masks: widen every mask by one bit, then wire the newcomer into
  // its alternatives group and (for a probe) the one-probe rule.
  for (SmallBitset& mask : hop_masks_) mask.Resize(id + 1);
  probe_mask_.Resize(id + 1);
  hop_masks_.emplace_back(id + 1);
  SmallBitset& mine = hop_masks_.back();
  mine.Set(id);
  for (size_t i = 0; i < id; ++i) {
    if (group >= 0 && groups_[i] == group) {
      hop_masks_[i].Set(id);
      mine.Set(i);
    }
  }
  if (probe) {
    probe_mask_.ForEachSet([&](size_t i) { hop_masks_[i].Set(id); });
    probe_mask_.Set(id);
    mine |= probe_mask_;
  }
  decision_cache_.clear();  // Cached choices may now be stale.
  return id;
}

void Eddy::Stamp(RoutedTuple* rt) {
  if (rt->done.size_bits() != ops_.size()) rt->done.Resize(ops_.size());
  if (rt->tuple.seq() == 0) rt->tuple.set_seq(next_seq_++);
  if (rt->trace_id == 0) {
    TCQ_METRIC(rt->trace_id = Tracer::Global().MaybeStartTrace());
  }
}

void Eddy::Inject(size_t source, const Tuple& narrow) {
  SmallBitset sources(layout_->num_sources());
  sources.Set(source);
  RoutedTuple rt(layout_->Widen(source, narrow), std::move(sources),
                 ops_.size());
  rt.tuple.set_seq(next_seq_++);  // Arrival order, for join dedup.
  TCQ_METRIC(rt.trace_id = Tracer::Global().MaybeStartTrace());
  queue_.push_back(std::move(rt));
}

void Eddy::InjectBatch(size_t source, const std::vector<Tuple>& batch) {
  SmallBitset sources(layout_->num_sources());
  sources.Set(source);
  for (const Tuple& narrow : batch) {
    RoutedTuple rt(layout_->Widen(source, narrow), sources, ops_.size());
    rt.tuple.set_seq(next_seq_++);
    TCQ_METRIC(rt.trace_id = Tracer::Global().MaybeStartTrace());
    queue_.push_back(std::move(rt));
  }
  if (batch.size() > batch_hint_) batch_hint_ = batch.size();
}

void Eddy::InjectRouted(RoutedTuple rt) {
  Stamp(&rt);
  queue_.push_back(std::move(rt));
}

void Eddy::InjectRoutedBatch(std::vector<RoutedTuple>* batch) {
  const size_t n = batch->size();
  for (RoutedTuple& rt : *batch) Stamp(&rt);
  // Nothing pending (in particular, not called back from inside a run,
  // which keeps run_ non-empty until it finishes): the batch is the front
  // of the queue, so it becomes run_ as is and the caller gets the spare
  // buffer back. Otherwise it waits behind what is already queued.
  if (run_.empty() && queue_.empty()) {
    run_.swap(*batch);
  } else {
    for (RoutedTuple& rt : *batch) queue_.push_back(std::move(rt));
    batch->clear();
  }
  if (n > batch_hint_) batch_hint_ = n;
}

void Eddy::EligibleOps(const RoutedTuple& rt, std::vector<size_t>* out) {
  const size_t cap_before = out->capacity();
  out->clear();
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (!rt.done.Test(i) && ops_[i]->Eligible(rt.sources)) {
      out->push_back(i);
    }
  }
  if (out->capacity() != cap_before) ++scratch_allocs_;
}

void Eddy::SnapshotRanking(std::vector<size_t>* out) const {
  out->resize(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) (*out)[i] = i;
  std::stable_sort(out->begin(), out->end(), [&](size_t a, size_t b) {
    const double wa = stats_[a].tickets / std::max(cost_hints_[a], 1e-9);
    const double wb = stats_[b].tickets / std::max(cost_hints_[b], 1e-9);
    return wa > wb;
  });
}

void Eddy::CompleteRun() {
  // Shared (CACQ) mode hands every finished tuple to the engine above,
  // which decides per-query delivery from composition and lineage.
  // Single-query mode emits only tuples spanning every source; partial
  // compositions have served their purpose (their state lives on inside
  // SteMs awaiting future matches). A run has one composition, so one
  // test decides for all of its tuples.
  const bool emits = partial_sink_ != nullptr ||
                     run_[0].sources.Count() == layout_->num_sources();
  for (RoutedTuple& rt : run_) {
#ifndef TCQ_METRICS_DISABLED
    if (rt.trace_id != 0) {
      TraceEvent ev;
      ev.trace_id = rt.trace_id;
      ev.tuple_seq = rt.tuple.seq();
      ev.op = emits ? "[emit]" : "[discard]";
      ev.decision = TraceDecision::kNone;
      ev.passed = emits;
      ev.queue_depth = queue_.size();
      Tracer::Global().Record(std::move(ev));
    }
#endif
    if (partial_sink_) {
      partial_sink_(std::move(rt));
    } else if (emits && sink_) {
      sink_(std::move(rt));
    }
  }
  if (emits) emitted_ += run_.size();
  run_.clear();
}

#ifndef TCQ_METRICS_DISABLED
void Eddy::TraceHop(const RoutedTuple& rt, size_t op, int decision_src,
                    bool passed) const {
  TraceEvent ev;
  ev.trace_id = rt.trace_id;
  ev.tuple_seq = rt.tuple.seq();
  ev.op = ops_[op]->name();
  switch (decision_src) {
    case kDecisionCached:
      ev.decision = TraceDecision::kCached;
      break;
    case kDecisionSequence:
      ev.decision = TraceDecision::kSequence;
      break;
    default:
      ev.decision = TraceDecision::kPolicy;
      break;
  }
  ev.passed = passed;
  ev.queue_depth = queue_.size();
  Tracer::Global().Record(std::move(ev));
}

void Eddy::FlushMetrics() {
  RoutingMetrics& m = RoutingMetrics::Get();
  m.decisions->Add(decisions_ - flushed_decisions_);
  m.visits->Add(visits_ - flushed_visits_);
  m.emitted->Add(emitted_ - flushed_emitted_);
  m.cache_hits->Add(cache_hits_ - flushed_cache_hits_);
  m.cache_misses->Add(cache_misses_ - flushed_cache_misses_);
  flushed_decisions_ = decisions_;
  flushed_visits_ = visits_;
  flushed_emitted_ = emitted_;
  flushed_cache_hits_ = cache_hits_;
  flushed_cache_misses_ = cache_misses_;
  for (const EddyOperatorPtr& op : ops_) op->FlushMetrics();
}
#endif

void Eddy::SplitRun(size_t n) {
  for (size_t i = run_.size(); i-- > n;) {
    queue_.push_front(std::move(run_[i]));
  }
  run_.erase(run_.begin() + static_cast<std::ptrdiff_t>(n), run_.end());
}

void Eddy::FormRun(size_t max_len) {
  auto same_stage = [this](RoutedTuple& rt) {
    if (rt.done.size_bits() != ops_.size()) rt.done.Resize(ops_.size());
    return rt.sources == run_[0].sources && rt.done == run_[0].done;
  };
  size_t n = 1;
  while (n < run_.size() && n < max_len && same_stage(run_[n])) ++n;
  if (n < run_.size()) {
    SplitRun(n);
    return;
  }
  while (run_.size() < max_len && !queue_.empty() &&
         same_stage(queue_.front())) {
    run_.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
}

void Eddy::ApplyHop(size_t op, int decision_src) {
  (void)decision_src;
  EddyOperator& oper = *ops_[op];
  const SmallBitset& mask = hop_masks_[op];
  const size_t n = run_.size();
  size_t kept = 0;
  uint64_t produced = 0;
  for (size_t i = 0; i < n; ++i) {
    RoutedTuple& rt = run_[i];
    EddyOpResult result = oper.Process(rt);
    // Visiting one alternative satisfies its whole group, and after any
    // join probe the tuple is spent for joining (one-probe rule): its
    // outputs carry the remaining join work.
    rt.done |= mask;
#ifndef TCQ_METRICS_DISABLED
    if (rt.trace_id != 0) {
      // The head took the run's decision; the rest reused it.
      const int src = i == 0 || decision_src == kDecisionSequence
                          ? decision_src
                          : kDecisionCached;
      TraceHop(rt, op, src, result.pass);
    }
#endif
    produced += result.outputs.size();
    for (RoutedTuple& out : result.outputs) {
      out.trace_id = rt.trace_id;  // Matches stay on their probe's trace.
      if (out.done.size_bits() != ops_.size()) out.done.Resize(ops_.size());
      // Join outputs probe the targets they still miss: clear inherited
      // probe marks (eligibility keeps them away from present targets).
      out.done -= probe_mask_;
      queue_.push_back(std::move(out));
    }
    if (result.pass) {
      if (kept != i) run_[kept] = std::move(rt);
      ++kept;
      continue;
    }
    // Input consumed (dropped or absorbed).
#ifndef TCQ_METRICS_DISABLED
    // A traced tuple's path ends explicitly: a drop with no outputs is a
    // dead end; an absorbing probe's trace continues on its outputs.
    if (rt.trace_id != 0 && result.outputs.empty()) {
      TraceEvent ev;
      ev.trace_id = rt.trace_id;
      ev.tuple_seq = rt.tuple.seq();
      ev.op = "[discard]";
      ev.decision = TraceDecision::kNone;
      ev.passed = false;
      ev.queue_depth = queue_.size();
      Tracer::Global().Record(std::move(ev));
    }
#endif
  }
  run_.erase(run_.begin() + static_cast<std::ptrdiff_t>(kept), run_.end());

  visits_ += n;
  EddyOpStats& s = stats_[op];
  s.routed += n;
  if (kept != 0) s.passed += kept;
  if (produced != 0) s.produced += produced;
  policy_->ObserveRun(op, n, kept, &stats_);
}

void Eddy::RouteRun() {
  std::vector<size_t>& eligible = eligible_scratch_;
  // run_ starts as a front segment of the pending tuples; FormRun cuts it
  // to one stage at the first decision. Survivors of a hop share a stage
  // again (they had one and took the same hop), so later decisions only
  // trim the run to their reuse budget.
  bool formed = false;
  if (run_[0].done.size_bits() != ops_.size()) {
    run_[0].done.Resize(ops_.size());
  }
  while (!run_.empty()) {
    EligibleOps(run_[0], &eligible);
    if (eligible.empty()) {
      // Nothing to decide: complete the same-stage tuples already here,
      // without gathering more from the queue (eddies with no operators
      // for a stream would otherwise pull whole windows into run_).
      if (!formed) FormRun(run_.size());
      CompleteRun();
      return;
    }

    // --- One routing decision for the run (possibly from the cache). ---
    // The cache engages for the configured batch_size knob AND for an
    // in-flight injected batch (batch_hint_), which amortizes one decision
    // over the whole batch at each routing stage. The decision serves the
    // run's head plus as many followers as the entry has reuses left.
    const size_t reuse_span = std::max(options_.batch_size, batch_hint_);
    size_t chosen;
    size_t max_len = 1;
    CachedDecision* entry = nullptr;
    bool head_cached = false;
    if (reuse_span > 1) {
      const uint64_t key = StageKey(run_[0]);
      auto it = decision_cache_.find(key);
      if (it != decision_cache_.end() && it->second.remaining > 0 &&
          std::find(eligible.begin(), eligible.end(), it->second.op) !=
              eligible.end()) {
        chosen = it->second.op;
        --it->second.remaining;
        head_cached = true;
      } else {
        chosen = policy_->Choose(eligible, stats_, cost_hints_);
        ++decisions_;
        it = decision_cache_.insert_or_assign(
                                key, CachedDecision{chosen, reuse_span - 1})
                 .first;
      }
      entry = &it->second;
      max_len = 1 + entry->remaining;
    } else {
      chosen = policy_->Choose(eligible, stats_, cost_hints_);
      ++decisions_;
    }
    if (!formed) {
      FormRun(max_len);
      formed = true;
    } else if (run_.size() > max_len) {
      // The budget ran out mid-run: the tail waits at the queue front
      // for a fresh decision, exactly where per-tuple routing leaves it.
      SplitRun(max_len);
    }
    if (entry != nullptr) {
      const size_t followers = run_.size() - 1;
      entry->remaining -= followers;
      cache_hits_ += followers + (head_cached ? 1 : 0);
      if (!head_cached) ++cache_misses_;
    }

    // --- Apply the chosen operator, then (optionally) a fixed sequence. ---
    int decision_src = kDecisionPolicy;
    if (head_cached) decision_src = kDecisionCached;
    std::vector<size_t>& ranking = ranking_scratch_;
    bool ranking_built = false;
    size_t applied = 0;
    size_t next_op = chosen;
    while (true) {
      ApplyHop(next_op, decision_src);
      if (run_.empty()) return;
      EligibleOps(run_[0], &eligible);
      if (eligible.empty()) {
        CompleteRun();
        return;
      }
      ++applied;
      if (applied >= options_.fixed_sequence_length) break;

      // Continue the fixed sequence: highest-ranked eligible operator
      // under the decision-time snapshot, without consulting the policy.
      if (!ranking_built) {
        const size_t cap_before = ranking.capacity();
        SnapshotRanking(&ranking);
        if (ranking.capacity() != cap_before) ++scratch_allocs_;
        ranking_built = true;
      }
      bool found = false;
      for (size_t candidate : ranking) {
        if (std::find(eligible.begin(), eligible.end(), candidate) !=
            eligible.end()) {
          next_op = candidate;
          found = true;
          break;
        }
      }
      if (!found) break;
      decision_src = kDecisionSequence;
    }
    // Sequence budget exhausted with the run still alive: it takes a new
    // decision at its new stage.
  }
}

void Eddy::Drain() {
#ifndef TCQ_METRICS_DISABLED
  RoutingMetrics::Get().injected->Add(run_.size() + queue_.size());
#endif
  while (!run_.empty() || !queue_.empty()) {
    if (run_.empty()) {
      run_.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    RouteRun();
  }
  TCQ_METRIC(FlushMetrics());
  // The injected batch (if any) has fully routed: retire its amortization.
  // Entries widened to the batch length are clamped back to the configured
  // batch_size budget rather than discarded, so the §4.3 knob keeps its
  // remaining reuses across Drain calls exactly as if no batch had been
  // injected; with batch_size == 1 no reuse is configured and the cache
  // only held batch-widened entries, so it empties entirely.
  if (batch_hint_ > 0) {
    batch_hint_ = 0;
    if (options_.batch_size > 1) {
      const size_t cap = options_.batch_size - 1;
      for (auto& entry : decision_cache_) {
        if (entry.second.remaining > cap) entry.second.remaining = cap;
      }
    } else {
      decision_cache_.clear();
    }
  }
}

}  // namespace tcq
