#include "eddy/policy.h"

#include <algorithm>

#include "common/logging.h"

namespace tcq {

void RoutingPolicy::ObserveRun(size_t op, uint64_t routed, uint64_t passed,
                               std::vector<EddyOpStats>* stats) {
  // Default ticket bookkeeping (used even by policies that ignore it, so
  // that switching policies mid-run starts from live statistics).
  EddyOpStats& s = (*stats)[op];
  s.tickets += static_cast<double>(routed - passed);
  if (s.tickets < 0.0) s.tickets = 0.0;
}

size_t FixedPolicy::Choose(const std::vector<size_t>& eligible,
                           const std::vector<EddyOpStats>& stats,
                           const std::vector<double>& cost_hints) {
  (void)stats;
  (void)cost_hints;
  TCQ_DCHECK(!eligible.empty());
  size_t best = eligible[0];
  size_t best_rank = SIZE_MAX;
  for (size_t op : eligible) {
    const size_t rank = op < priority_.size() ? priority_[op] : op;
    if (rank < best_rank) {
      best_rank = rank;
      best = op;
    }
  }
  return best;
}

size_t RandomPolicy::Choose(const std::vector<size_t>& eligible,
                            const std::vector<EddyOpStats>& stats,
                            const std::vector<double>& cost_hints) {
  (void)stats;
  (void)cost_hints;
  TCQ_DCHECK(!eligible.empty());
  return eligible[rng_.NextBounded(eligible.size())];
}

size_t LotteryPolicy::Choose(const std::vector<size_t>& eligible,
                             const std::vector<EddyOpStats>& stats,
                             const std::vector<double>& cost_hints) {
  TCQ_DCHECK(!eligible.empty());
  ++decisions_;
  // Weight = (tickets + exploration floor) / cost. Selective (ticket-rich)
  // and cheap operators win more lotteries.
  double total = 0.0;
  std::vector<double>& weights = weights_scratch_;
  weights.assign(eligible.size(), 0.0);
  for (size_t i = 0; i < eligible.size(); ++i) {
    const size_t op = eligible[i];
    const double cost = std::max(cost_hints[op], 1e-9);
    weights[i] = (stats[op].tickets + options_.exploration) / cost;
    total += weights[i];
  }
  double draw = rng_.NextDouble() * total;
  for (size_t i = 0; i < eligible.size(); ++i) {
    draw -= weights[i];
    if (draw <= 0.0) return eligible[i];
  }
  return eligible.back();
}

void LotteryPolicy::ObserveRun(size_t op, uint64_t routed, uint64_t passed,
                               std::vector<EddyOpStats>* stats) {
  // Decay first, then credit: the credits are then a plain capped sum, so
  // one observation of a run and one per tuple give identical tickets.
  if (options_.decay_interval > 0 && decisions_ > 0 &&
      decisions_ % options_.decay_interval == 0 && decayed_at_ != decisions_) {
    decayed_at_ = decisions_;
    for (EddyOpStats& t : *stats) t.tickets *= options_.decay;
  }
  EddyOpStats& s = (*stats)[op];
  s.tickets += static_cast<double>(routed - passed);
  if (s.tickets < 0.0) s.tickets = 0.0;
  if (s.tickets > options_.max_tickets) s.tickets = options_.max_tickets;
}

std::unique_ptr<RoutingPolicy> MakePolicy(const std::string& name,
                                          uint64_t seed) {
  if (name == "random") return std::make_unique<RandomPolicy>(seed);
  if (name == "lottery") return std::make_unique<LotteryPolicy>(seed);
  if (name == "fixed") {
    return std::make_unique<FixedPolicy>(std::vector<size_t>{});
  }
  TCQ_LOG(Warn) << "unknown policy '" << name << "', using lottery";
  return std::make_unique<LotteryPolicy>(seed);
}

}  // namespace tcq
