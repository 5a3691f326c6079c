#ifndef TCQ_EDDY_POLICY_H_
#define TCQ_EDDY_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eddy/operator.h"

namespace tcq {

/// Chooses which eligible operator a tuple visits next. The policy sees
/// per-operator statistics that the Eddy maintains (tickets, pass rates,
/// cost hints) and is consulted once per routing decision — or once per
/// batch when the batching knob (§4.3) is turned up.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  virtual const char* name() const = 0;

  /// Picks one of `eligible` (indexes into the Eddy's operator list;
  /// non-empty). `stats[i]` / `cost_hint[i]` describe operator i.
  virtual size_t Choose(const std::vector<size_t>& eligible,
                        const std::vector<EddyOpStats>& stats,
                        const std::vector<double>& cost_hints) = 0;

  /// Feedback after one hop of a run: `routed` tuples visited `op` and
  /// `passed` of them survived. The Eddy reports each hop of a same-stage
  /// run once, so the ticket arithmetic must be additive: observing a run
  /// once leaves exactly the tickets that observing its tuples one at a
  /// time would. Default: tickets += routed - passed, floored at zero.
  virtual void ObserveRun(size_t op, uint64_t routed, uint64_t passed,
                          std::vector<EddyOpStats>* stats);

  /// One-tuple form of ObserveRun.
  void Observe(size_t op, bool passed, std::vector<EddyOpStats>* stats) {
    ObserveRun(op, 1, passed ? 1 : 0, stats);
  }
};

/// Static-plan baseline: always the first eligible operator in a fixed
/// priority order. With priorities matching a classic optimizer's choice
/// this reproduces a conventional query plan inside the Eddy harness.
class FixedPolicy : public RoutingPolicy {
 public:
  /// `priority[i]` = rank of operator i (lower routes earlier).
  explicit FixedPolicy(std::vector<size_t> priority)
      : priority_(std::move(priority)) {}
  const char* name() const override { return "fixed"; }
  size_t Choose(const std::vector<size_t>& eligible,
                const std::vector<EddyOpStats>& stats,
                const std::vector<double>& cost_hints) override;

 private:
  std::vector<size_t> priority_;
};

/// Uniform-random routing: the "no information" floor.
class RandomPolicy : public RoutingPolicy {
 public:
  explicit RandomPolicy(uint64_t seed = 7) : rng_(seed) {}
  const char* name() const override { return "random"; }
  size_t Choose(const std::vector<size_t>& eligible,
                const std::vector<EddyOpStats>& stats,
                const std::vector<double>& cost_hints) override;

 private:
  Rng rng_;
};

/// Lottery scheduling from [AH00]: each operator holds tickets — credited
/// when a tuple is routed to it, debited when the tuple is returned
/// (passes). Selective operators accumulate tickets and win more lotteries,
/// so tuples visit them first. Tickets decay by `decay` once every
/// `decay_interval` decisions (on the first observation after the decision
/// count reaches a multiple of the interval, however many observations a
/// cached decision then serves), keeping a finite horizon so the policy
/// re-adapts when selectivities drift mid-stream. Ticket weight is divided
/// by the operator's cost hint so expensive operators are deferred.
class LotteryPolicy : public RoutingPolicy {
 public:
  struct Options {
    double decay = 0.9;
    uint64_t decay_interval = 128;
    /// Exploration floor: minimum effective weight for any operator, so a
    /// starved operator keeps getting sampled and drift is detected.
    double exploration = 0.05;
    /// Ticket cap: bounds how much past selectivity evidence accumulates,
    /// so a drift is overtaken in O(cap) observations instead of O(all
    /// history) — the finite-horizon behaviour [AH00]'s windowed lottery
    /// achieves.
    double max_tickets = 200.0;
  };

  explicit LotteryPolicy(uint64_t seed = 7) : LotteryPolicy(seed, Options()) {}
  LotteryPolicy(uint64_t seed, Options options)
      : rng_(seed), options_(options) {}

  const char* name() const override { return "lottery"; }
  size_t Choose(const std::vector<size_t>& eligible,
                const std::vector<EddyOpStats>& stats,
                const std::vector<double>& cost_hints) override;
  void ObserveRun(size_t op, uint64_t routed, uint64_t passed,
                  std::vector<EddyOpStats>* stats) override;

 private:
  Rng rng_;
  Options options_;
  uint64_t decisions_ = 0;
  /// decisions_ value at the last decay, so one interval crossing decays
  /// once, not once per observation while decisions_ stays on it.
  uint64_t decayed_at_ = 0;
  /// Reused across Choose calls — one routing decision per tuple (or per
  /// batch) must not cost a heap allocation.
  std::vector<double> weights_scratch_;
};

std::unique_ptr<RoutingPolicy> MakePolicy(const std::string& name,
                                          uint64_t seed = 7);

}  // namespace tcq

#endif  // TCQ_EDDY_POLICY_H_
