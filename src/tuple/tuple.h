#ifndef TCQ_TUPLE_TUPLE_H_
#define TCQ_TUPLE_TUPLE_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/object_pool.h"
#include "tuple/schema.h"
#include "tuple/value.h"

namespace tcq {

/// A row flowing through the dataflow. The cell payload is immutable and
/// shared (joins concatenate payloads into fresh tuples; copies of a Tuple
/// alias the same cells), while the timestamp rides along by value.
///
/// The cells live in ONE refcounted heap block (control block + Value
/// array allocated together via std::make_shared<Value[]>), so creating,
/// concatenating or projecting a tuple costs a single allocation — the
/// dominant per-tuple cost on the ingest hot path once queue and routing
/// overheads are batched away (§4.3 "adapting adaptivity").
///
/// Besides the application timestamp, a tuple carries an engine-assigned
/// arrival sequence number (`seq`). Symmetric joins use it for duplicate
/// avoidance: a probe may only match stored tuples that arrived strictly
/// earlier, so each join result is produced by exactly one arrival order.
///
/// A tuple also carries a retraction sign (CEDR-style, DESIGN.md §15): a
/// retraction is the compensating anti-tuple of a previously emitted
/// assertion with the same payload and timestamp. Signs combine by XOR
/// under Concat/merge — a join result composed of one retraction side is
/// itself a retraction — and are preserved by Project so they survive
/// egress projection.
/// Per §4.2.2 of the paper, intermediate tuples inside an Eddy carry extra
/// routing state ("enhanced surrogate objects"); that state lives in
/// eddy::RoutedTuple, keeping this type a plain data carrier.
class Tuple {
 public:
  /// An empty (zero-arity) tuple with timestamp 0.
  Tuple() : ts_(0) {}

  Tuple(std::vector<Value> cells, Timestamp ts)
      : ts_(ts) {
    AllocCells(cells.size());
    Value* out = MutableCells();
    for (size_t i = 0; i < cells.size(); ++i) out[i] = std::move(cells[i]);
  }

  static Tuple Make(std::vector<Value> cells, Timestamp ts = 0) {
    return Tuple(std::move(cells), ts);
  }

  Tuple(const Tuple&) = default;
  Tuple& operator=(const Tuple&) = default;

  // Explicit move ops: the defaulted ones would null cells_ but leave
  // size_ behind, so a moved-from tuple's arity() would lie and cell()
  // would dereference a null block. Keep the moved-from state a valid
  // empty tuple instead (producers retrying a rejected batch suffix
  // depend on moved-from == empty, never corrupt).
  Tuple(Tuple&& other) noexcept
      : cells_(std::move(other.cells_)),
        size_(std::exchange(other.size_, 0)),
        ts_(other.ts_),
        seq_(other.seq_),
        retraction_(std::exchange(other.retraction_, false)) {}
  Tuple& operator=(Tuple&& other) noexcept {
    cells_ = std::move(other.cells_);
    size_ = std::exchange(other.size_, 0);
    ts_ = other.ts_;
    seq_ = other.seq_;
    retraction_ = std::exchange(other.retraction_, false);
    return *this;
  }

  /// Single-allocation construction: allocates `n` NULL cells, hands the
  /// raw array to `fill` for in-place population, and only then shares
  /// the block. This is the hot-path factory for Concat/Project/Widen —
  /// no intermediate std::vector<Value>, no copy of the built tuple.
  template <typename FillFn>
  static Tuple Build(size_t n, Timestamp ts, FillFn&& fill) {
    Tuple t;
    t.ts_ = ts;
    t.AllocCells(n);
    if (n > 0) fill(t.MutableCells());
    return t;
  }

  size_t arity() const { return size_; }
  const Value& cell(size_t i) const {
    TCQ_DCHECK(i < size_);
    return cells_[i];
  }
  /// View of all cells. The underlying block is shared between copies:
  /// cells().data() is identical for tuples aliasing the same payload.
  std::span<const Value> cells() const { return {cells_.get(), size_}; }

  Timestamp timestamp() const { return ts_; }
  void set_timestamp(Timestamp ts) { ts_ = ts; }

  /// Arrival sequence number; 0 = never stamped by an engine.
  int64_t seq() const { return seq_; }
  void set_seq(int64_t seq) { seq_ = seq; }

  /// Retraction sign: true = this tuple cancels a previously emitted
  /// assertion with the same payload and timestamp.
  bool retraction() const { return retraction_; }
  void set_retraction(bool retraction) { retraction_ = retraction; }

  /// Payload identity ignoring the sign: same timestamp and cells. This is
  /// the matching rule a retraction uses to find the assertion it cancels
  /// (archives, SteMs).
  bool PayloadEquals(const Tuple& other) const {
    if (ts_ != other.ts_ || size_ != other.size_) return false;
    if (cells_.get() == other.cells_.get()) return true;
    for (size_t i = 0; i < size_; ++i) {
      if (cells_[i] != other.cells_[i]) return false;
    }
    return true;
  }

  /// Concatenates the cells of `left` then `right`. The result's timestamp
  /// and seq are the max of the two (the join output is "complete" only
  /// once its youngest constituent has arrived).
  static Tuple Concat(const Tuple& left, const Tuple& right) {
    Tuple out = Build(left.size_ + right.size_,
                      left.ts_ > right.ts_ ? left.ts_ : right.ts_,
                      [&](Value* cells) {
                        for (size_t i = 0; i < left.size_; ++i) {
                          cells[i] = left.cells_[i];
                        }
                        for (size_t i = 0; i < right.size_; ++i) {
                          cells[left.size_ + i] = right.cells_[i];
                        }
                      });
    out.seq_ = left.seq_ > right.seq_ ? left.seq_ : right.seq_;
    out.retraction_ = left.retraction_ != right.retraction_;  // XOR of signs.
    return out;
  }

  /// Projects the given cell indexes into a new tuple (same
  /// timestamp/seq/sign).
  Tuple Project(const std::vector<size_t>& indexes) const {
    Tuple out = Build(indexes.size(), ts_, [&](Value* cells) {
      for (size_t i = 0; i < indexes.size(); ++i) {
        cells[i] = cell(indexes[i]);
      }
    });
    out.seq_ = seq_;
    out.retraction_ = retraction_;
    return out;
  }

  bool operator==(const Tuple& other) const {
    return retraction_ == other.retraction_ && PayloadEquals(other);
  }

  /// Approximate resident heap footprint: the tuple itself, its cell
  /// block, and any string payloads. Aliasing copies each count the
  /// shared block in full — this feeds resident-memory gauges, where an
  /// over-estimate beats an under-estimate.
  size_t ApproxBytes() const {
    size_t n = sizeof(Tuple) + size_ * sizeof(Value);
    for (size_t i = 0; i < size_; ++i) {
      if (cells_[i].type() == ValueType::kString) {
        n += cells_[i].string_value().size();
      }
    }
    return n;
  }

  std::string ToString() const;

 private:
  void AllocCells(size_t n) {
    size_ = n;
    // One heap block: shared_ptr control block + n value-initialized
    // (NULL) Values, fused by allocate_shared's array overload. The
    // block comes from the thread-local BlockPool, so the steady-state
    // build/concat/project churn recycles a handful of size classes
    // instead of hitting the system allocator per tuple (DESIGN.md §14);
    // blocks may be released on a different thread than they were
    // acquired on (tuples cross the sharded exchange), which the pool
    // permits.
    cells_ = n > 0
                 ? std::allocate_shared<Value[]>(PoolAllocator<Value>{}, n)
                 : nullptr;
  }
  /// Only valid between AllocCells and first share of the block.
  Value* MutableCells() {
    return const_cast<Value*>(cells_.get());
  }

  std::shared_ptr<const Value[]> cells_;
  size_t size_ = 0;
  Timestamp ts_;
  int64_t seq_ = 0;
  bool retraction_ = false;
};

/// Which standing (CACQ) queries an injected batch is visible to, by the
/// query's consistency level and state (DESIGN.md §15). A stream routes
/// each accepted arrival once, on kArrival: speculative queries and
/// stateless delayed queries (single-source filters and projections)
/// see it in arrival order, and the delayed queries' rows wait at
/// delivery until the stream's release threshold passes their timestamp.
/// kReleased carries the reorder buffer's timestamp-ordered releases to
/// delayed queries with SteM state (multi-source joins), whose stored
/// state must grow in timestamp order. kSpeculative carries beyond-bound
/// stragglers ingested under LatePolicy::kIngestLate to speculative
/// queries only. kAll reaches every query: retractions and archive
/// replay, whose records are final. Defined here — the bottom of the
/// dependency order — because both the Flux changelog and the CACQ
/// engines carry it.
enum class IngressLane : uint8_t {
  kAll = 0,
  kReleased = 1,
  kArrival = 2,
  kSpeculative = 3,
};

using TupleVector = std::vector<Tuple>;

}  // namespace tcq

#endif  // TCQ_TUPLE_TUPLE_H_
