#include <algorithm>

#include "bench.h"

namespace perfbench {

using tcq::BinaryOp;

Oracle::Oracle(Workload* workload)
    : workload_(workload), streams_(workload->streams().size()) {}

std::vector<Reference*>* Oracle::SlotOf(const QuerySpec& q, BandIndex** band,
                                        double* lo, double* width) {
  *band = nullptr;
  if (q.atoms.empty()) return nullptr;  // Windowed: reads the whole input.
  StreamIndex& si = streams_[q.streams[0]];
  const Atom& first = q.atoms[0];
  if (first.op == BinaryOp::kEq) {
    auto it = std::find_if(si.eq.begin(), si.eq.end(), [&](const auto& e) {
      return e.first == first.column;
    });
    if (it == si.eq.end()) {
      si.eq.emplace_back(first.column, decltype(it->second){});
      it = si.eq.end() - 1;
    }
    return &it->second[first.constant];
  }
  // A lower and an upper bound on one numeric column: a band.
  const Atom* low = nullptr;
  const Atom* high = nullptr;
  for (const Atom& a : q.atoms) {
    if (a.column != first.column || !a.constant.is_numeric()) continue;
    if (a.op == BinaryOp::kGt || a.op == BinaryOp::kGe) low = &a;
    if (a.op == BinaryOp::kLt || a.op == BinaryOp::kLe) high = &a;
  }
  if (low == nullptr || high == nullptr) return &si.scan;
  auto it = std::find_if(si.bands.begin(), si.bands.end(),
                         [&](const BandIndex& b) { return b.column == first.column; });
  if (it == si.bands.end()) {
    si.bands.emplace_back();
    it = si.bands.end() - 1;
    it->column = first.column;
  }
  *band = &*it;
  *lo = low->constant.AsDouble();
  *width = std::max(0.0, high->constant.AsDouble() - *lo);
  return nullptr;
}

void Oracle::Activate(const QuerySpec& q) {
  BandIndex* band;
  double lo, width;
  if (std::vector<Reference*>* slot = SlotOf(q, &band, &lo, &width)) {
    slot->push_back(q.reference.get());
  } else if (band != nullptr) {
    band->max_width = std::max(band->max_width, width);
    const std::pair<double, Reference*> e(lo, q.reference.get());
    band->by_lo.insert(std::upper_bound(band->by_lo.begin(), band->by_lo.end(), e,
                                        [](const auto& a, const auto& b) {
                                          return a.first < b.first;
                                        }),
                       e);
  }
}

void Oracle::Deactivate(const QuerySpec& q) {
  BandIndex* band;
  double lo, width;
  if (std::vector<Reference*>* slot = SlotOf(q, &band, &lo, &width)) {
    slot->erase(std::find(slot->begin(), slot->end(), q.reference.get()));
  } else if (band != nullptr) {
    band->by_lo.erase(std::find(band->by_lo.begin(), band->by_lo.end(),
                                std::make_pair(lo, q.reference.get())));
  }
}

void Oracle::OnBatch(const Batch& batch) {
  workload_->OnPushed(batch);
  const StreamIndex& si = streams_[batch.stream];
  for (const tcq::Tuple& t : batch.tuples) {
    for (const auto& [column, by_value] : si.eq) {
      auto it = by_value.find(t.cell(column));
      if (it == by_value.end()) continue;
      for (Reference* r : it->second) r->OnTuple(t);
    }
    for (const BandIndex& b : si.bands) {
      const tcq::Value& cell = t.cell(b.column);
      if (!cell.is_numeric()) continue;
      // Only bands starting within max_width below the value can hold it.
      const double v = cell.AsDouble();
      auto it = std::lower_bound(
          b.by_lo.begin(), b.by_lo.end(), v - b.max_width,
          [](const auto& e, double x) { return e.first < x; });
      for (; it != b.by_lo.end() && it->first <= v; ++it) it->second->OnTuple(t);
    }
    for (Reference* r : si.scan) r->OnTuple(t);
  }
}

}  // namespace perfbench
