#include "stem/stem.h"

#include "common/logging.h"
#include "spool/spool.h"

namespace tcq {

namespace stem_internal {

AggregateMetrics& AggregateMetrics::Get() {
  static AggregateMetrics* m = [] {
    MetricRegistry& reg = MetricRegistry::Global();
    auto* agg = new AggregateMetrics();
    agg->inserts = reg.GetCounter("tcq.stem.inserts");
    agg->probes = reg.GetCounter("tcq.stem.probes");
    agg->matches = reg.GetCounter("tcq.stem.matches");
    agg->evictions = reg.GetCounter("tcq.stem.evictions");
    agg->scanned = reg.GetCounter("tcq.stem.scanned");
    agg->resident_bytes = reg.GetGauge("tcq.stem.resident_bytes");
    return agg;
  }();
  return *m;
}

void TrackResidentBytes(int64_t delta) {
  TCQ_METRIC(AggregateMetrics::Get().resident_bytes->Add(delta));
  (void)delta;
}

}  // namespace stem_internal

SteM::SteM(std::string name, SchemaPtr schema, int key_field)
    : name_(std::move(name)), schema_(std::move(schema)),
      key_field_(key_field) {
  TCQ_CHECK(schema_ != nullptr);
  TCQ_CHECK(key_field_ < static_cast<int>(schema_->num_fields()));
}

SteM::~SteM() {
  stem_internal::TrackResidentBytes(-resident_bytes_);  // Gauge hygiene.
}

void SteM::SetSpool(Spool* spool, std::string key) {
  TCQ_CHECK(spool != nullptr);
  spool_ = spool;
  spool_key_ = std::move(key);
}

void SteM::Tombstone(Entry& e) {
  e.dead = true;
  --live_;
  const int64_t bytes = static_cast<int64_t>(e.tuple.ApproxBytes());
  resident_bytes_ -= bytes;
  stem_internal::TrackResidentBytes(-bytes);
}

void SteM::Insert(const Tuple& tuple, const SmallBitset& lineage) {
  TCQ_DCHECK(tuple.arity() == schema_->num_fields())
      << name_ << ": arity mismatch";
  if (tuple.retraction()) {
    auto cancel_at = [&](size_t pos) {
      Tombstone(entries_[pos]);
      CompactFront();
      TCQ_METRIC(stem_internal::AggregateMetrics::Get().evictions->Add(1));
    };
    if (key_field_ >= 0) {
      const Value& key = tuple.cell(static_cast<size_t>(key_field_));
      auto [b, e] = index_.equal_range(key);
      for (auto it = b; it != e; ++it) {
        const uint64_t id = it->second;
        if (id < base_id_) continue;
        const size_t pos = static_cast<size_t>(id - base_id_);
        if (pos >= entries_.size() || entries_[pos].dead) continue;
        if (entries_[pos].tuple.PayloadEquals(tuple)) {
          cancel_at(pos);
          return;
        }
      }
    } else {
      for (size_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].dead && entries_[i].tuple.PayloadEquals(tuple)) {
          cancel_at(i);
          return;
        }
      }
    }
    return;
  }
  const uint64_t id = base_id_ + entries_.size();
  if (key_field_ >= 0) {
    index_.emplace(tuple.cell(static_cast<size_t>(key_field_)), id);
  }
  entries_.push_back(Entry{tuple, lineage, false});
  ++live_;
  const int64_t bytes = static_cast<int64_t>(tuple.ApproxBytes());
  resident_bytes_ += bytes;
  stem_internal::TrackResidentBytes(bytes);
  TCQ_METRIC(stem_internal::AggregateMetrics::Get().inserts->Add(1));
}

size_t SteM::EvictBefore(Timestamp ts) {
  size_t n = 0;
  for (Entry& e : entries_) {
    if (e.dead || e.tuple.timestamp() >= ts) continue;
    if (spool_ != nullptr) {
      // Demote rather than free: expired join state stays replayable.
      // Append routes any out-of-timestamp-order demotion to the spool's
      // late run, so this arrival-order sweep needs no sorting.
      TCQ_CHECK(spool_->Append(spool_key_, e.tuple).ok())
          << name_ << ": spool demotion failed";
    }
    Tombstone(e);
    ++n;
    TCQ_METRIC(stem_internal::AggregateMetrics::Get().evictions->Add(1));
  }
  CompactFront();
  return n;
}

std::vector<SteM::ExtractedEntry> SteM::CopyAll() const {
  std::vector<ExtractedEntry> out;
  out.reserve(live_);
  for (const Entry& e : entries_) {
    if (!e.dead) out.push_back(ExtractedEntry{e.tuple, e.lineage});
  }
  return out;
}

void SteM::ClearAll() {
  for (Entry& e : entries_) {
    if (!e.dead) Tombstone(e);
  }
  CompactFront();
}

void SteM::ScrubQuery(size_t q) {
  for (Entry& e : entries_) {
    if (!e.dead && q < e.lineage.size_bits()) e.lineage.Clear(q);
  }
}

void SteM::CompactFront() {
  while (!entries_.empty() && entries_.front().dead) {
    if (key_field_ >= 0) {
      const Value& key =
          entries_.front().tuple.cell(static_cast<size_t>(key_field_));
      auto [b, e] = index_.equal_range(key);
      for (auto it = b; it != e;) {
        it = (it->second == base_id_) ? index_.erase(it) : std::next(it);
      }
    }
    entries_.pop_front();
    ++base_id_;
  }
}

}  // namespace tcq
