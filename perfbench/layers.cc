// Standalone layer replays for the traced run: the workload's own input
// (a fresh feed with the same seed) timed through one public layer class
// at a time. Each replay measures what that layer costs per tuple with
// nothing else running, which main.cc sets against the PushBatch span
// to show how much of the end-to-end path the layers account for.

#include <filesystem>
#include <map>

#include "bench.h"
#include "cacq/engine.h"
#include "common/bitset.h"
#include "core/analyzer.h"
#include "ingress/wrapper.h"
#include "modules/grouped_filter.h"
#include "parser/parser.h"
#include "spool/spool.h"
#include "telemetry/metrics.h"

namespace perfbench {

namespace {

constexpr size_t kReplayBatches = 1024;  // 65536 tuples.
constexpr int kParseQueries = 256;

double NsPer(int64_t ns, size_t n) {
  return n == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(n);
}

/// Mean of a registry histogram's samples recorded since `before`.
double HistogramMean(const char* name, uint64_t count0, uint64_t sum0) {
  const tcq::Histogram* h = tcq::MetricRegistry::Global().GetHistogram(name);
  const uint64_t n = h->count() - count0;
  return n == 0 ? 0 : static_cast<double>(h->sum() - sum0) / static_cast<double>(n);
}

}  // namespace

double ReplayLayers(const std::string& workload, uint64_t seed,
                    const std::string& tmp_dir, std::vector<Metric>* out) {
  std::unique_ptr<Workload> w = MakeWorkload(workload, seed);
  const auto& streams = w->streams();
  const std::string dir = tmp_dir + "/replay-" + workload + "-" +
                          std::to_string(NowNs());
  const tcq::Server::Options opts = w->ServerOptions(dir);
  std::vector<Batch> batches;
  w->Generate(kReplayBatches, &batches);
  size_t n = 0;
  for (const Batch& b : batches) n += b.tuples.size();

  // Ingress: the reorder buffer, in arrival order.
  std::vector<tcq::ReorderBuffer> reorder(streams.size());
  for (auto& rb : reorder) rb.set_max_disorder(w->max_disorder());
  std::vector<std::vector<tcq::Tuple>> released(streams.size());
  int64_t t0 = NowNs();
  for (const Batch& b : batches) {
    for (const tcq::Tuple& t : b.tuples) reorder[b.stream].Offer(t, &released[b.stream]);
  }
  const double reorder_ns = NsPer(NowNs() - t0, n);
  for (size_t s = 0; s < streams.size(); ++s) reorder[s].Flush(&released[s]);

  // Ingress: the resident archive, in release order.
  {
    std::vector<std::unique_ptr<tcq::Archive>> archives;
    for (size_t s = 0; s < streams.size(); ++s) {
      archives.push_back(std::make_unique<tcq::Archive>(opts.retention_span));
    }
    t0 = NowNs();
    for (size_t s = 0; s < streams.size(); ++s) {
      for (const tcq::Tuple& t : released[s]) archives[s]->Append(t);
    }
    out->push_back({"ingress.archive_append_ns_per_tuple", NsPer(NowNs() - t0, n), "ns"});
  }
  const double archive_ns = out->back().value;

  // Spool: an archive demoting to a spool (the workload's spool settings,
  // or the server defaults where the workload runs without one), then a
  // scan of its oldest half, which reads back through the page cache.
  double spool_archive_ns = 0;
  {
    tcq::Server::Options spool_opts =
        w->uses_spool() ? opts : tcq::Server::Options();
    std::filesystem::create_directories(dir);
    tcq::Spool::Options so;
    so.dir = dir;
    so.cache_pages = spool_opts.spool_cache_pages;
    so.segment_bytes = spool_opts.spool_segment_bytes;
    auto spool = tcq::Spool::Open(so);
    if (spool.ok()) {
      tcq::Histogram* wh = tcq::MetricRegistry::Global().GetHistogram("tcq.spool.write_us");
      tcq::Histogram* rh = tcq::MetricRegistry::Global().GetHistogram("tcq.spool.read_us");
      const uint64_t wc = wh->count(), ws = wh->sum();
      std::vector<std::unique_ptr<tcq::Archive>> archives;
      for (size_t s = 0; s < streams.size(); ++s) {
        archives.push_back(std::make_unique<tcq::Archive>(opts.retention_span));
        archives[s]->AttachSpool(spool->get(), "replay." + streams[s].name,
                                 spool_opts.spool_resident_tuples);
      }
      t0 = NowNs();
      for (size_t s = 0; s < streams.size(); ++s) {
        for (const tcq::Tuple& t : released[s]) archives[s]->Append(t);
      }
      spool_archive_ns = NsPer(NowNs() - t0, n);
      const double write_us = HistogramMean("tcq.spool.write_us", wc, ws);
      const uint64_t rc = rh->count(), rs = rh->sum();
      uint64_t scanned = 0;
      for (auto& a : archives) {
        const tcq::Timestamp lo = a->min_timestamp();
        const tcq::Timestamp hi = lo + (a->max_timestamp() - lo) / 2;
        a->ScanApply(lo, hi, [&](const tcq::Tuple&) { ++scanned; });
      }
      out->push_back({"spool.write_us_mean", write_us, "us"});
      out->push_back({"spool.read_us_mean", HistogramMean("tcq.spool.read_us", rc, rs), "us"});
    }
  }
  out->push_back({"spool.archive_ns_per_tuple", spool_archive_ns, "ns"});
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // The workload's shared-eddy query set: its standing filters, or (for
  // a windowed workload) as many churn filters as it keeps live.
  std::vector<QuerySpec> filters;
  for (QuerySpec& q : w->StandingQueries()) {
    if (!q.atoms.empty()) filters.push_back(std::move(q));
  }
  if (filters.empty()) {
    for (uint64_t i = 0; i < w->churn_live(); ++i) filters.push_back(w->ChurnQuery(i));
  }
  const size_t fstream = filters[0].streams[0];

  // CACQ: one inline engine with the query set, fed in release order.
  {
    tcq::CacqEngine::Options eo;
    eo.policy = opts.policy;
    eo.seed = opts.seed;
    tcq::CacqEngine engine(eo);
    uint64_t rows = 0;
    engine.SetSink([&](tcq::QueryId, const tcq::Tuple&) { ++rows; });
    (void)engine.AddStream(streams[fstream].name, streams[fstream].schema);
    for (const QuerySpec& q : filters) {
      auto parsed = tcq::ParseQuery(q.sql);
      if (!parsed.ok()) continue;
      tcq::CacqQuerySpec spec;
      spec.sources = {streams[fstream].name};
      spec.where = parsed->where;
      spec.speculative = q.consistency == tcq::Consistency::kSpeculative;
      (void)engine.AddQuery(spec);
    }
    const std::vector<tcq::Tuple>& in = released[fstream];
    t0 = NowNs();
    for (size_t off = 0; off < in.size(); off += kBatchTuples) {
      const std::vector<tcq::Tuple> batch(
          in.begin() + static_cast<std::ptrdiff_t>(off),
          in.begin() + static_cast<std::ptrdiff_t>(std::min(in.size(), off + kBatchTuples)));
      (void)engine.InjectBatch(streams[fstream].name, batch);
    }
    out->push_back({"cacq.inject_ns_per_tuple", NsPer(NowNs() - t0, in.size()), "ns"});
  }
  // Only the stream the filters read pays for the eddy.
  const double inject_share =
      static_cast<double>(released[fstream].size()) / static_cast<double>(n);
  const double inject_ns = out->back().value * inject_share;

  // GroupedFilter: one index per filtered column, applied to every tuple.
  {
    std::map<size_t, tcq::GroupedFilter> by_column;
    for (size_t qi = 0; qi < filters.size(); ++qi) {
      for (const Atom& a : filters[qi].atoms) {
        by_column[a.column].AddPredicate(static_cast<tcq::QueryId>(qi), a.op,
                                         a.constant);
      }
    }
    tcq::SmallBitset candidates(filters.size());
    uint64_t passed = 0;
    const std::vector<tcq::Tuple>& in = released[fstream];
    t0 = NowNs();
    for (const tcq::Tuple& t : in) {
      candidates.SetAll();
      for (auto& [column, gf] : by_column) gf.Apply(t.cell(column), &candidates);
      passed += candidates.None() ? 0 : 1;
    }
    out->push_back(
        {"grouped_filter.apply_ns_per_tuple", NsPer(NowNs() - t0, in.size()), "ns"});
  }

  // Parser + analyzer on churn query text: the part of Submit that is not
  // fold-in.
  {
    tcq::Catalog catalog;
    for (const StreamInfo& s : streams) {
      tcq::StreamDef def;
      def.name = s.name;
      def.schema = s.schema;
      def.timestamp_field = s.timestamp_field;
      (void)catalog.RegisterStream(def);
    }
    std::vector<std::string> sql;
    for (int i = 0; i < kParseQueries; ++i) sql.push_back(w->ChurnQuery(1000 + i).sql);
    t0 = NowNs();
    for (const std::string& q : sql) (void)tcq::AnalyzeSql(q, catalog);
    out->push_back({"core.parse_analyze_us",
                    static_cast<double>(NowNs() - t0) / 1e3 / kParseQueries, "us"});
  }

  out->push_back({"ingress.reorder_ns_per_tuple", reorder_ns, "ns"});
  return reorder_ns + (w->uses_spool() ? spool_archive_ns : archive_ns) + inject_ns;
}

}  // namespace perfbench
