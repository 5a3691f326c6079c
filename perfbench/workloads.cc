// The three workloads: input feeds, query sets and their references.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "ingress/sources.h"
#include "testing/disorder.h"

namespace perfbench {

using tcq::BinaryOp;
using tcq::Timestamp;
using tcq::Tuple;
using tcq::Value;
using tcq::ValueType;

// ------------------------------------------------------------ Hashing

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0x6E756C6CULL;
    case ValueType::kBool:
      return Mix(v.bool_value() ? 3 : 2);
    case ValueType::kInt64:
      return Mix(static_cast<uint64_t>(v.int64_value()) ^ 0x1111);
    case ValueType::kDouble: {
      double d = v.double_value();
      if (d == 0.0) d = 0.0;  // One image for +0 and -0.
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix(bits ^ 0x2222);
    }
    case ValueType::kString: {
      uint64_t h = 1469598103934665603ULL;  // FNV-1a.
      for (unsigned char c : v.string_value()) {
        h = (h ^ c) * 1099511628211ULL;
      }
      return Mix(h ^ 0x3333);
    }
  }
  return 0;
}

uint64_t HashRow(const Value* cells, size_t n, Timestamp t) {
  uint64_t h = Mix(static_cast<uint64_t>(t));
  for (size_t i = 0; i < n; ++i) h = Mix(h ^ HashValue(cells[i]));
  return h;
}

// -------------------------------------------------------- Filter atoms

namespace {

bool CompareOk(int cmp, BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    case BinaryOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

const char* OpText(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    default:
      return "?";
  }
}

std::string LiteralText(const Value& v) {
  char buf[64];
  switch (v.type()) {
    case ValueType::kInt64:
      return std::to_string(v.int64_value());
    case ValueType::kDouble:
      // Constants are multiples of 1/4, so two decimals are exact.
      std::snprintf(buf, sizeof(buf), "%.2f", v.double_value());
      return buf;
    case ValueType::kString:
      return "'" + v.string_value() + "'";
    default:
      return "NULL";
  }
}

}  // namespace

bool Atom::Eval(const Tuple& t) const {
  const Value& cell = t.cell(column);
  // Typed fast paths keep the reference cheap enough to check every
  // delivered row of a saturated run.
  if (cell.type() == ValueType::kDouble &&
      constant.type() == ValueType::kDouble) {
    const double a = cell.double_value(), b = constant.double_value();
    return CompareOk(a < b ? -1 : (a > b ? 1 : 0), op);
  }
  if (cell.type() == ValueType::kInt64 &&
      constant.type() == ValueType::kInt64) {
    const int64_t a = cell.int64_value(), b = constant.int64_value();
    return CompareOk(a < b ? -1 : (a > b ? 1 : 0), op);
  }
  return CompareOk(cell.Compare(constant), op);
}

std::string FilterSql(const StreamInfo& stream, const std::vector<Atom>& atoms,
                      const std::vector<size_t>& projection) {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < projection.size(); ++i) {
    if (i != 0) sql += ", ";
    sql += stream.schema->field(projection[i]).name;
  }
  sql += " FROM " + stream.name + " WHERE ";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i != 0) sql += " AND ";
    sql += stream.schema->field(atoms[i].column).name + " " +
           OpText(atoms[i].op) + " " + LiteralText(atoms[i].constant);
  }
  return sql;
}

// --------------------------------------------------- Filter reference

namespace {

class FilterReference : public Reference {
 public:
  FilterReference(std::vector<Atom> atoms, std::vector<size_t> projection)
      : atoms_(std::move(atoms)), projection_(std::move(projection)) {}

  void OnTuple(const Tuple& t) override {
    for (const Atom& a : atoms_) {
      if (!a.Eval(t)) return;
    }
    Value cells[8];
    for (size_t i = 0; i < projection_.size(); ++i) {
      cells[i] = t.cell(projection_[i]);
    }
    digest_.Add(HashRow(cells, projection_.size(), t.timestamp()), false);
  }

  Digest Expected(const std::vector<Timestamp>&) override { return digest_; }

 private:
  std::vector<Atom> atoms_;
  std::vector<size_t> projection_;
  Digest digest_;
};

}  // namespace

std::shared_ptr<Reference> MakeFilterReference(std::vector<Atom> atoms,
                                               std::vector<size_t> projection) {
  return std::make_shared<FilterReference>(std::move(atoms),
                                           std::move(projection));
}

// ------------------------------------------------------------- Feeds

namespace {

/// ClosingStockPrices from StockTickerSource, restarted every
/// `epoch_days` with a fresh seed so prices stay in the same range for
/// the whole run (a single random walk would drift, and with it every
/// range predicate's selectivity). Prices are snapped to a 1/64 tick:
/// sums of ticks are exact in double, so the windowed reference matches
/// the engine's aggregates bit for bit whatever order it adds in.
class StockFeed {
 public:
  StockFeed(uint64_t seed, size_t symbols, int64_t epoch_days)
      : seed_(seed), symbols_(symbols), epoch_days_(epoch_days) {}

  Tuple Next() {
    if (src_ == nullptr || left_in_epoch_ == 0) {
      ++epoch_;
      tcq::StockTickerSource::Options o;
      o.num_symbols = symbols_;
      o.num_days = epoch_days_;
      o.seed = Mix(seed_ ^ Mix(static_cast<uint64_t>(epoch_)));
      src_ = std::make_unique<tcq::StockTickerSource>(o);
      left_in_epoch_ = static_cast<int64_t>(symbols_) * epoch_days_;
    }
    --left_in_epoch_;
    const Tuple t = *src_->Next();
    const int64_t day = epoch_ * epoch_days_ + t.cell(0).int64_value();
    const double price = std::round(t.cell(2).double_value() * 64.0) / 64.0;
    return Tuple::Make({Value::Int64(day), t.cell(1), Value::Double(price)},
                       day);
  }

 private:
  uint64_t seed_;
  size_t symbols_;
  int64_t epoch_days_;
  int64_t epoch_ = -1;
  int64_t left_in_epoch_ = 0;
  std::unique_ptr<tcq::StockTickerSource> src_;
};

/// Packets from PacketSource, disordered by InjectDisorder in fixed
/// blocks (the block grid, not the caller's batch sizes, decides the
/// arrival order, so the feed is a pure function of the seed). Within a
/// block the bound holds by InjectDisorder's construction; across blocks
/// every timestamp of the next block exceeds every one of this block.
class PacketFeed {
 public:
  PacketFeed(uint64_t seed, Timestamp max_disorder)
      : seed_(seed), max_disorder_(max_disorder), src_(SourceOptions(seed)) {}

  Tuple Next() {
    if (pos_ == block_.size()) Refill();
    return block_[pos_++];
  }

 private:
  static constexpr size_t kBlock = 4096;

  static tcq::PacketSource::Options SourceOptions(uint64_t seed) {
    tcq::PacketSource::Options o;
    o.num_hosts = 256;
    o.num_ports = 64;
    o.host_skew = 1.1;
    o.seed = Mix(seed ^ 0x5041434BULL);
    return o;
  }

  void Refill() {
    std::vector<Tuple> block;
    block.reserve(kBlock);
    for (size_t i = 0; i < kBlock; ++i) block.push_back(*src_.Next());
    tcq::DisorderOptions d;
    d.max_disorder = max_disorder_;
    d.jitter_rate = 0.5;
    d.seed = Mix(seed_ ^ ++blocks_);
    block_ = tcq::InjectDisorder(std::move(block), d);
    pos_ = 0;
  }

  uint64_t seed_;
  Timestamp max_disorder_;
  tcq::PacketSource src_;
  std::vector<Tuple> block_;
  size_t pos_ = 0;
  uint64_t blocks_ = 0;
};

Atom MakeAtom(size_t column, BinaryOp op, Value constant) {
  Atom a;
  a.column = column;
  a.op = op;
  a.constant = std::move(constant);
  return a;
}

/// Uniform multiple of 1/4 in [lo, lo + span).
double QuarterIn(tcq::Rng* rng, int lo, int span) {
  return lo + static_cast<double>(rng->NextBounded(
                  static_cast<uint64_t>(span) * 4)) / 4.0;
}

// Stock schema columns.
constexpr size_t kDay = 0, kSymbol = 1, kPrice = 2;
// Packet schema columns.
constexpr size_t kSrc = 1, kDst = 2, kPort = 3, kBytes = 4;

// ---------------------------------------------------- filters_inline

/// ~1k standing single-stream filters over one stock stream, inline.
/// Three shapes share the GroupedFilter index: symbol equality (most name
/// symbols that never trade, as a large real watch list would), narrow
/// price ranges, and symbol + price-floor conjunctions.
class FiltersInline : public Workload {
 public:
  static constexpr size_t kSymbols = 64;  // One day per 64-tuple batch.
  static constexpr size_t kQueries = 1000;

  explicit FiltersInline(uint64_t seed)
      : seed_(seed), feed_(seed, kSymbols, 256) {
    streams_.push_back({"ClosingStockPrices",
                        tcq::StockTickerSource::MakeSchema(), 0, -1});
  }

  const char* name() const override { return "filters_inline"; }

  tcq::Server::Options ServerOptions(const std::string&) const override {
    tcq::Server::Options o;
    o.cacq_shards = 1;
    o.retention_span = 256;  // Days: bounds the archive.
    return o;
  }
  // About a sixth of the saturated rate, which falls by up to a third
  // over a run as churn piles up query ids (README.md, Steadiness).
  double offered_rate() const override { return 50000.0; }
  size_t warmup_batches() const override { return 512; }
  size_t chunk_batches() const override { return 128; }
  double churn_rate() const override { return 250.0; }

  std::vector<QuerySpec> StandingQueries() override {
    tcq::Rng rng(Mix(0xF1));
    std::vector<QuerySpec> out;
    for (size_t i = 0; i < kQueries; ++i) out.push_back(Make(i, &rng));
    return out;
  }

  QuerySpec ChurnQuery(uint64_t i) override {
    tcq::Rng rng(Mix(seed_ ^ Mix(i ^ 0xC4)));
    return Make(i, &rng);
  }

  void Generate(size_t n, std::vector<Batch>* out) override {
    for (size_t b = 0; b < n; ++b) {
      Batch batch;
      batch.tuples.reserve(kBatchTuples);
      for (size_t i = 0; i < kBatchTuples; ++i) {
        batch.tuples.push_back(feed_.Next());
      }
      out->push_back(std::move(batch));
    }
  }

 private:
  QuerySpec Make(size_t i, tcq::Rng* rng) {
    std::vector<Atom> atoms;
    std::vector<size_t> projection;
    switch (i % 3) {
      case 0:  // Symbol equality over a 256-name watch list.
        atoms.push_back(MakeAtom(
            kSymbol, BinaryOp::kEq,
            Value::String(
                tcq::StockTickerSource::SymbolName(rng->NextBounded(256)))));
        projection = {kPrice};
        break;
      case 1: {  // Narrow price band.
        const double lo = QuarterIn(rng, 20, 60);
        atoms.push_back(MakeAtom(kPrice, BinaryOp::kGt, Value::Double(lo)));
        atoms.push_back(
            MakeAtom(kPrice, BinaryOp::kLt, Value::Double(lo + 0.25)));
        projection = {kSymbol, kPrice};
        break;
      }
      default: {  // Symbol and price floor.
        atoms.push_back(MakeAtom(
            kSymbol, BinaryOp::kEq,
            Value::String(tcq::StockTickerSource::SymbolName(
                rng->NextBounded(kSymbols)))));
        atoms.push_back(MakeAtom(kPrice, BinaryOp::kGt,
                                 Value::Double(QuarterIn(rng, 40, 40))));
        projection = {kDay, kPrice};
        break;
      }
    }
    QuerySpec q;
    q.sql = FilterSql(streams_[0], atoms, projection);
    q.streams = {0};
    q.atoms = atoms;
    q.reference = MakeFilterReference(std::move(atoms), std::move(projection));
    return q;
  }

  uint64_t seed_;
  StockFeed feed_;
};

// -------------------------------------------------- sharded_disorder

/// A network monitor over a Zipf-skewed packet stream, two shards,
/// bounded disorder. Three of four standing filters are kDelayed, the
/// rest kSpeculative, so both consistency lanes are scattered.
class ShardedDisorder : public Workload {
 public:
  static constexpr size_t kQueries = 64;
  static constexpr Timestamp kDisorder = 64;

  explicit ShardedDisorder(uint64_t seed)
      : seed_(seed), feed_(seed, kDisorder) {
    streams_.push_back(
        {"Packets", tcq::PacketSource::MakeSchema(), 0, static_cast<int>(kSrc)});
  }

  const char* name() const override { return "sharded_disorder"; }

  tcq::Server::Options ServerOptions(const std::string&) const override {
    tcq::Server::Options o;
    o.cacq_shards = 2;  // Generator + 2 shards + egress = 4 threads.
    o.max_disorder = kDisorder;
    o.late_policy = tcq::LatePolicy::kReject;
    o.retention_span = 1 << 14;
    return o;
  }
  Timestamp max_disorder() const override { return kDisorder; }
  double offered_rate() const override { return 150000.0; }
  size_t warmup_batches() const override { return 1024; }
  // Lower than the inline workloads: a sharded Cancel is a barrier
  // through every shard.
  double churn_rate() const override { return 50.0; }
  size_t chunk_batches() const override { return 256; }
  size_t churn_live() const override { return 4; }

  std::vector<QuerySpec> StandingQueries() override {
    tcq::Rng rng(Mix(seed_ ^ 0xD1));
    std::vector<QuerySpec> out;
    for (size_t i = 0; i < kQueries; ++i) out.push_back(Make(i, &rng));
    return out;
  }

  QuerySpec ChurnQuery(uint64_t i) override {
    tcq::Rng rng(Mix(seed_ ^ Mix(i ^ 0xD4)));
    return Make(i, &rng);
  }

  void Generate(size_t n, std::vector<Batch>* out) override {
    for (size_t b = 0; b < n; ++b) {
      Batch batch;
      batch.tuples.reserve(kBatchTuples);
      for (size_t i = 0; i < kBatchTuples; ++i) {
        batch.tuples.push_back(feed_.Next());
      }
      out->push_back(std::move(batch));
    }
  }

 private:
  QuerySpec Make(size_t i, tcq::Rng* rng) {
    std::vector<Atom> atoms;
    std::vector<size_t> projection;
    switch (i % 3) {
      case 0:  // One talker (Zipf-hot addresses dominate).
        atoms.push_back(MakeAtom(
            kSrc, BinaryOp::kEq,
            Value::Int64(static_cast<int64_t>(rng->NextBounded(32)))));
        projection = {kDst, kBytes};
        break;
      case 1: {  // Port watch with a size floor.
        atoms.push_back(MakeAtom(
            kPort, BinaryOp::kEq,
            Value::Int64(static_cast<int64_t>(rng->NextBounded(16)))));
        atoms.push_back(MakeAtom(
            kBytes, BinaryOp::kGt,
            Value::Int64(static_cast<int64_t>(rng->NextBounded(1400)))));
        projection = {kSrc};
        break;
      }
      default: {  // Packet-size band.
        const int64_t lo = 40 + static_cast<int64_t>(rng->NextBounded(1400));
        atoms.push_back(MakeAtom(kBytes, BinaryOp::kGt, Value::Int64(lo)));
        atoms.push_back(MakeAtom(kBytes, BinaryOp::kLt, Value::Int64(lo + 24)));
        projection = {kSrc, kDst};
        break;
      }
    }
    QuerySpec q;
    q.sql = FilterSql(streams_[0], atoms, projection);
    q.consistency = i % 4 == 3 ? tcq::Consistency::kSpeculative
                               : tcq::Consistency::kDelayed;
    q.streams = {0};
    q.atoms = atoms;
    q.reference = MakeFilterReference(std::move(atoms), std::move(projection));
    return q;
  }

  uint64_t seed_;
  PacketFeed feed_;
};

// -------------------------------------------------- windowed_history

/// Prices of every (stream, day, symbol) pushed so far: the input of the
/// brute-force window reference. Days are dense and every day carries
/// every symbol, so a flat vector indexed by (day - 1) * symbols + symbol
/// holds it.
struct PriceStore {
  size_t symbols = 0;
  std::vector<std::vector<double>> prices;  // Per stream.

  double At(size_t stream, int64_t day, size_t sym) const {
    return prices[stream][static_cast<size_t>(day - 1) * symbols + sym];
  }
};

/// Brute-force evaluation of one windowed query shape over PriceStore:
/// for every window the engine must have fired (right end t = 1, 1 + hop,
/// ... below the footprint's final watermark), the rows the query's SQL
/// defines, hashed exactly as the engine's output is.
class WindowReference : public Reference {
 public:
  enum class Shape {
    kSymbolAvg,    // SELECT AVG(price) WHERE symbol = S_k.
    kGroupMaxMin,  // SELECT symbol, MAX(price), MIN(price) GROUP BY symbol.
    kJoin,         // c JOIN o ON symbol.
    kCountAvg,     // SELECT COUNT(*), AVG(price).
  };

  WindowReference(std::shared_ptr<const PriceStore> store, Shape shape,
                  std::vector<size_t> streams, int64_t width, int64_t hop,
                  size_t symbol)
      : store_(std::move(store)),
        shape_(shape),
        streams_(std::move(streams)),
        width_(width),
        hop_(hop),
        symbol_(symbol) {}

  Digest Expected(const std::vector<Timestamp>& final_watermark) override {
    Timestamp wm = tcq::kMaxTimestamp;
    for (size_t s : streams_) wm = std::min(wm, final_watermark[s]);
    Digest d;
    for (int64_t t = 1; t < wm; t += hop_) {
      const int64_t lo = std::max<int64_t>(1, t - width_ + 1);
      Window(lo, t, &d);
    }
    return d;
  }

 private:
  void Window(int64_t lo, int64_t t, Digest* d) const {
    const PriceStore& ps = *store_;
    const size_t s0 = streams_[0];
    switch (shape_) {
      case Shape::kSymbolAvg: {
        double sum = 0;
        for (int64_t day = lo; day <= t; ++day) sum += ps.At(s0, day, symbol_);
        const Value row[] = {Value::Double(sum / static_cast<double>(t - lo + 1))};
        d->Add(HashRow(row, 1, t), false);
        break;
      }
      case Shape::kGroupMaxMin:
        for (size_t sym = 0; sym < ps.symbols; ++sym) {
          double mx = ps.At(s0, lo, sym), mn = mx;
          for (int64_t day = lo + 1; day <= t; ++day) {
            mx = std::max(mx, ps.At(s0, day, sym));
            mn = std::min(mn, ps.At(s0, day, sym));
          }
          const Value row[] = {
              Value::String(tcq::StockTickerSource::SymbolName(sym)),
              Value::Double(mx), Value::Double(mn)};
          d->Add(HashRow(row, 3, t), false);
        }
        break;
      case Shape::kJoin: {
        const size_t s1 = streams_[1];
        for (size_t sym = 0; sym < ps.symbols; ++sym) {
          const Value name =
              Value::String(tcq::StockTickerSource::SymbolName(sym));
          for (int64_t dc = lo; dc <= t; ++dc) {
            const double pc = ps.At(s0, dc, sym);
            for (int64_t dn = lo; dn <= t; ++dn) {
              const Value row[] = {name, Value::Double(pc),
                                   Value::Double(ps.At(s1, dn, sym))};
              d->Add(HashRow(row, 3, t), false);
            }
          }
        }
        break;
      }
      case Shape::kCountAvg: {
        double sum = 0;
        for (int64_t day = lo; day <= t; ++day) {
          for (size_t sym = 0; sym < ps.symbols; ++sym) sum += ps.At(s0, day, sym);
        }
        const int64_t n = (t - lo + 1) * static_cast<int64_t>(ps.symbols);
        const Value row[] = {Value::Int64(n),
                             Value::Double(sum / static_cast<double>(n))};
        d->Add(HashRow(row, 2, t), false);
        break;
      }
    }
  }

  std::shared_ptr<const PriceStore> store_;
  Shape shape_;
  std::vector<size_t> streams_;
  int64_t width_, hop_;
  size_t symbol_;
};

/// §4.1 windows over two stock streams with a disk spool: per-symbol
/// sliding averages, hopping per-symbol extremes, windowed equi-joins on
/// symbol, and one hopping window reaching 16x further back than the
/// archive's resident tail, so its scans read through the spool.
class WindowedHistory : public Workload {
 public:
  static constexpr size_t kSymbols = 16;  // Four days per 64-tuple batch.

  explicit WindowedHistory(uint64_t seed)
      : seed_(seed), store_(std::make_shared<PriceStore>()) {
    streams_.push_back({"ClosingStockPrices",
                        tcq::StockTickerSource::MakeSchema(), 0, -1});
    streams_.push_back({"OpeningStockPrices",
                        tcq::StockTickerSource::MakeSchema(), 0, -1});
    feeds_.emplace_back(Mix(seed ^ 0xA1), kSymbols, 256);
    feeds_.emplace_back(Mix(seed ^ 0xB2), kSymbols, 256);
    store_->symbols = kSymbols;
    store_->prices.resize(2);
  }

  const char* name() const override { return "windowed_history"; }

  tcq::Server::Options ServerOptions(
      const std::string& spool_dir) const override {
    tcq::Server::Options o;
    o.cacq_shards = 1;
    o.retention_span = 512;  // Days; twice the deepest window.
    o.spool_dir = spool_dir;
    o.spool_resident_tuples = 256;
    o.spool_cache_pages = 32;
    o.spool_segment_bytes = 256 << 10;
    return o;
  }
  bool uses_spool() const override { return true; }
  double offered_rate() const override { return 6000.0; }
  size_t warmup_batches() const override { return 320; }
  // 32 days per stream: every chunk fires the same window mix.
  size_t chunk_batches() const override { return 16; }
  double churn_rate() const override { return 250.0; }
  size_t churn_live() const override { return 4; }

  std::vector<QuerySpec> StandingQueries() override {
    using Shape = WindowReference::Shape;
    std::vector<QuerySpec> out;
    const std::string& c = streams_[0].name;
    const std::string& o = streams_[1].name;
    auto add = [&](std::string sql, Shape shape, std::vector<size_t> streams,
                   int64_t width, int64_t hop, size_t sym) {
      QuerySpec q;
      q.sql = std::move(sql);
      q.streams = streams;
      q.windowed = true;
      q.reference = std::make_shared<WindowReference>(
          store_, shape, std::move(streams), width, hop, sym);
      out.push_back(std::move(q));
    };
    auto window = [](const std::string& s, int64_t width) {
      return "WindowIs(" + s + ", t - " + std::to_string(width - 1) + ", t);";
    };
    auto for_loop = [](int64_t hop, const std::string& windows) {
      return " for (t = ST; true; t += " + std::to_string(hop) + ") { " +
             windows + " }";
    };
    // Sliding per-symbol averages: every day, one query per symbol.
    for (size_t sym = 0; sym < kSymbols; ++sym) {
      add("SELECT AVG(closingPrice) FROM " + c + " WHERE stockSymbol = '" +
              tcq::StockTickerSource::SymbolName(sym) + "'" +
              for_loop(1, window(c, 10)),
          Shape::kSymbolAvg, {0}, 10, 1, sym);
    }
    // Hopping per-symbol extremes.
    for (int64_t width : {20, 30, 40, 50}) {
      add("SELECT stockSymbol, MAX(closingPrice), MIN(closingPrice) FROM " + o +
              " GROUP BY stockSymbol" + for_loop(5, window(o, width)),
          Shape::kGroupMaxMin, {1}, width, 5, 0);
    }
    // Windowed equi-joins on symbol.
    for (int64_t width : {2, 3, 4, 6}) {
      add("SELECT c.stockSymbol, c.closingPrice, o.closingPrice FROM " + c +
              " as c, " + o +
              " as o WHERE c.stockSymbol = o.stockSymbol" +
              for_loop(width, window("c", width) + " " + window("o", width)),
          Shape::kJoin, {0, 1}, width, width, 0);
    }
    // Deep history: 256 days = 4096 tuples, 16x the resident tail.
    add("SELECT COUNT(*), AVG(closingPrice) FROM " + c +
            for_loop(32, window(c, 256)),
        Shape::kCountAvg, {0}, 256, 32, 0);
    return out;
  }

  /// Churn: standing filters on the first stream, so Submit/Cancel write
  /// the shared eddy's GroupedFilter index beside the windowed ingest.
  QuerySpec ChurnQuery(uint64_t i) override {
    tcq::Rng rng(Mix(seed_ ^ Mix(i ^ 0xE5)));
    std::vector<Atom> atoms = {
        MakeAtom(kSymbol, BinaryOp::kEq,
                 Value::String(tcq::StockTickerSource::SymbolName(
                     rng.NextBounded(kSymbols)))),
        MakeAtom(kPrice, BinaryOp::kGt, Value::Double(QuarterIn(&rng, 40, 40)))};
    std::vector<size_t> projection = {kDay, kPrice};
    QuerySpec q;
    q.sql = FilterSql(streams_[0], atoms, projection);
    q.streams = {0};
    q.atoms = atoms;
    q.reference = MakeFilterReference(std::move(atoms), std::move(projection));
    return q;
  }

  void OnPushed(const Batch& batch) override {
    for (const Tuple& t : batch.tuples) {
      store_->prices[batch.stream].push_back(t.cell(kPrice).double_value());
    }
  }

  /// Alternates the two streams batch by batch; each batch is four whole
  /// days of one stream.
  void Generate(size_t n, std::vector<Batch>* out) override {
    for (size_t b = 0; b < n; ++b) {
      Batch batch;
      batch.stream = next_stream_;
      batch.tuples.reserve(kBatchTuples);
      for (size_t i = 0; i < kBatchTuples; ++i) {
        batch.tuples.push_back(feeds_[next_stream_].Next());
      }
      next_stream_ ^= 1;
      out->push_back(std::move(batch));
    }
  }

 private:
  uint64_t seed_;
  std::vector<StockFeed> feeds_;
  size_t next_stream_ = 0;
  std::shared_ptr<PriceStore> store_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "filters_inline") return std::make_unique<FiltersInline>(seed);
  if (name == "windowed_history") {
    return std::make_unique<WindowedHistory>(seed);
  }
  if (name == "sharded_disorder") {
    return std::make_unique<ShardedDisorder>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
