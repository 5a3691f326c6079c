// The end-to-end benchmark: one generator thread drives tcq::Server
// through set-up, an untimed warm-up, an open-loop phase at the
// workload's offered rate (result latency, Submit fold-in time), a
// saturated closed-loop phase (wall-clock throughput, drain included)
// and an untimed correctness check against the workload's references.
// Timings are also scaled to a reference host speed measured by a fixed
// probe between phases (see HostSpeed).
//
//   tcq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--tmp DIR] [--spans FILE] [--perturb-oracle]
//   tcq_perfbench --selftest
//
// Prints one JSON object on stdout (perfbench/run.py turns it into the
// report). Exit codes: 0 ok, 2 usage, 3 wrong results, 4 engine error.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "telemetry/metrics.h"
#include "telemetry/pool_metrics.h"

namespace perfbench {
namespace {

using tcq::ResultSet;
using tcq::Server;
using tcq::Timestamp;

/// The measured part of a run alternates this many open-loop segments
/// with as many saturated bursts, so both phases sample the whole run:
/// latency and Submit percentiles are taken per segment, throughput per
/// chunk.
constexpr int kRounds = 48;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool perturb_oracle = false;
  bool selftest = false;
  std::string tmp_dir = ".bench_tmp";
  std::string spans_file;
};

// ------------------------------------------------------------- Stats

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return static_cast<double>(v[rank - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// A /proc/self/status field in KiB (VmRSS, VmHWM).
double StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0;
}

/// Moves the calling thread to CPU `i` mod the CPU count. The generator
/// moves to the next CPU every round, so neither one busy host core nor
/// one placement of the server's threads around it sets the pace of a
/// whole run. Threads the server starts keep their own affinity (they
/// are created before the first call).
void PinToCpu(int i) {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(i % n, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Host steal time so far, and all CPU time, in clock ticks
/// (/proc/stat): the CPU the hypervisor gave to other guests.
std::pair<uint64_t, uint64_t> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// -------------------------------------------------------- Host speed
//
// The host this benchmark runs on is shared: within minutes the same
// binary on the same input runs up to twice as fast or slow, with no
// steal or preemption to show for it (other guests load the caches,
// memory and clock). HostSpeed times a fixed probe, code of this file
// only, never the engine's, so a change to the engine leaves it alone:
// allocation with string hashing, and random updates of a 4 MiB table.
// The timings the benchmark gates are multiplied by the speed measured
// around them (rates divided), which expresses them at the reference
// speed below; the wall-clock figures are reported beside them.

/// Probe rates of the reference host (operations per second).
constexpr double kRefAllocPerS = 3.5e6;
constexpr double kRefMemPerS = 6.5e7;

std::string ProbeKey(int i) {
  std::string k = "S";
  k += std::to_string(i);
  return k;
}

/// Small allocations and string-keyed hash lookups, as the engine's
/// tuple and index code does them.
double AllocProbeRate() {
  static const std::unordered_map<std::string, int> map = [] {
    std::unordered_map<std::string, int> m;
    for (int i = 0; i < 4096; ++i) m[ProbeKey(i)] = i;
    return m;
  }();
  constexpr int kIters = 1 << 12;
  uint64_t x = 99;
  int64_t sum = 0;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kIters; ++i) {
    x = Mix(x + static_cast<uint64_t>(i));
    std::vector<std::string> keys;
    keys.reserve(4);
    for (int k = 0; k < 4; ++k) {
      keys.push_back(ProbeKey(static_cast<int>((x >> (8 * k)) & 8191)));
    }
    for (const std::string& k : keys) {
      auto it = map.find(k);
      if (it != map.end()) sum += it->second;
    }
  }
  const int64_t t1 = NowNs();
  asm volatile("" : : "r"(sum));
  return 1e9 * kIters / static_cast<double>(t1 - t0);
}

/// Random read-modify-writes over a table larger than the private caches.
double MemProbeRate() {
  static std::vector<uint64_t> table(1 << 19, 1);  // 4 MiB.
  constexpr int kIters = 1 << 16;
  uint64_t x = 12345;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kIters; ++i) {
    x = Mix(x + static_cast<uint64_t>(i));
    table[x & (table.size() - 1)] += x >> 7;
  }
  const int64_t t1 = NowNs();
  asm volatile("" : : "r"(table.data()) : "memory");
  return 1e9 * kIters / static_cast<double>(t1 - t0);
}

/// The host's speed now relative to the reference (2 = twice as fast):
/// each probe runs once on every CPU, and the geometric mean of the two
/// probes' median rates over the reference rates is returned. About 10 ms;
/// the caller's CPU affinity is restored.
double HostSpeed() {
  cpu_set_t saved;
  const bool restore = sched_getaffinity(0, sizeof(saved), &saved) == 0;
  const int n = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<double> alloc, mem;
  for (int i = 0; i < n; ++i) {
    PinToCpu(i);
    alloc.push_back(AllocProbeRate());
    mem.push_back(MemProbeRate());
  }
  if (restore) sched_setaffinity(0, sizeof(saved), &saved);
  return std::sqrt(Median(alloc) / kRefAllocPerS * Median(mem) / kRefMemPerS);
}

/// Registry values by name (counter/gauge value, histogram count).
std::map<std::string, double> RegistryValues() {
  tcq::PublishPoolMetrics();
  std::map<std::string, double> out;
  for (const tcq::MetricSample& s : tcq::MetricRegistry::Global().Snapshot()) {
    out[s.name] = s.value;
  }
  return out;
}

double Delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------- Spans

enum SpanName : uint8_t { kPush, kQuiesce, kSubmit, kCancel, kCallback };
const char* const kSpanNames[] = {"PushBatch", "Quiesce", "Submit", "Cancel",
                                  "callback"};

/// A span around one of the benchmark's calls into the public API.
/// `batch` is the input batch that caused it (for a callback: the batch
/// that carried its last contributing tuple; -1 if none).
struct Span {
  SpanName name;
  int64_t start_ns, end_ns;
  int64_t batch;
};

/// Callback time spent on this thread: inline callbacks run inside
/// PushBatch, and a push span's self time excludes them.
thread_local int64_t tl_callback_ns = 0;

// --------------------------------------------------------- Run state

enum class Phase : int { kSetup, kWarmup, kOpen, kSaturated, kCheck };

/// Read by result callbacks, which run on the generator thread (inline)
/// or on the egress thread (sharded). Everything but the atomics is
/// written before the phase that reads it starts.
struct RunState {
  std::atomic<int> phase{static_cast<int>(Phase::kSetup)};
  std::atomic<bool> tracing{false};
  // Open-loop latency attribution, per stream over [ts_lo, ts_lo + n):
  // `exact` = last open-loop batch carrying the timestamp, `prefix` = last
  // batch carrying any timestamp at or below it, `release` = first batch
  // after which the stream's highest timestamp passes it by the disorder
  // bound, so the reorder buffer lets it go (-1 = none).
  std::vector<Timestamp> ts_lo;
  std::vector<std::vector<int32_t>> exact, prefix, release;
  int64_t open_start_ns = 0;
  int64_t interval_ns = 0;

  int64_t Lookup(const std::vector<int32_t>& v, size_t s, Timestamp t,
                 bool clamp_high) const {
    if (t < ts_lo[s]) return -1;
    const auto i = static_cast<size_t>(t - ts_lo[s]);
    if (i >= v.size()) return clamp_high && !v.empty() ? v.back() : -1;
    return v[i];
  }
  /// The open-loop batch that carried the result's last contributing
  /// tuple: for a filter row the tuple with timestamp t, for a window
  /// (right end t) the last tuple at or below t on any stream it reads.
  int64_t CarryingBatch(const QuerySpec& q, Timestamp t) const {
    if (!q.windowed) return Lookup(exact[q.streams[0]], q.streams[0], t, false);
    int64_t best = -1;
    for (size_t s : q.streams) best = std::max(best, Lookup(prefix[s], s, t, true));
    return best;
  }
  /// The part of a result's latency the input schedule sets rather than
  /// the host: a disordered row waits in the reorder buffer until the
  /// batch that releases it is due. All of it when that batch is not in
  /// the segment; 0 for windows (their workloads are in order).
  int64_t ScheduleWaitNs(const QuerySpec& q, Timestamp t, int64_t carry) const {
    if (q.windowed || release.empty()) return 0;
    const int64_t r = Lookup(release[q.streams[0]], q.streams[0], t, false);
    if (r < 0) return std::numeric_limits<int64_t>::max();
    return std::max<int64_t>(0, r - carry) * interval_ns;
  }
};

/// Per-query delivery record. Written only by the thread running the
/// query's callbacks; read by the generator after a Quiesce.
struct LatencySample {
  int32_t batch;  // Open-loop batch that carried the last contributing tuple.
  int64_t ns;     // Callback time minus that batch's due time.
  int64_t wait_ns;  // Of which the input schedule sets (ScheduleWaitNs).
};

struct Recorder {
  const QuerySpec* spec = nullptr;
  Digest digest;
  uint64_t result_sets = 0;
  std::vector<LatencySample> latency;
  std::vector<Span> spans;
};

Server::Callback MakeCallback(RunState* run, Recorder* rec) {
  return [run, rec](const ResultSet& rs) {
    const bool open = run->phase.load(std::memory_order_acquire) ==
                      static_cast<int>(Phase::kOpen);
    const bool tracing = run->tracing.load(std::memory_order_relaxed);
    const int64_t t0 = (open || tracing) ? NowNs() : 0;
    for (const tcq::Tuple& row : rs.rows) {
      rec->digest.Add(HashRow(row, rs.t), row.retraction());
    }
    ++rec->result_sets;
    if (!open && !tracing) return;
    const int64_t batch = open ? run->CarryingBatch(*rec->spec, rs.t) : -1;
    if (open && batch >= 0) {
      const int64_t ns = t0 - (run->open_start_ns + batch * run->interval_ns);
      rec->latency.push_back(
          {static_cast<int32_t>(batch), ns,
           std::min(ns, run->ScheduleWaitNs(*rec->spec, rs.t, batch))});
    }
    if (tracing) {
      const int64_t t1 = NowNs();
      tl_callback_ns += t1 - t0;
      // Callback spans are kept for one open-loop batch in 16.
      if (open && batch >= 0 && batch % 16 == 0) {
        rec->spans.push_back({kCallback, t0, t1, batch});
      }
    }
  };
}

struct LiveQuery {
  const QuerySpec* spec = nullptr;
  tcq::QueryId id = 0;
  Recorder* rec = nullptr;
  bool churn = false;
};

// ------------------------------------------------------------- Bench

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args),
        workload_(MakeWorkload(args.workload, args.seed)),
        oracle_(workload_.get()) {
    const Server::Options probe = workload_->ServerOptions("");
    // Churn results are checked where they are deterministic: inline and
    // in order. Sharded Cancel drops in-flight emissions by design, and
    // a disordered stream's reorder buffer hands a new query tuples that
    // arrived before its Submit.
    churn_checked_ = probe.cacq_shards == 1 && workload_->max_disorder() == 0;
    // Threads busy during a run: the generator, plus shards and the
    // egress thread when sharded.
    const size_t busy = 1 + (probe.cacq_shards > 1 ? probe.cacq_shards + 1 : 0);
    spin_wait_ = busy < std::thread::hardware_concurrency();
    wm_.assign(workload_->streams().size(), tcq::kMinTimestamp);
  }

  ~Bench() {
    server_.reset();  // Stop shard/egress threads before recorders die.
    std::error_code ec;
    for (const std::string& d : dirs_) std::filesystem::remove_all(d, ec);
  }

  int Run();

 private:
  std::string NewDir() {
    std::string d = args_.tmp_dir + "/" + workload_->name() + "-" +
                    std::to_string(getpid()) + "-" + std::to_string(dirs_.size());
    dirs_.push_back(d);
    return d;
  }
  Recorder* NewRecorder(const QuerySpec* spec) {
    recorders_.push_back(std::make_unique<Recorder>());
    recorders_.back()->spec = spec;
    return recorders_.back().get();
  }
  bool Fail(const std::string& what, const tcq::Status& st) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                 st.ToString().c_str());
    return false;
  }

  bool SetUp(bool keep);
  bool Push(Batch* batch);
  bool PushChunk(std::vector<Batch>* chunk);
  bool Quiesce();
  bool WarmUp();
  const QuerySpec* NewChurnSpec();
  bool SubmitChurn(const QuerySpec* spec, bool timed);
  bool CancelChurn();
  bool OpenSegment(double seconds);
  void SummarizeSegment(double speed);
  bool SaturatedBurst(double seconds);
  bool Check();
  void Trace(SpanName name, int64_t start, int64_t end, int64_t batch) {
    if (run_.tracing.load(std::memory_order_relaxed)) {
      spans_.push_back({name, start, end, batch});
    }
  }
  void Emit(bool correct);

  Args args_;
  std::unique_ptr<Workload> workload_;
  Oracle oracle_;
  bool churn_checked_ = false;
  bool spin_wait_ = false;  // Open loop: spin (not sleep) until due.
  RunState run_;
  std::vector<std::string> dirs_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
  std::vector<QuerySpec> standing_;
  std::deque<QuerySpec> churn_specs_;  // Address-stable.
  std::vector<LiveQuery> queries_;     // Every query of the kept server.
  std::deque<LiveQuery> churn_;        // Registered churn queries, oldest first.
  std::unique_ptr<Server> server_;

  // Counts.
  std::vector<Timestamp> wm_;  // Highest timestamp pushed per stream.
  uint64_t tuples_pushed_ = 0;
  uint64_t attempted_ = 0, failed_ = 0, rejected_ = 0;
  // Measurements.
  std::vector<double> setup_s_, setup_wall_s_;  // Scaled, wall-clock.
  std::vector<int64_t> gen_lag_ns_, submit_ns_, cancel_ns_;
  std::vector<int64_t> deliver_lag_ns_;  // Sampled callbacks (trace).
  struct ChunkTime {
    uint64_t tuples;
    int64_t ns;
    bool traced;
  };
  /// Per round: host steal share and speed, the open-loop segment's
  /// latency and Submit percentiles (p50, p90, p99 in ns, scaled and
  /// wall-clock; absent without samples) and the burst's untraced chunks.
  struct Round {
    double steal = 0;
    double open_speed = 1, burst_speed = 1;
    std::vector<double> latency, latency_wall, submit, submit_wall;
    std::vector<ChunkTime> chunks;
  };
  std::vector<Round> rounds_;
  // The current segment's samples, until SummarizeSegment.
  std::vector<LatencySample> seg_latency_;
  std::vector<int64_t> seg_submit_ns_;
  size_t submits_counted_ = 0;
  size_t latency_samples_ = 0;
  int64_t open_batch_base_ = 0;  // Global id of the segment's first batch.
  std::vector<ChunkTime> chunks_;
  double rss_start_kb_ = 0, rss_end_kb_ = 0, peak_rss_kb_ = 0;
  uint64_t churn_ops_ = 0;
  std::map<std::string, double> reg_start_, reg_end_;
  uint64_t tuples_at_start_ = 0;
  std::string snapshot_json_;
  std::vector<Span> spans_;
  // Per saturated traced chunk: push self time (callbacks excluded).
  int64_t push_self_ns_ = 0, push_total_ns_ = 0, push_calls_ = 0;
  int64_t quiesce_ns_ = 0, quiesce_calls_ = 0;
};

/// One timed set-up: a server with the workload's streams and standing
/// queries. `keep` makes it the server the run measures; otherwise it is
/// destroyed, untimed, on return.
bool Bench::SetUp(bool keep) {
  const auto& streams = workload_->streams();
  std::vector<QuerySpec> specs = workload_->StandingQueries();
  std::vector<LiveQuery> live;
  const std::string dir = workload_->uses_spool() ? NewDir() : "";
  const double speed = HostSpeed();
  const int64_t t0 = NowNs();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  auto server = std::make_unique<Server>(workload_->ServerOptions(dir));
  for (const StreamInfo& s : streams) {
    tcq::Status st = server->DefineStream(s.name, s.schema, s.timestamp_field,
                                          s.partition_field);
    if (!st.ok()) return Fail("DefineStream " + s.name, st);
  }
  for (const QuerySpec& q : specs) {
    Server::SubmitOptions so;
    so.consistency = q.consistency;
    auto id = server->Submit(q.sql, so);
    if (!id.ok()) return Fail("Submit " + q.sql, id.status());
    live.push_back({&q, *id, nullptr, false});
  }
  if (keep) {
    standing_ = std::move(specs);  // Moving the vector keeps addresses.
    for (LiveQuery& lq : live) {
      lq.rec = NewRecorder(lq.spec);
      tcq::Status st =
          server->SetCallback(lq.id, MakeCallback(&run_, lq.rec));
      if (!st.ok()) return Fail("SetCallback", st);
    }
  } else {
    for (LiveQuery& lq : live) {
      tcq::Status st = server->SetCallback(lq.id, [](const ResultSet&) {});
      if (!st.ok()) return Fail("SetCallback", st);
    }
  }
  const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  setup_wall_s_.push_back(wall_s);
  setup_s_.push_back(wall_s * speed);
  if (keep) {
    server_ = std::move(server);
    queries_ = std::move(live);
    attempted_ += queries_.size();
    for (const LiveQuery& lq : queries_) oracle_.Activate(*lq.spec);
  }
  // A discarded server is destroyed on return, outside the timed region.
  return true;
}

bool Bench::Push(Batch* batch) {
  const size_t n = batch->tuples.size();
  for (const tcq::Tuple& t : batch->tuples) {
    wm_[batch->stream] = std::max(wm_[batch->stream], t.timestamp());
  }
  size_t rejected = 0;
  tcq::Status st = server_->PushBatch(workload_->streams()[batch->stream].name,
                                      std::move(batch->tuples), &rejected);
  attempted_ += n;
  tuples_pushed_ += n;
  rejected_ += rejected;
  failed_ += rejected;
  if (!st.ok()) {
    ++failed_;
    return Fail("PushBatch", st);
  }
  return true;
}

bool Bench::Quiesce() {
  const int64_t t0 = NowNs();
  server_->Quiesce();
  const int64_t t1 = NowNs();
  Trace(kQuiesce, t0, t1, -1);
  if (run_.tracing.load(std::memory_order_relaxed)) {
    quiesce_ns_ += t1 - t0;
    ++quiesce_calls_;
  }
  return true;
}

bool Bench::PushChunk(std::vector<Batch>* chunk) {
  const bool tracing = run_.tracing.load(std::memory_order_relaxed);
  for (Batch& b : *chunk) {
    const int64_t cb0 = tl_callback_ns;
    const int64_t t0 = tracing ? NowNs() : 0;
    if (!Push(&b)) return false;
    if (tracing) {
      const int64_t t1 = NowNs();
      spans_.push_back({kPush, t0, t1, -1});
      push_total_ns_ += t1 - t0;
      push_self_ns_ += (t1 - t0) - (tl_callback_ns - cb0);
      ++push_calls_;
    }
  }
  return true;
}

bool Bench::WarmUp() {
  run_.phase.store(static_cast<int>(Phase::kWarmup), std::memory_order_release);
  std::vector<Batch> batches;
  workload_->Generate(workload_->warmup_batches(), &batches);
  for (const Batch& b : batches) oracle_.OnBatch(b);
  for (Batch& b : batches) {
    if (!Push(&b)) return false;
  }
  // Churn pre-fill (untimed): every churn tick then cancels the oldest
  // churn query and submits a new one.
  for (size_t i = 0; i < workload_->churn_live(); ++i) {
    if (!SubmitChurn(NewChurnSpec(), false)) return false;
    if (churn_checked_) oracle_.Activate(*churn_.back().spec);
  }
  return Quiesce();
}

const QuerySpec* Bench::NewChurnSpec() {
  churn_specs_.push_back(workload_->ChurnQuery(churn_specs_.size()));
  return &churn_specs_.back();
}

bool Bench::SubmitChurn(const QuerySpec* spec, bool timed) {
  Server::SubmitOptions so;
  so.consistency = spec->consistency;
  ++attempted_;
  const int64_t t0 = NowNs();
  auto id = server_->Submit(spec->sql, so);
  const int64_t t1 = NowNs();
  if (!id.ok()) {
    ++failed_;
    return Fail("churn Submit " + spec->sql, id.status());
  }
  if (timed) {
    submit_ns_.push_back(t1 - t0);
    Trace(kSubmit, t0, t1, -1);
    ++churn_ops_;
  }
  LiveQuery lq{spec, *id, NewRecorder(spec), true};
  tcq::Status st = server_->SetCallback(lq.id, MakeCallback(&run_, lq.rec));
  if (!st.ok()) return Fail("SetCallback", st);
  churn_.push_back(lq);
  queries_.push_back(lq);
  return true;
}

bool Bench::CancelChurn() {
  const LiveQuery lq = churn_.front();
  churn_.pop_front();
  ++attempted_;
  const int64_t t0 = NowNs();
  tcq::Status st = server_->Cancel(lq.id);
  const int64_t t1 = NowNs();
  if (!st.ok()) {
    ++failed_;
    return Fail("Cancel", st);
  }
  cancel_ns_.push_back(t1 - t0);
  Trace(kCancel, t0, t1, -1);
  ++churn_ops_;
  return true;
}

bool Bench::OpenSegment(double seconds) {
  const double rate = workload_->offered_rate();
  const size_t n_batches = static_cast<size_t>(
      std::ceil(rate * seconds / static_cast<double>(kBatchTuples)));
  run_.interval_ns = static_cast<int64_t>(1e9 * kBatchTuples / rate);
  const int64_t churn_interval_ns =
      static_cast<int64_t>(1e9 / workload_->churn_rate());
  const size_t n_churn = static_cast<size_t>(
      std::llround(seconds * workload_->churn_rate()));

  // The segment's input, generated before timing.
  std::vector<Batch> batches;
  workload_->Generate(n_batches, &batches);

  // Latency attribution maps.
  const size_t ns = workload_->streams().size();
  run_.ts_lo.assign(ns, tcq::kMaxTimestamp);
  std::vector<Timestamp> hi(ns, tcq::kMinTimestamp);
  for (const Batch& b : batches) {
    for (const tcq::Tuple& t : b.tuples) {
      run_.ts_lo[b.stream] = std::min(run_.ts_lo[b.stream], t.timestamp());
      hi[b.stream] = std::max(hi[b.stream], t.timestamp());
    }
  }
  run_.exact.assign(ns, {});
  run_.prefix.assign(ns, {});
  for (size_t s = 0; s < ns; ++s) {
    if (hi[s] < run_.ts_lo[s]) continue;
    run_.exact[s].assign(static_cast<size_t>(hi[s] - run_.ts_lo[s] + 1), -1);
  }
  for (size_t i = 0; i < batches.size(); ++i) {
    const Batch& b = batches[i];
    for (const tcq::Tuple& t : b.tuples) {
      run_.exact[b.stream][static_cast<size_t>(t.timestamp() - run_.ts_lo[b.stream])] =
          static_cast<int32_t>(i);
    }
  }
  for (size_t s = 0; s < ns; ++s) {
    run_.prefix[s] = run_.exact[s];
    for (size_t i = 1; i < run_.prefix[s].size(); ++i) {
      run_.prefix[s][i] = std::max(run_.prefix[s][i], run_.prefix[s][i - 1]);
    }
  }
  run_.release.clear();
  if (const Timestamp bound = workload_->max_disorder(); bound > 0) {
    run_.release.assign(ns, {});
    for (size_t s = 0; s < ns; ++s) {
      std::vector<int32_t>& rel = run_.release[s];
      rel.assign(run_.exact[s].size(), -1);
      Timestamp hwm = tcq::kMinTimestamp;
      size_t next = 0;  // Offset of the next timestamp to assign.
      for (size_t i = 0; i < batches.size() && next < rel.size(); ++i) {
        if (batches[i].stream != s) continue;
        for (const tcq::Tuple& t : batches[i].tuples) hwm = std::max(hwm, t.timestamp());
        while (next < rel.size() &&
               run_.ts_lo[s] + static_cast<Timestamp>(next) + bound <= hwm) {
          rel[next++] = static_cast<int32_t>(i);
        }
      }
    }
  }

  // The schedule: batch i is due at i * interval, churn tick j at
  // (j + 1/2) * churn_interval. Both are fixed in advance, so the order
  // of pushes and churn is too, and the references can be fed now.
  struct Event {
    int64_t due_ns;
    bool churn;
    size_t index;
  };
  std::vector<Event> schedule;
  for (size_t i = 0; i < n_batches; ++i) {
    schedule.push_back({static_cast<int64_t>(i) * run_.interval_ns, false, i});
  }
  for (size_t j = 0; j < n_churn; ++j) {
    schedule.push_back({static_cast<int64_t>(j) * churn_interval_ns +
                            churn_interval_ns / 2,
                        true, j});
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Event& a, const Event& b) { return a.due_ns < b.due_ns; });
  std::vector<const QuerySpec*> incoming;
  for (size_t j = 0; j < n_churn; ++j) incoming.push_back(NewChurnSpec());
  if (churn_checked_) {
    std::deque<const QuerySpec*> live;
    for (const LiveQuery& lq : churn_) live.push_back(lq.spec);
    size_t k = 0;
    for (const Event& e : schedule) {
      if (!e.churn) {
        oracle_.OnBatch(batches[e.index]);
        continue;
      }
      oracle_.Deactivate(*live.front());
      live.pop_front();
      live.push_back(incoming[k++]);
      oracle_.Activate(*live.back());
    }
  } else {
    for (const Batch& b : batches) oracle_.OnBatch(b);
  }
  size_t k = 0;

  std::vector<int64_t> push_return(args_.trace ? n_batches : 0, 0);
  run_.open_start_ns = NowNs() + 1'000'000;
  run_.phase.store(static_cast<int>(Phase::kOpen), std::memory_order_release);
  for (const Event& e : schedule) {
    const int64_t due = run_.open_start_ns + e.due_ns;
    // Wait for the due time. With a CPU to spare the generator spins: a
    // sleeping vCPU can be woken milliseconds late by the host, and that
    // delay would be charged to the server. When the server's own
    // threads need every other CPU, it sleeps to just short of the due
    // time and spins only the rest.
    int64_t now = NowNs();
    if (!spin_wait_ && due - now > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 150'000));
    }
    while ((now = NowNs()) < due) {
    }
    if (e.churn) {
      if (!CancelChurn()) return false;
      if (!SubmitChurn(incoming[k++], true)) return false;
      continue;
    }
    gen_lag_ns_.push_back(now - due);
    if (!Push(&batches[e.index])) return false;
    const int64_t t1 = NowNs();
    Trace(kPush, now, t1, open_batch_base_ + static_cast<int64_t>(e.index));
    if (args_.trace) push_return[e.index] = t1;
  }
  if (!Quiesce()) return false;
  run_.phase.store(static_cast<int>(Phase::kSaturated), std::memory_order_release);

  // The segment's samples move to seg_latency_ and seg_submit_ns_ for
  // SummarizeSegment, once the host speed after the segment is known.
  seg_latency_.clear();
  for (const auto& r : recorders_) {
    seg_latency_.insert(seg_latency_.end(), r->latency.begin(), r->latency.end());
    r->latency.clear();
    for (Span s : r->spans) {
      if (s.batch >= 0 && static_cast<size_t>(s.batch) < push_return.size()) {
        deliver_lag_ns_.push_back(s.start_ns - push_return[static_cast<size_t>(s.batch)]);
      }
      s.batch += open_batch_base_;
      spans_.push_back(s);
    }
    r->spans.clear();
  }
  latency_samples_ += seg_latency_.size();
  seg_submit_ns_.assign(submit_ns_.begin() + static_cast<std::ptrdiff_t>(submits_counted_),
                        submit_ns_.end());
  submits_counted_ = submit_ns_.size();
  open_batch_base_ += static_cast<int64_t>(n_batches);
  return true;
}

void Bench::SummarizeSegment(double speed) {
  // Scaled latency: the schedule's wait as is, the rest times the speed.
  std::vector<int64_t> lat, lat_wall, sub;
  for (const LatencySample& l : seg_latency_) {
    lat_wall.push_back(l.ns);
    lat.push_back(l.wait_ns + std::llround(speed * static_cast<double>(l.ns - l.wait_ns)));
  }
  for (int64_t ns : seg_submit_ns_) sub.push_back(std::llround(speed * static_cast<double>(ns)));
  Round& round = rounds_.back();
  round.open_speed = speed;
  for (double q : {0.50, 0.90, 0.99}) {
    if (!sub.empty()) {
      round.submit.push_back(Percentile(sub, q));
      round.submit_wall.push_back(Percentile(seg_submit_ns_, q));
    }
    if (!lat.empty()) {
      round.latency.push_back(Percentile(lat, q));
      round.latency_wall.push_back(Percentile(lat_wall, q));
    }
  }
  seg_latency_.clear();
  seg_submit_ns_.clear();
}

bool Bench::SaturatedBurst(double seconds) {
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  const int64_t start = NowNs();
  do {
    std::vector<Batch> chunk;
    workload_->Generate(workload_->chunk_batches(), &chunk);
    for (const Batch& b : chunk) oracle_.OnBatch(b);
    uint64_t tuples = 0;
    for (const Batch& b : chunk) tuples += b.tuples.size();
    // The traced run alternates traced and untraced chunks, so tracing
    // overhead is measured against the same server in the same run.
    const bool traced = args_.trace && chunks_.size() % 2 == 0;
    run_.tracing.store(traced, std::memory_order_relaxed);
    const int64_t t0 = NowNs();
    if (!PushChunk(&chunk)) return false;
    if (!Quiesce()) return false;  // Drain inside the timer.
    const int64_t t1 = NowNs();
    run_.tracing.store(false, std::memory_order_relaxed);
    chunks_.push_back({tuples, t1 - t0, traced});
    if (!traced) rounds_.back().chunks.push_back(chunks_.back());
  } while (NowNs() - start < budget_ns);
  return true;
}

bool Bench::Check() {
  run_.phase.store(static_cast<int>(Phase::kCheck), std::memory_order_release);
  // Release whatever the reorder buffers still hold, then drain.
  if (workload_->max_disorder() > 0) {
    for (size_t s = 0; s < wm_.size(); ++s) {
      tcq::Status st = server_->Heartbeat(workload_->streams()[s].name, wm_[s]);
      if (!st.ok()) return Fail("Heartbeat", st);
    }
  }
  if (!Quiesce()) return false;
  reg_end_ = RegistryValues();
  snapshot_json_ = server_->SnapshotMetrics();

  size_t mismatches = 0, checked = 0;
  bool perturbed = false;
  for (const LiveQuery& lq : queries_) {
    if (lq.churn && !churn_checked_) continue;
    Digest want = lq.spec->reference->Expected(wm_);
    if (args_.perturb_oracle && !perturbed) {
      want.hash += 1;  // Self-test: the check must fire.
      perturbed = true;
    }
    ++checked;
    if (lq.rec->digest != want) {
      if (++mismatches <= 5) {
        std::fprintf(stderr,
                     "perfbench: MISMATCH query %u (%s): got %lld rows "
                     "hash %016llx, want %lld rows hash %016llx\n",
                     lq.id, lq.spec->sql.c_str(),
                     static_cast<long long>(lq.rec->digest.rows),
                     static_cast<unsigned long long>(lq.rec->digest.hash),
                     static_cast<long long>(want.rows),
                     static_cast<unsigned long long>(want.hash));
      }
    }
  }
  std::fprintf(stderr, "perfbench: %zu of %zu queries checked, %zu mismatched\n",
               checked, queries_.size(), mismatches);
  return mismatches == 0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void AppendMetrics(const std::vector<Metric>& ms, std::string* out) {
  *out += "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) *out += ",";
    *out += "\"" + ms[i].name + "\":{\"value\":" + Num(ms[i].value) +
            ",\"unit\":\"" + ms[i].unit + "\"}";
  }
  *out += "}";
}

void Bench::Emit(bool correct) {
  uint64_t windows = 0;
  for (const auto& r : recorders_) {
    if (r->spec->windowed) windows += r->result_sets;
  }
  uint64_t sat_tuples = 0;
  int64_t sat_ns = 0;
  uint64_t traced_tuples = 0, plain_tuples = 0;
  int64_t traced_ns = 0, plain_ns = 0;
  for (const ChunkTime& c : chunks_) {
    (c.traced ? traced_tuples : plain_tuples) += c.tuples;
    (c.traced ? traced_ns : plain_ns) += c.ns;
    sat_tuples += c.tuples;
    sat_ns += c.ns;
  }
  // Steadiness: throughput over the first and second half of the chunks.
  double half_tps[2] = {0, 0};
  {
    uint64_t t[2] = {0, 0};
    int64_t d[2] = {0, 0};
    for (size_t i = 0; i < chunks_.size(); ++i) {
      const int h = i < chunks_.size() / 2 ? 0 : 1;
      t[h] += chunks_[i].tuples;
      d[h] += chunks_[i].ns;
    }
    for (int h = 0; h < 2; ++h) half_tps[h] = Ratio(1e9 * t[h], d[h]);
  }
  // The rounds read: of each pair of consecutive rounds, the one with
  // less host steal (both on a tie). Steal stalls the generator and the
  // server outright, which the speed probe cannot see; taking one of each
  // pair keeps the rounds read spread over the whole run, whose per-batch
  // cost drifts (README.md, Steadiness).
  std::vector<const Round*> read;
  for (size_t i = 0; i < rounds_.size(); i += 2) {
    const Round& a = rounds_[i];
    const Round& b = rounds_[std::min(i + 1, rounds_.size() - 1)];
    if (a.steal <= b.steal) read.push_back(&a);
    if (&b != &a && b.steal <= a.steal) read.push_back(&b);
  }
  // Throughput is the tuples of their untraced chunks over their summed
  // time, each chunk's time times the speed around its burst; latency and
  // Submit are medians of their segments' percentiles.
  uint64_t round_tuples = 0;
  double scaled_ns = 0, wall_ns = 0;
  for (const Round* r : read) {
    for (const ChunkTime& c : r->chunks) {
      round_tuples += c.tuples;
      wall_ns += static_cast<double>(c.ns);
      scaled_ns += static_cast<double>(c.ns) * r->burst_speed;
    }
  }
  std::vector<double> speeds;
  double all_steal = 0;
  for (const Round& r : rounds_) {
    speeds.push_back(r.open_speed);
    speeds.push_back(r.burst_speed);
    all_steal += r.steal / static_cast<double>(rounds_.size());
  }
  std::sort(speeds.begin(), speeds.end());
  auto round_median = [&](std::vector<double> Round::*field, size_t i) {
    std::vector<double> v;
    for (const Round* r : read) {
      if (i < (r->*field).size()) v.push_back((r->*field)[i]);
    }
    return Median(v);
  };
  const double tps = Ratio(1e9 * static_cast<double>(round_tuples), scaled_ns);

  std::vector<Metric> metrics;
  if (!args_.trace) {
    metrics = {
        {"throughput_tps", tps, "1/s"},
        {"latency_p50_ms", round_median(&Round::latency, 0) / 1e6, "ms"},
        {"setup_s", Median(setup_s_), "s"},
        {"peak_rss_mb", peak_rss_kb_ / 1024.0, "MB"},
    };
  } else {
    const auto& a = reg_end_;
    const auto& b = reg_start_;
    const double n = static_cast<double>(tuples_pushed_ - tuples_at_start_);
    auto d = [&](const char* name) { return Delta(a, b, name); };
    // Shard skew: max / mean routed tuples per shard.
    const size_t shards = workload_->ServerOptions("").cacq_shards;
    double skew = 1.0;
    if (shards > 1) {
      double mx = 0, sum = 0;
      for (size_t i = 0; i < shards; ++i) {
        const double r = d(("tcq.shard." + std::to_string(i) + ".routed").c_str());
        mx = std::max(mx, r);
        sum += r;
      }
      skew = Ratio(mx, sum / static_cast<double>(shards));
    }
    // Spool page-cache hit ratio from the server's snapshot.
    double cache_hits = 0, cache_misses = 0;
    if (size_t p = snapshot_json_.find("\"cache\":{\"hits\":"); p != std::string::npos) {
      cache_hits = std::strtod(snapshot_json_.c_str() + p + 16, nullptr);
      size_t m = snapshot_json_.find("\"misses\":", p);
      if (m != std::string::npos) {
        cache_misses = std::strtod(snapshot_json_.c_str() + m + 9, nullptr);
      }
    }
    const double push_ns_per_tuple = Ratio(push_total_ns_, kBatchTuples * push_calls_);
    std::vector<Metric> layer;
    const double layer_sum =
        ReplayLayers(args_.workload, args_.seed, args_.tmp_dir, &layer);
    auto layer_value = [&](const char* name) {
      for (const Metric& m : layer) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    metrics = {
        {"ingress.gen_lag_p99_ms", Percentile(gen_lag_ns_, 0.99) / 1e6, "ms"},
        {"ingress.reorder_ns_per_tuple", layer_value("ingress.reorder_ns_per_tuple"), "ns"},
        {"ingress.released_per_tuple", Ratio(d("tcq.disorder.released"), n), "ratio"},
        {"ingress.late_within_bound_share", Ratio(d("tcq.disorder.late_within_bound"), n), "ratio"},
        {"ingress.archive_append_ns_per_tuple", layer_value("ingress.archive_append_ns_per_tuple"), "ns"},
        {"spool.demotions_per_tuple", Ratio(d("tcq.spool.demotions"), n), "ratio"},
        {"spool.write_us_mean", layer_value("spool.write_us_mean"), "us"},
        {"spool.read_us_mean", layer_value("spool.read_us_mean"), "us"},
        {"spool.cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
        {"spool.archive_ns_per_tuple", layer_value("spool.archive_ns_per_tuple"), "ns"},
        {"fjords.queue_depth_p99",
         static_cast<double>(tcq::MetricRegistry::Global()
                                 .GetHistogram("tcq.queue.depth")
                                 ->ApproxQuantile(0.99)),
         "count"},
        {"fjords.producer_blocks_per_ktuple", 1000 * Ratio(d("tcq.queue.producer_blocks"), n), "count"},
        {"cacq.scatter_us_per_batch", Ratio(push_self_ns_, push_calls_) / 1e3, "us"},
        {"cacq.shard_skew", skew, "ratio"},
        {"cacq.drain_ms", Ratio(quiesce_ns_, quiesce_calls_) / 1e6, "ms"},
        {"cacq.inject_ns_per_tuple", layer_value("cacq.inject_ns_per_tuple"), "ns"},
        {"grouped_filter.apply_ns_per_tuple", layer_value("grouped_filter.apply_ns_per_tuple"), "ns"},
        {"grouped_filter.rebuilds_per_churn",
         Ratio(Delta(reg_end_, reg_start_, "tcq.grouped_filter.rebuilds"),
               static_cast<double>(churn_ops_)),
         "ratio"},
        {"eddy.visits_per_tuple", Ratio(d("tcq.eddy.visits"), n), "ratio"},
        {"eddy.decisions_per_tuple", Ratio(d("tcq.eddy.decisions"), n), "ratio"},
        {"eddy.cache_hit_ratio",
         Ratio(d("tcq.eddy.cache_hits"), d("tcq.eddy.cache_hits") + d("tcq.eddy.cache_misses")),
         "ratio"},
        {"eddy.emit_ratio", Ratio(d("tcq.eddy.emitted"), d("tcq.eddy.injected")), "ratio"},
        {"stem.probes_per_tuple", Ratio(d("tcq.stem.probes"), n), "ratio"},
        {"stem.match_ratio", Ratio(d("tcq.stem.matches"), d("tcq.stem.probes")), "ratio"},
        {"stem.scanned_per_probe", Ratio(d("tcq.stem.scanned"), d("tcq.stem.probes")), "ratio"},
        {"core.push_us_per_batch", Ratio(push_total_ns_, push_calls_) / 1e3, "us"},
        {"core.windows_fired_per_ktuple",
         1000 * Ratio(static_cast<double>(windows), static_cast<double>(tuples_pushed_)),
         "count"},
        {"core.parse_analyze_us", layer_value("core.parse_analyze_us"), "us"},
        {"core.cancel_us_p50", Percentile(cancel_ns_, 0.5) / 1e3, "us"},
        {"egress.rows_per_tuple", Ratio(d("tcq.server.delivered_rows"), n), "ratio"},
        {"egress.deliver_lag_us_p50", Percentile(deliver_lag_ns_, 0.5) / 1e3, "us"},
        {"pool.miss_ratio", Ratio(d("tcq.pool.misses"), d("tcq.pool.hits") + d("tcq.pool.misses")), "ratio"},
        {"trace.unattributed_share", 1.0 - Ratio(layer_sum, push_ns_per_tuple), "ratio"},
        {"trace.overhead_share",
         1.0 - Ratio(Ratio(1e9 * traced_tuples, traced_ns),
                     Ratio(1e9 * plain_tuples, plain_ns)),
         "ratio"},
    };
  }

  std::vector<Metric> report = {
      {"throughput_tps_first_half", half_tps[0], "1/s"},
      {"throughput_tps_second_half", half_tps[1], "1/s"},
      {"rss_growth_mb", (rss_end_kb_ - rss_start_kb_) / 1024.0, "MB"},
      {"latency_samples", static_cast<double>(latency_samples_), "count"},
      {"throughput_tps_wall", Ratio(1e9 * static_cast<double>(round_tuples), wall_ns), "1/s"},
      {"saturated_chunks", static_cast<double>(chunks_.size()), "count"},
      {"submit_samples", static_cast<double>(submit_ns_.size()), "count"},
      {"gen_lag_p99_ms", Percentile(gen_lag_ns_, 0.99) / 1e6, "ms"},
      // Reported, not gated: host interference makes these unsteady
      // (README.md, Steadiness). `_wall` figures are not scaled.
      {"latency_p90_ms", round_median(&Round::latency, 1) / 1e6, "ms"},
      {"latency_p99_ms", round_median(&Round::latency, 2) / 1e6, "ms"},
      {"latency_p50_ms_wall", round_median(&Round::latency_wall, 0) / 1e6, "ms"},
      {"latency_p99_ms_wall", round_median(&Round::latency_wall, 2) / 1e6, "ms"},
      {"submit_p50_us", round_median(&Round::submit, 0) / 1e3, "us"},
      {"submit_p90_us", round_median(&Round::submit, 1) / 1e3, "us"},
      {"submit_p99_us", round_median(&Round::submit, 2) / 1e3, "us"},
      {"submit_p90_us_wall", round_median(&Round::submit_wall, 1) / 1e3, "us"},
      {"submit_p99_us_pooled_wall", Percentile(submit_ns_, 0.99) / 1e3, "us"},
      {"setup_s_wall", Median(setup_wall_s_), "s"},
      {"host_speed_median", Median(speeds), "ratio"},
      {"host_speed_min", speeds.empty() ? 0 : speeds.front(), "ratio"},
      {"host_speed_max", speeds.empty() ? 0 : speeds.back(), "ratio"},
      {"steal_share", all_steal, "ratio"},
      {"rounds_read", static_cast<double>(read.size()), "count"},
      {"failed_share", Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)), "ratio"},
      {"rejected_tuples", static_cast<double>(rejected_), "count"},
      {"tuples_pushed", static_cast<double>(tuples_pushed_), "count"},
      {"saturated_tuples", static_cast<double>(sat_tuples), "count"},
      {"saturated_seconds", static_cast<double>(sat_ns) / 1e9, "s"},
      {"offered_rate_tps", workload_->offered_rate(), "1/s"},
      {"churn_rate_per_s", workload_->churn_rate(), "1/s"},
      {"shards", static_cast<double>(workload_->ServerOptions("").cacq_shards), "count"},
  };
  std::string out = "{\"workload\":\"" + args_.workload +
                    "\",\"seed\":" + std::to_string(args_.seed) +
                    ",\"trace\":" + (args_.trace ? "1" : "0") +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":";
  AppendMetrics(metrics, &out);
  out += ",\"report\":";
  AppendMetrics(report, &out);
  out += "}";
  std::printf("%s\n", out.c_str());

  if (args_.trace && !args_.spans_file.empty()) {
    std::ofstream f(args_.spans_file);
    constexpr size_t kMaxSpans = 200000;
    for (size_t i = 0; i < spans_.size() && i < kMaxSpans; ++i) {
      const Span& s = spans_[i];
      f << "{\"name\":\"" << kSpanNames[s.name] << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"batch\":" << s.batch << "}\n";
    }
  }
}

int Bench::Run() {
  // The kept set-up, then, in untraced runs, one discarded set-up at the
  // start of every round: setup_s is a median over the whole run, so a
  // slow minute of the host is a few samples of many.
  if (!SetUp(true)) return 4;
  if (!WarmUp()) return 4;
  reg_start_ = RegistryValues();
  tuples_at_start_ = tuples_pushed_;
  const double open_s = 0.4 * args_.seconds / kRounds;
  const double burst_s = 0.5 * args_.seconds / kRounds;
  rss_start_kb_ = StatusKb("VmRSS");
  for (int r = 0; r < kRounds; ++r) {
    rounds_.emplace_back();
    PinToCpu(r);
    if (!args_.trace && !SetUp(false)) return 4;
    const auto st0 = StealTicks();
    const double speed0 = HostSpeed();
    run_.tracing.store(args_.trace, std::memory_order_relaxed);
    if (!OpenSegment(open_s)) return 4;
    run_.tracing.store(false, std::memory_order_relaxed);
    const double speed1 = HostSpeed();
    SummarizeSegment(std::sqrt(speed0 * speed1));
    if (!SaturatedBurst(burst_s)) return 4;
    rounds_.back().burst_speed = std::sqrt(speed1 * HostSpeed());
    const auto st1 = StealTicks();
    rounds_.back().steal = Ratio(static_cast<double>(st1.first - st0.first),
                                 static_cast<double>(st1.second - st0.second));
  }
  rss_end_kb_ = StatusKb("VmRSS");
  peak_rss_kb_ = StatusKb("VmHWM");
  if (!Check()) return 3;
  Emit(true);
  return 0;
}

// ---------------------------------------------------------- Self-test

/// Same seed -> identical inputs and references; another seed -> other
/// inputs. Returns false (and says why) on any violation.
bool SelfTest() {
  bool ok = true;
  for (const char* name :
       {"filters_inline", "windowed_history", "sharded_disorder"}) {
    auto digest_of = [&](uint64_t seed, Digest* refs) {
      std::unique_ptr<Workload> w = MakeWorkload(name, seed);
      Oracle oracle(w.get());
      std::vector<QuerySpec> qs = w->StandingQueries();
      for (uint64_t i = 0; i < 4; ++i) qs.push_back(w->ChurnQuery(i));
      Digest input;
      for (const QuerySpec& q : qs) {
        input.Add(HashRow(nullptr, 0, static_cast<Timestamp>(q.sql.size())) ^
                      std::hash<std::string>{}(q.sql),
                  false);
        oracle.Activate(q);
      }
      std::vector<Timestamp> wm(w->streams().size(), tcq::kMinTimestamp);
      for (int round = 0; round < 8; ++round) {
        std::vector<Batch> batches;
        w->Generate(64, &batches);  // Split calls: the feed must not care.
        for (const Batch& b : batches) {
          for (const tcq::Tuple& t : b.tuples) {
            input.Add(HashRow(t, t.timestamp()) ^ b.stream, false);
            wm[b.stream] = std::max(wm[b.stream], t.timestamp());
          }
          oracle.OnBatch(b);
        }
      }
      for (const QuerySpec& q : qs) {
        const Digest d = q.reference->Expected(wm);
        refs->Add(Mix(d.hash) ^ static_cast<uint64_t>(d.rows), false);
      }
      return input;
    };
    Digest r1, r2, r3;
    const Digest a = digest_of(7, &r1), b = digest_of(7, &r2),
                 c = digest_of(8, &r3);
    const bool same = a == b && r1 == r2;
    const bool differs = a != c;
    std::fprintf(stderr, "selftest %-17s same seed identical: %s, other seed "
                 "differs: %s\n", name, same ? "yes" : "NO",
                 differs ? "yes" : "NO");
    ok = ok && same && differs;
  }
  return ok;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (k == "--selftest") {
      a->selftest = true;
    } else if (k == "--perturb-oracle") {
      a->perturb_oracle = true;
    } else {
      const char* v = next();
      if (v == nullptr) return false;
      if (k == "--workload") {
        a->workload = v;
      } else if (k == "--seed") {
        a->seed = std::strtoull(v, nullptr, 10);
      } else if (k == "--seconds") {
        a->seconds = std::strtod(v, nullptr);
      } else if (k == "--trace") {
        a->trace = std::string(v) == "1";
      } else if (k == "--tmp") {
        a->tmp_dir = v;
      } else if (k == "--spans") {
        a->spans_file = v;
      } else {
        return false;
      }
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tcq_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tmp DIR] [--spans FILE] [--perturb-oracle]\n"
                 "       tcq_perfbench --selftest\n");
    return 2;
  }
  if (args.selftest) return perfbench::SelfTest() ? 0 : 3;
  if (perfbench::MakeWorkload(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(args);
  return bench.Run();
}
