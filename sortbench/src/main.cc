// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// sortbench_run: runs one workload of the tracked benchmark and writes its
// raw samples as JSON. sortbench/run.py builds this binary, turns the
// samples into the metrics listed in BENCHMARK.json, and prints them.
//
//   sortbench_run --workload W --seed N --seconds S --trace 0|1
//                 --out RAW.json --spill-dir DIR [--trace-out TRACE.json]
//
// Workloads (see sortbench/METRICS.md for why each exists):
//   ints_inmem        5M shuffled INT32, radix path, no memory limit
//   customer_strings  customer ORDER BY c_last_name, c_first_name (pdqsort)
//   catalog_spill     catalog_sales, 4 keys, 32 MiB limit (external merge)
//   service_mix       closed-loop SortService: 2 interactive clients, 1 giant
//
// Every timed operation's output is checked after its timing stops. The
// library is driven only through RelationalSort (Sink / CombineLocal /
// Finalize / ScanChunk / metrics), ThreadPool and SortService (Submit /
// StatsSnapshot; the flight recorder for exact queue waits when traced).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check.h"
#include "common/random.h"
#include "engine/sort_engine.h"
#include "parallel/thread_pool.h"
#include "service/sort_service.h"
#include "spans.h"
#include "workload/tables.h"
#include "workload/tpcds.h"

using namespace rowsort;
using sortbench::NowNs;
using sortbench::RowMultiset;
using sortbench::Span;
using sortbench::SpanRecorder;
using sortbench::ThreadCpuNs;

namespace {

constexpr uint64_t kThreads = 2;      // every workload: 2 worker threads
constexpr uint64_t kSetupReps = 11;   // setup_s is the median of these
constexpr double kMaxMeasureS = 120;  // hard stop, far below the run limit

// ---------------------------------------------------------------- utilities

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  int64_t minflt = 0;
  int64_t maxrss_kb = 0;
};

Usage ReadUsage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.minflt = ru.ru_minflt;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}
Usage ProcessUsage() { return ReadUsage(RUSAGE_SELF); }
Usage ThreadUsage() { return ReadUsage(RUSAGE_THREAD); }

Usage Minus(const Usage& a, const Usage& b) {
  Usage d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.minflt = a.minflt - b.minflt;
  return d;
}

double Seconds(int64_t ns) { return ns * 1e-9; }

/// Minimal JSON object writer: keys in insertion order, numbers printed with
/// full precision.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Raw(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + raw;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    if constexpr (std::is_floating_point_v<T>) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
      out += buf;
    } else if constexpr (std::is_same_v<T, std::string>) {
      out += values[i];  // pre-rendered JSON
    } else {
      out += std::to_string(values[i]);
    }
  }
  return out + "]";
}

JsonObject UsageJson(const Usage& u) {
  JsonObject o;
  o.Num("user_s", u.user_s).Num("sys_s", u.sys_s).Int("minflt", u.minflt);
  return o;
}

JsonObject SortMetricsJson(const SortMetrics& m) {
  JsonObject o;
  o.Int("rows", m.rows)
      .Int("runs_generated", m.runs_generated)
      .Int("run_generation_compares", m.run_generation_compares)
      .Int("merge_compares", m.merge_compares)
      .Int("ovc_decided", m.ovc_decided)
      .Int("ovc_fallback_compares", m.ovc_fallback_compares)
      .Int("merge_fan_in", m.merge_fan_in)
      .Int("rows_bulk_copied", m.rows_bulk_copied)
      .Int("runs_spilled", m.runs_spilled)
      .Int("spill_bytes_raw", m.spill_bytes_raw)
      .Int("spill_bytes_compressed", m.spill_bytes_compressed)
      .Int("io_wait_us", m.io_wait_us)
      .Int("compress_us", m.compress_us)
      .Int("decompress_us", m.decompress_us)
      .Int("blocks_prefetched", m.blocks_prefetched)
      .Int("write_behind_stalls", m.write_behind_stalls)
      .Int("peak_memory_bytes", m.peak_memory_bytes);
  return o;
}

/// Pool activity between two snapshots.
struct PoolDelta {
  uint64_t tasks = 0;
  double queue_wait_s = 0;
  double busy_s = 0;
};

double BusySeconds(const ThreadPoolStatsSnapshot& s) {
  double total = 0;
  for (double b : s.thread_busy_seconds) total += b;
  return total;
}

PoolDelta PoolMinus(const ThreadPoolStatsSnapshot& a,
                    const ThreadPoolStatsSnapshot& b) {
  PoolDelta d;
  d.tasks = a.tasks_executed - b.tasks_executed;
  d.queue_wait_s =
      a.queue_wait_ns.total_seconds() - b.queue_wait_ns.total_seconds();
  d.busy_s = BusySeconds(a) - BusySeconds(b);
  return d;
}

// --------------------------------------------------------- engine workloads

struct EngineWorkload {
  std::function<Table(uint64_t seed)> make;
  SortSpec spec;
  SortEngineConfig config;
};

bool MakeEngineWorkload(const std::string& name, const std::string& spill_dir,
                        EngineWorkload* w) {
  w->config.threads = kThreads;
  if (name == "ints_inmem") {
    // Fig. 12: the radix path; default run_size_rows gives ~6 runs.
    w->make = [](uint64_t seed) {
      return MakeShuffledIntegerTable(5000000, seed);
    };
    w->spec = SortSpec({SortColumn(0, TypeId::kInt32)});
    return true;
  }
  if (name == "customer_strings") {
    // Fig. 14: VARCHAR keys force pdqsort with tie resolution (no radix, no
    // offset-value coding) and a string-heap gather on scan.
    w->make = [](uint64_t seed) {
      TpcdsScale scale;
      scale.scale_factor = 100;
      scale.scale_divisor = 1;
      scale.seed = seed;
      return MakeCustomer(scale);
    };
    w->spec = SortSpec({SortColumn(4, TypeId::kVarchar),
                        SortColumn(5, TypeId::kVarchar)});
    // Each thread gets ~1M of the 2M rows. 2^19-row runs make that two runs
    // per thread for any near-even split. The default 2^20 sits on the split
    // itself, so the run count (and the allocation pattern) would depend on
    // which thread won more morsels.
    w->config.run_size_rows = 1 << 19;
    return true;
  }
  if (name == "catalog_spill") {
    // Fig. 13 with all four keys under a 32 MiB limit: the working set is
    // larger than the limit, so runs spill (compressed, overlapped I/O at
    // their defaults).
    w->make = [](uint64_t seed) {
      TpcdsScale scale;
      scale.scale_factor = 10;
      scale.scale_divisor = 3;
      scale.seed = seed;
      return MakeCatalogSales(scale);
    };
    w->spec = SortSpec(
        {SortColumn(0, TypeId::kInt32), SortColumn(1, TypeId::kInt32),
         SortColumn(2, TypeId::kInt32), SortColumn(3, TypeId::kInt32)});
    w->config.memory_limit_bytes = 32ull << 20;
    // 2^18-row runs (~20 of them), so most runs spill and the final merge
    // is a wide external one.
    w->config.run_size_rows = 1 << 18;
    w->config.spill_directory = spill_dir;
    return true;
  }
  return false;
}

/// One sort's measurements. Layer fields are filled only for traced ops.
struct EngineOp {
  bool traced = false;
  bool ok = false;
  std::string error;
  int64_t sort_ns = 0;
  Usage usage;
  SortMetrics metrics;
  // Traced: layer wall/CPU times and counts.
  int64_t sink_wall_ns = 0, merge_wall_ns = 0, scan_wall_ns = 0;
  int64_t sink_call_ns = 0, sink_cpu_ns = 0, sink_calls = 0;
  int64_t run_sort_call_ns = 0, run_sort_cpu_ns = 0;
  int64_t scan_chunks = 0;
  Usage usage_sink, usage_merge, usage_scan;
  PoolDelta pool;
};

/// One Sink or CombineLocal call as seen from the calling thread.
struct CallRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t tid = 0;
  bool combine = false;
  bool completes_run = false;
};

/// Runs one sort through the public pipeline entry points, from the first
/// Sink to the last ScanChunk. \p recorder non-null = traced op.
EngineOp RunEngineOp(const EngineWorkload& w, const SortEngineConfig& config,
                     const Table& input, ThreadPool& pool,
                     SpanRecorder* recorder, uint64_t op_id,
                     const RowMultiset& expected) {
  EngineOp op;
  op.traced = recorder != nullptr;
  const bool traced = op.traced;
  RelationalSort sort(w.spec, input.types(), config);
  const uint64_t run_size = config.run_size_rows;
  std::atomic<uint64_t> next_chunk{0};
  std::vector<std::vector<CallRecord>> calls(config.threads);

  pool.EnableStats(traced);
  ThreadPoolStatsSnapshot pool_before;
  if (traced) pool_before = pool.StatsSnapshot();
  Table out(input.types(), input.names());
  std::vector<CallRecord> scan_calls;
  Status st;

  const Usage u0 = ProcessUsage();
  const int64_t t0 = NowNs();
  std::vector<std::function<void()>> tasks;
  for (uint64_t t = 0; t < config.threads; ++t) {
    tasks.push_back([&, t] {
      auto local = sort.MakeLocalState();
      std::vector<CallRecord>& mine = calls[t];
      uint64_t fed = 0;  // rows in the local state since its last run
      while (true) {
        const uint64_t c = next_chunk.fetch_add(1);
        if (c >= input.ChunkCount()) break;
        const DataChunk& chunk = input.chunk(c);
        if (!traced) {
          if (!sort.Sink(*local, chunk).ok()) break;
          continue;
        }
        fed += chunk.size();
        CallRecord rec;
        rec.completes_run = fed >= run_size;
        if (rec.completes_run) fed = 0;
        rec.tid = SpanRecorder::ThreadSlot();
        const int64_t cpu0 = ThreadCpuNs();
        rec.start_ns = NowNs();
        const bool sink_ok = sort.Sink(*local, chunk).ok();
        rec.end_ns = NowNs();
        rec.cpu_ns = ThreadCpuNs() - cpu0;
        mine.push_back(rec);
        if (!sink_ok) break;
      }
      CallRecord rec;
      rec.combine = true;
      rec.tid = SpanRecorder::ThreadSlot();
      const int64_t cpu0 = traced ? ThreadCpuNs() : 0;
      rec.start_ns = traced ? NowNs() : 0;
      (void)sort.CombineLocal(*local);  // its status is sticky in the sort
      if (traced) {
        rec.end_ns = NowNs();
        rec.cpu_ns = ThreadCpuNs() - cpu0;
        mine.push_back(rec);
      }
    });
  }
  try {
    pool.RunBatch(std::move(tasks));
    const Usage u_sink = traced ? ProcessUsage() : Usage{};
    st = sort.status();
    const int64_t merge_start = NowNs();
    if (st.ok()) st = sort.Finalize(&pool);
    const int64_t merge_end = NowNs();
    const Usage u_merge = traced ? ProcessUsage() : Usage{};
    uint64_t offset = 0;
    while (st.ok() && offset < sort.row_count()) {
      DataChunk chunk = out.NewChunk();
      CallRecord rec;
      rec.start_ns = traced ? NowNs() : 0;
      const uint64_t produced = sort.ScanChunk(offset, &chunk);
      if (traced) {
        rec.end_ns = NowNs();
        scan_calls.push_back(rec);
      }
      if (produced == 0) break;
      offset += produced;
      out.Append(std::move(chunk));
    }
    const int64_t t1 = NowNs();
    const Usage u1 = ProcessUsage();
    op.sort_ns = t1 - t0;
    op.usage = Minus(u1, u0);
    if (traced) {
      op.usage_sink = Minus(u_sink, u0);
      op.usage_merge = Minus(u_merge, u_sink);
      op.usage_scan = Minus(u1, u_merge);
      op.merge_wall_ns = merge_end - merge_start;
      op.pool = PoolMinus(pool.StatsSnapshot(), pool_before);
      const int64_t scan_start = merge_end;
      op.scan_wall_ns = t1 - scan_start;
      // Spans: sort > {sink > calls, merge, scan > chunks}.
      const uint64_t root = recorder->NewId();
      const uint64_t sink_id = recorder->NewId();
      const uint64_t merge_id = recorder->NewId();
      const uint64_t scan_id = recorder->NewId();
      const uint64_t main_tid = SpanRecorder::ThreadSlot();
      int64_t first_sink = INT64_MAX, last_combine = INT64_MIN;
      for (const auto& per_thread : calls) {
        for (const CallRecord& rec : per_thread) {
          first_sink = std::min(first_sink, rec.start_ns);
          if (rec.combine) last_combine = std::max(last_combine, rec.end_ns);
          const int64_t dur = rec.end_ns - rec.start_ns;
          if (!rec.combine) {
            op.sink_call_ns += dur;
            op.sink_cpu_ns += rec.cpu_ns;
            op.sink_calls += 1;
          }
          if (rec.combine || rec.completes_run) {
            op.run_sort_call_ns += dur;
            op.run_sort_cpu_ns += rec.cpu_ns;
          }
          recorder->Record(Span{rec.combine ? "combine"
                                : rec.completes_run ? "sink.call+run_sort"
                                                    : "sink.call",
                                rec.start_ns, rec.end_ns, recorder->NewId(),
                                sink_id, op_id, rec.tid});
        }
      }
      if (first_sink > last_combine) first_sink = last_combine = t0;
      op.sink_wall_ns = last_combine - first_sink;
      op.scan_chunks = static_cast<int64_t>(scan_calls.size());
      recorder->Record(Span{"sort", t0, t1, root, 0, op_id, main_tid});
      recorder->Record(Span{"sink", first_sink, last_combine, sink_id, root,
                            op_id, main_tid});
      recorder->Record(Span{"merge", merge_start, merge_end, merge_id, root,
                            op_id, main_tid});
      recorder->Record(
          Span{"scan", scan_start, t1, scan_id, root, op_id, main_tid});
      for (const CallRecord& rec : scan_calls) {
        recorder->Record(Span{"scan.chunk", rec.start_ns, rec.end_ns,
                              recorder->NewId(), scan_id, op_id, main_tid});
      }
    }
  } catch (const std::exception& e) {
    st = Status::Internal(std::string("exception: ") + e.what());
  }
  op.metrics = sort.metrics();
  // Timing has stopped; check the output against the input.
  if (!st.ok()) {
    op.error = st.ToString();
  } else {
    op.error = sortbench::CheckSortOutput(out, w.spec, expected);
  }
  op.ok = op.error.empty();
  return op;
}

std::string EngineOpJson(const EngineOp& op) {
  JsonObject o;
  o.Int("traced", op.traced)
      .Int("ok", op.ok)
      .Str("error", op.error)
      .Num("sort_s", Seconds(op.sort_ns))
      .Raw("usage", UsageJson(op.usage).Done())
      .Raw("metrics", SortMetricsJson(op.metrics).Done());
  if (op.traced) {
    o.Num("sink_wall_s", Seconds(op.sink_wall_ns))
        .Num("merge_wall_s", Seconds(op.merge_wall_ns))
        .Num("scan_wall_s", Seconds(op.scan_wall_ns))
        .Num("sink_call_s", Seconds(op.sink_call_ns))
        .Num("sink_cpu_s", Seconds(op.sink_cpu_ns))
        .Int("sink_calls", op.sink_calls)
        .Num("run_sort_call_s", Seconds(op.run_sort_call_ns))
        .Num("run_sort_cpu_s", Seconds(op.run_sort_cpu_ns))
        .Int("scan_chunks", op.scan_chunks)
        .Raw("usage_sink", UsageJson(op.usage_sink).Done())
        .Raw("usage_merge", UsageJson(op.usage_merge).Done())
        .Raw("usage_scan", UsageJson(op.usage_scan).Done())
        .Int("pool_tasks", op.pool.tasks)
        .Num("pool_queue_wait_s", op.pool.queue_wait_s)
        .Num("pool_busy_s", op.pool.busy_s);
  }
  return o.Done();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_out;
  std::string spill_dir;
};

/// Times kSetupReps input generations (+ pool or service construction) and
/// asserts that each repetition reproduces the same input checksum.
struct SetupLog {
  std::vector<double> seconds;
  uint64_t checksum = 0;
  bool reproducible = true;

  void Add(double s, uint64_t sum) {
    if (!seconds.empty() && sum != checksum) reproducible = false;
    seconds.push_back(s);
    checksum = sum;
  }
  JsonObject Json() const {
    JsonObject o;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, checksum);
    o.Raw("setup_s", JsonArray(seconds))
        .Str("input_checksum", hex)
        .Int("reproducible", reproducible);
    return o;
  }
};

int RunEngine(const Args& args, const EngineWorkload& w, JsonObject* result) {
  SetupLog setup;
  Table input;
  std::unique_ptr<ThreadPool> pool;
  for (uint64_t rep = 0; rep < kSetupReps; ++rep) {
    pool.reset();
    input = Table();
    const int64_t s0 = NowNs();
    input = w.make(args.seed);
    pool = std::make_unique<ThreadPool>(w.config.threads);
    const int64_t s1 = NowNs();
    setup.Add(Seconds(s1 - s0), sortbench::SequenceChecksum(input));
  }
  const RowMultiset expected = sortbench::MultisetOf(input);

  SpanRecorder recorder;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  auto note = [&](const EngineOp& op) {
    attempted += 1;
    if (!op.ok) {
      failed += 1;
      if (errors.size() < 5) errors.push_back(op.error);
    }
  };

  // Warm-up: first-touch allocation and lazy set-up happen before timing.
  const EngineOp warm =
      RunEngineOp(w, w.config, input, *pool, nullptr, 0, expected);
  note(warm);

  std::vector<std::string> ops;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t hard_stop = NowNs() + static_cast<int64_t>(kMaxMeasureS * 1e9);
  const uint64_t min_ops = args.trace ? 4 : 3;
  int64_t timed_ns = 0;
  for (uint64_t i = 0; timed_ns < budget_ns || i < min_ops; ++i) {
    if (NowNs() > hard_stop) break;
    // Traced runs alternate untraced and traced sorts, so the tracing
    // overhead is measured within one process.
    const bool traced = args.trace && i % 2 == 1;
    EngineOp op = RunEngineOp(w, w.config, input, *pool,
                              traced ? &recorder : nullptr, i + 1, expected);
    note(op);
    timed_ns += op.sort_ns;
    ops.push_back(EngineOpJson(op));
  }

  std::string counting = "null";
  if (args.trace) {
    // Comparison counts need count_comparisons, which also switches run
    // generation from radix sort to pdqsort. This one untimed sort supplies
    // merge.compares (the merge does not depend on the run algorithm) and
    // run_sort.compares where pdqsort is the measured algorithm anyway.
    SortEngineConfig config = w.config;
    config.count_comparisons = true;
    const EngineOp op =
        RunEngineOp(w, config, input, *pool, nullptr, 0, expected);
    note(op);
    counting = SortMetricsJson(op.metrics).Done();
  }
  if (args.trace && !args.trace_out.empty() &&
      !recorder.WriteChromeJson(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }

  RelationalSort probe(w.spec, input.types(), w.config);
  result->Raw("setup", setup.Json().Done())
      .Int("rows", input.row_count())
      .Int("uses_radix", !probe.comparator().needs_tie_resolution())
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("errors", JsonArray([&] {
             std::vector<std::string> quoted;
             for (const auto& e : errors) {
               quoted.push_back(JsonObject().Str("e", e).Done());
             }
             return quoted;
           }()))
      .Raw("ops", JsonArray(ops))
      .Raw("counting", counting)
      .Int("rss_peak_kb", ProcessUsage().maxrss_kb);
  return 0;
}

// ---------------------------------------------------------- service_mix

enum Kind : int { kSmall = 0, kTopN, kWindow, kJoin, kGiant, kKindCount };
const char* const kKindNames[kKindCount] = {"sort", "topn", "window", "join",
                                            "giant"};

// Input sizes, key ranges, run size, slots and budget follow the repo's
// service profile, bench/bench_service.cc. Like it, clients send their next
// request as soon as the last one is back; only the output check sits in
// between.
//
// Two departures from that profile keep the loop's figures steady on a
// shared 4-vCPU host, where the CPU time the hypervisor steals comes and
// goes over tens of seconds:
// - Submit runs each operator's body on the client's own thread, beside the
//   service's 2 pool workers. 3 interactive clients kept about 3.1 vCPUs
//   busy, and ten runs of one commit spread by 0.3 to 0.6 of their median.
//   2 interactive clients keep about 2.6 busy.
// - Each giant has a memory limit of its own, kGiantBytesPerRow, inside the
//   global budget, so it spills most of its runs itself. Without it a giant
//   grew into the whole budget, about one interactive request in three
//   first victim-spilled it on its own thread, and throughput fell by twice
//   the share of CPU stolen. In runs interleaved on one host the limit cut
//   the spread of p99, throughput and giant latency from 0.17, 0.12 and
//   0.12 of the median to 0.11, 0.06 and 0.06; victim spills still happen,
//   about one per nine requests.
constexpr uint64_t kInteractiveClients = 2;
constexpr uint64_t kGiantRows = 400000;
constexpr uint64_t kGiantBytesPerRow = 8;  // a giant's own peak is ~20
constexpr uint64_t kTopNLimit = 100;
constexpr uint64_t kRequestRunRows = 1 << 15;

/// INT32 key + INT64 payload. \p distinct_keys = a shuffled permutation of
/// [0, rows) (so Top-N has one right answer); else keys uniform below
/// \p key_range. Payload uniform below \p payload_range, or the row index
/// when it is 0.
Table MakeKeyPayload(uint64_t rows, uint64_t key_range, uint64_t payload_range,
                     bool distinct_keys, uint64_t seed) {
  Table table({LogicalType(TypeId::kInt32), LogicalType(TypeId::kInt64)},
              {"k", "v"});
  Random rng(seed);
  std::vector<int32_t> keys;
  if (distinct_keys) {
    keys.resize(rows);
    for (uint64_t i = 0; i < rows; ++i) keys[i] = static_cast<int32_t>(i);
    for (uint64_t i = rows; i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.Uniform(i)]);
    }
  }
  uint64_t produced = 0;
  while (produced < rows) {
    const uint64_t n = std::min<uint64_t>(kVectorSize, rows - produced);
    DataChunk chunk = table.NewChunk();
    for (uint64_t r = 0; r < n; ++r) {
      const uint64_t i = produced + r;
      const int32_t key = distinct_keys
                              ? keys[i]
                              : static_cast<int32_t>(rng.Uniform(key_range));
      const int64_t payload =
          payload_range == 0 ? static_cast<int64_t>(i)
                             : static_cast<int64_t>(rng.Uniform(payload_range));
      chunk.SetValue(0, r, Value::Int32(key));
      chunk.SetValue(1, r, Value::Int64(payload));
    }
    chunk.SetSize(n);
    table.Append(std::move(chunk));
    produced += n;
  }
  return table;
}

/// Builds a table of \p types from rows of Values.
Table TableOf(const std::vector<LogicalType>& types,
              const std::vector<std::vector<Value>>& rows) {
  Table table(types);
  for (uint64_t begin = 0; begin < rows.size(); begin += kVectorSize) {
    const uint64_t n = std::min<uint64_t>(kVectorSize, rows.size() - begin);
    DataChunk chunk = table.NewChunk();
    for (uint64_t r = 0; r < n; ++r) {
      for (uint64_t c = 0; c < types.size(); ++c) {
        chunk.SetValue(c, r, rows[begin + r][c]);
      }
    }
    chunk.SetSize(n);
    table.Append(std::move(chunk));
  }
  return table;
}

std::vector<std::vector<Value>> RowsOf(const Table& table) {
  std::vector<std::vector<Value>> rows;
  for (uint64_t c = 0; c < table.ChunkCount(); ++c) {
    const DataChunk& chunk = table.chunk(c);
    for (uint64_t r = 0; r < chunk.size(); ++r) {
      std::vector<Value> row;
      for (uint64_t col = 0; col < chunk.ColumnCount(); ++col) {
        row.push_back(chunk.GetValue(col, r));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// The mix's inputs plus independently computed expected answers.
struct ServiceInputs {
  Table small, topn, window, join_left, join_right, giant;
  SortSpec key_spec{{SortColumn(0, TypeId::kInt32)}};
  WindowSpec window_spec;
  RowMultiset small_expected, giant_expected, window_expected, join_expected;
  std::vector<std::vector<Value>> topn_expected;  ///< the first kTopNLimit rows

  void Make(uint64_t seed) {
    const uint64_t base = seed * 1000;
    small = MakeKeyPayload(4000, 1u << 30, 0, false, base + 1);
    // Distinct keys, so the Top-N has exactly one right answer.
    topn = MakeKeyPayload(100000, 0, 0, true, base + 2);
    // Ties in the ORDER BY column, so RANK has gaps to get right.
    window = MakeKeyPayload(100000, 1u << 10, 4096, false, base + 3);
    join_left = MakeKeyPayload(50000, 1u << 16, 0, false, base + 4);
    join_right = MakeKeyPayload(50000, 1u << 16, 0, false, base + 5);
    giant = MakeKeyPayload(kGiantRows, 1u << 30, 0, false, base + 6);
    window_spec.partition_by = {0};
    window_spec.order_by = {SortColumn(1, TypeId::kInt64)};
  }

  uint64_t Checksum() const {
    uint64_t h = 0;
    for (const Table* t : {&small, &topn, &window, &join_left, &join_right,
                           &giant}) {
      h = h * 0x100000001B3ULL ^ sortbench::SequenceChecksum(*t);
    }
    return h;
  }

  /// Oracles: naive algorithms on Values, never the engine.
  void ComputeExpected() {
    small_expected = sortbench::MultisetOf(small);
    giant_expected = sortbench::MultisetOf(giant);

    std::vector<std::vector<Value>> rows = RowsOf(topn);
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a[0] < b[0]; });
    rows.resize(std::min<uint64_t>(rows.size(), kTopNLimit));
    topn_expected = std::move(rows);

    // RANK() OVER (PARTITION BY k ORDER BY v): 1 + rows of the partition
    // with a strictly smaller v.
    std::vector<std::vector<Value>> wrows = RowsOf(window);
    std::map<int32_t, std::vector<int64_t>> partitions;
    for (const auto& r : wrows) {
      partitions[r[0].int32_value()].push_back(r[1].int64_value());
    }
    for (auto& [key, values] : partitions) {
      std::sort(values.begin(), values.end());
    }
    for (auto& r : wrows) {
      const auto& values = partitions[r[0].int32_value()];
      const int64_t smaller =
          std::lower_bound(values.begin(), values.end(), r[1].int64_value()) -
          values.begin();
      r.push_back(Value::Int64(smaller + 1));
    }
    window_expected = sortbench::MultisetOf(
        TableOf({LogicalType(TypeId::kInt32), LogicalType(TypeId::kInt64),
                 LogicalType(TypeId::kInt64)},
                wrows));

    // Inner equi-join on k: a hash join over Values.
    std::unordered_multimap<int32_t, std::vector<Value>> right;
    for (auto& r : RowsOf(join_right)) right.emplace(r[0].int32_value(), r);
    std::vector<std::vector<Value>> joined;
    for (const auto& l : RowsOf(join_left)) {
      auto [begin, end] = right.equal_range(l[0].int32_value());
      for (auto it = begin; it != end; ++it) {
        std::vector<Value> row = l;
        row.insert(row.end(), it->second.begin(), it->second.end());
        joined.push_back(std::move(row));
      }
    }
    join_expected = sortbench::MultisetOf(TableOf(
        {LogicalType(TypeId::kInt32), LogicalType(TypeId::kInt64),
         LogicalType(TypeId::kInt32), LogicalType(TypeId::kInt64)},
        joined));
  }

  /// Checks one result on the calling thread alone: other clients' requests
  /// are being timed meanwhile, and the check's resources are subtracted
  /// from the process totals through RUSAGE_THREAD.
  std::string Check(Kind kind, const Table& out) const {
    switch (kind) {
      case kSmall:
        return sortbench::CheckSortOutput(out, key_spec, small_expected, 1);
      case kGiant:
        return sortbench::CheckSortOutput(out, key_spec, giant_expected, 1);
      case kTopN: {
        const auto rows = RowsOf(out);
        if (rows.size() != topn_expected.size()) return "top-n row count";
        for (uint64_t i = 0; i < rows.size(); ++i) {
          if (!(rows[i][0] == topn_expected[i][0]) ||
              !(rows[i][1] == topn_expected[i][1])) {
            return "top-n row " + std::to_string(i) +
                   " differs from the full sort's prefix";
          }
        }
        return "";
      }
      case kWindow:
        return sortbench::MultisetOf(out, 1) == window_expected
                   ? ""
                   : "window rows or ranks differ from the naive rank";
      case kJoin: {
        const RowMultiset got = sortbench::MultisetOf(out, 1);
        if (got.rows != join_expected.rows) {
          return "join row count " + std::to_string(got.rows) + " != " +
                 std::to_string(join_expected.rows);
        }
        return got == join_expected ? "" : "join row hash differs";
      }
      default:
        return "unknown kind";
    }
  }
};

/// One service request as the client saw it.
struct Request {
  int kind = kSmall;
  uint64_t client = 0;
  uint64_t seq = 0;  ///< per-client submission index
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  bool traced = false;
  uint64_t span_id = 0;  ///< traced: the request's root span
  Usage client_usage;    ///< traced: the client thread's usage in Submit
  int64_t client_cpu_ns = 0;
  std::string error;
  SortMetrics metrics;  ///< giants only
};

OperatorRequest BuildRequest(const ServiceInputs& in, Kind kind,
                             const std::string& spill_dir) {
  OperatorRequest request;
  request.engine.spill_directory = spill_dir;
  request.engine.run_size_rows = kRequestRunRows;
  switch (kind) {
    case kGiant:
      request.engine.memory_limit_bytes = kGiantRows * kGiantBytesPerRow;
      [[fallthrough]];
    case kSmall:
      request.op = OperatorKind::kSort;
      request.spec = in.key_spec;
      break;
    case kTopN:
      request.op = OperatorKind::kTopN;
      request.spec = in.key_spec;
      request.limit = kTopNLimit;
      break;
    case kWindow:
      request.op = OperatorKind::kWindow;
      request.window = in.window_spec;
      request.functions = {WindowFunction::kRank};
      break;
    case kJoin:
      request.op = OperatorKind::kMergeJoin;
      request.keys = {{0, 0}};
      break;
    default:
      break;
  }
  request.priority =
      kind == kGiant ? TaskPriority::kLow : TaskPriority::kNormal;
  return request;
}

StatusOr<Table> Submit(SortService& service, const ServiceInputs& in,
                       Kind kind, const OperatorRequest& request,
                       SortMetrics* metrics) {
  switch (kind) {
    case kSmall:
      return service.Submit(in.small, request, metrics);
    case kTopN:
      return service.Submit(in.topn, request, metrics);
    case kWindow:
      return service.Submit(in.window, request, metrics);
    case kJoin:
      return service.Submit(in.join_left, in.join_right, request, metrics);
    default:
      return service.Submit(in.giant, request, metrics);
  }
}

/// Interactive mix 5:3:1:1 (sort : Top-N : window : merge join).
Kind InteractiveKind(uint64_t seq) {
  switch (seq % 10) {
    case 5:
    case 6:
    case 7:
      return kTopN;
    case 8:
      return kWindow;
    case 9:
      return kJoin;
    default:
      return kSmall;
  }
}

SortServiceConfig ServiceConfig() {
  SortServiceConfig config;
  config.threads = kThreads;
  // About one giant's unlimited footprint. Beside a giant held to its own
  // limit, concurrent windows and joins still overrun it now and then, and
  // then pick the giant as the victim.
  config.memory_limit_bytes = kGiantRows * 24;
  config.max_running = 6;
  config.max_queued = 128;
  config.queue_wait_limit_ms = 30000;
  config.tenant_max_running = 6;
  config.telemetry_sample_interval_ms = 50;
  config.pool_stats = true;
  // Large enough that a run's admission decisions never wrap the ring.
  config.flight_recorder_capacity = 1 << 18;
  return config;
}

int RunService(const Args& args, JsonObject* result) {
  SetupLog setup;
  ServiceInputs in;
  std::unique_ptr<SortService> service;
  for (uint64_t rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    in = ServiceInputs();
    const int64_t s0 = NowNs();
    in.Make(args.seed);
    service = std::make_unique<SortService>(ServiceConfig());
    const int64_t s1 = NowNs();
    setup.Add(Seconds(s1 - s0), in.Checksum());
  }
  in.ComputeExpected();

  uint64_t warm_failed = 0;
  std::string warm_error;
  for (int kind = 0; kind < kKindCount; ++kind) {
    OperatorRequest request =
        BuildRequest(in, static_cast<Kind>(kind), args.spill_dir);
    request.tenant = "warmup";
    auto out = Submit(*service, in, static_cast<Kind>(kind), request, nullptr);
    const std::string error = out.ok() ? in.Check(static_cast<Kind>(kind),
                                                  out.value())
                                       : out.status().ToString();
    if (!error.empty()) {
      warm_failed += 1;
      warm_error = error;
    }
  }

  const SortServiceStats stats_before = service->StatsSnapshot();
  const ThreadPoolStatsSnapshot pool_before = service->PoolStatsSnapshot();
  std::vector<std::vector<Request>> per_client(kInteractiveClients + 1);
  SpanRecorder recorder;
  // Resources the clients' output checks use, subtracted from the process
  // totals (microseconds and faults, so each client can add its own).
  std::atomic<int64_t> check_user_us{0}, check_sys_us{0}, check_minflt{0};
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(args.seconds * 1e9);

  auto client = [&](uint64_t c) {
    const bool giant = c == kInteractiveClients;
    const std::string tenant =
        giant ? "giant" : "interactive-" + std::to_string(c);
    std::vector<Request>& log = per_client[c];
    for (uint64_t seq = 0; NowNs() < deadline; ++seq) {
      Request r;
      r.kind = giant ? kGiant : InteractiveKind(seq);
      r.client = c;
      r.seq = seq;
      // Traced runs trace every other block of ten requests (one full round
      // of the mix); the rest run the same mix untraced, which gives the
      // tracing overhead.
      r.traced = args.trace && (seq / 10) % 2 == 1;
      OperatorRequest request =
          BuildRequest(in, static_cast<Kind>(r.kind), args.spill_dir);
      request.tenant = tenant;
      // A quarter of the interactive requests are urgent, as in the profile.
      if (!giant && seq % 4 == 0) request.priority = TaskPriority::kHigh;
      SortMetrics metrics;
      Usage usage0;
      int64_t cpu0 = 0;
      if (r.traced) {
        usage0 = ThreadUsage();
        cpu0 = ThreadCpuNs();
      }
      r.start_ns = NowNs();
      auto out = Submit(*service, in, static_cast<Kind>(r.kind), request,
                        giant ? &metrics : nullptr);
      r.end_ns = NowNs();
      if (r.traced) {
        // The request's root span is recorded as it ends; its queued and run
        // children come from the flight recorder after the loop.
        r.client_cpu_ns = ThreadCpuNs() - cpu0;
        r.client_usage = Minus(ThreadUsage(), usage0);
        r.span_id = recorder.NewId();
        recorder.Record(Span{kKindNames[r.kind], r.start_ns, r.end_ns,
                             r.span_id, 0, r.span_id, c + 1});
      }
      // Timing stopped: check the result. Its CPU is subtracted below.
      const Usage before = ThreadUsage();
      if (!out.ok()) {
        r.error = out.status().ToString();
      } else {
        r.error = in.Check(static_cast<Kind>(r.kind), out.value());
      }
      r.ok = r.error.empty();
      r.metrics = metrics;
      const Usage spent = Minus(ThreadUsage(), before);
      check_user_us += static_cast<int64_t>(spent.user_s * 1e6);
      check_sys_us += static_cast<int64_t>(spent.sys_s * 1e6);
      check_minflt += spent.minflt;
      log.push_back(std::move(r));
    }
  };
  const Usage u0 = ProcessUsage();
  std::vector<std::thread> threads;
  for (uint64_t c = 0; c <= kInteractiveClients; ++c) {
    threads.emplace_back(client, c);
  }
  for (auto& t : threads) t.join();
  const int64_t t1 = NowNs();
  Usage usage = Minus(ProcessUsage(), u0);
  usage.user_s -= check_user_us * 1e-6;
  usage.sys_s -= check_sys_us * 1e-6;
  usage.minflt -= check_minflt;
  const SortServiceStats stats = service->StatsSnapshot();
  const PoolDelta pool = PoolMinus(service->PoolStatsSnapshot(), pool_before);

  // Exact per-query admission waits and per-request run intervals from the
  // flight recorder (enqueue -> admit -> outcome). Each client is a closed
  // loop under its own tenant, so its k-th enqueue is its k-th request.
  struct FlightTimes {
    int64_t enqueue = 0, admit = 0, end = 0;
  };
  std::map<std::pair<uint64_t, uint64_t>, FlightTimes> flight_by_request;
  std::vector<double> queue_wait_ms;
  uint64_t flight_dropped = 0;
  if (args.trace && service->flight_recorder() != nullptr) {
    FlightRecorder* flight = service->flight_recorder();
    flight_dropped = flight->dropped();
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> request_of_query;
    std::map<std::string, uint64_t> enqueues;
    for (const FlightEventView& e : flight->Snapshot()) {
      if (e.kind == FlightEventKind::kEnqueue) {
        const std::string tenant = e.tenant;
        uint64_t c = kInteractiveClients;
        if (tenant.rfind("interactive-", 0) == 0) {
          c = std::stoull(tenant.substr(12));
        } else if (tenant != "giant") {
          continue;
        }
        request_of_query[e.query_id] = {c, enqueues[tenant]++};
      }
      auto it = request_of_query.find(e.query_id);
      if (it == request_of_query.end()) continue;
      FlightTimes& t = flight_by_request[it->second];
      switch (e.kind) {
        case FlightEventKind::kEnqueue:
          t.enqueue = e.t_ns;
          break;
        case FlightEventKind::kAdmit:
          t.admit = e.t_ns;
          break;
        case FlightEventKind::kVictimSpill:
          break;
        default:  // the outcome: complete, fail, shed, deadline, cancel
          t.end = e.t_ns;
          break;
      }
    }
    for (const auto& [request, t] : flight_by_request) {
      if (t.admit != 0) queue_wait_ms.push_back((t.admit - t.enqueue) * 1e-6);
    }
  }

  uint64_t attempted = kKindCount;
  uint64_t failed = warm_failed;
  std::vector<std::string> errors;
  if (!warm_error.empty()) {
    errors.push_back(JsonObject().Str("e", warm_error).Done());
  }
  std::vector<std::string> requests;
  for (const auto& log : per_client) {
    for (const Request& r : log) {
      attempted += 1;
      if (!r.ok) {
        failed += 1;
        if (errors.size() < 5) {
          errors.push_back(JsonObject().Str("e", r.error).Done());
        }
      }
      JsonObject o;
      o.Int("kind", r.kind)
          .Int("client", r.client)
          .Int("start_ns", r.start_ns)
          .Int("end_ns", r.end_ns)
          .Int("ok", r.ok)
          .Int("traced", r.traced);
      if (r.traced) {
        o.Num("client_cpu_s", Seconds(r.client_cpu_ns))
            .Raw("client_usage", UsageJson(r.client_usage).Done());
      }
      if (r.kind == kGiant) {
        o.Raw("metrics", SortMetricsJson(r.metrics).Done());
      }
      auto flight = flight_by_request.find({r.client, r.seq});
      if (flight != flight_by_request.end()) {
        const FlightTimes& t = flight->second;
        o.Int("enqueue_ns", t.enqueue).Int("admit_ns", t.admit).Int(
            "outcome_ns", t.end);
        if (r.traced && t.admit != 0 && t.end != 0) {
          // request > {service.queued, service.run}; the rest of the
          // request's wall time is unattributed.
          recorder.Record(Span{"service.queued", t.enqueue, t.admit,
                               recorder.NewId(), r.span_id, r.span_id,
                               r.client + 1});
          recorder.Record(Span{"service.run", t.admit, t.end,
                               recorder.NewId(), r.span_id, r.span_id,
                               r.client + 1});
        }
      }
      requests.push_back(o.Done());
    }
  }
  if (args.trace && !args.trace_out.empty() &&
      !recorder.WriteChromeJson(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }

  JsonObject service_stats;
  service_stats
      .Int("admitted", stats.admitted - stats_before.admitted)
      .Int("express_admitted",
           stats.express_admitted - stats_before.express_admitted)
      .Int("shed", (stats.shed_queue_full + stats.shed_wait_budget +
                    stats.shed_queued_cancel) -
                       (stats_before.shed_queue_full +
                        stats_before.shed_wait_budget +
                        stats_before.shed_queued_cancel))
      .Int("victim_spills", stats.victim_spills - stats_before.victim_spills)
      .Int("victim_bytes_freed",
           stats.victim_bytes_freed - stats_before.victim_bytes_freed)
      .Int("max_queue_depth", stats.max_queue_depth)
      .Int("completed", stats.completed - stats_before.completed);
  JsonObject pool_json;
  pool_json.Int("tasks", pool.tasks)
      .Num("queue_wait_s", pool.queue_wait_s)
      .Num("busy_s", pool.busy_s);

  result->Raw("setup", setup.Json().Done())
      .Int("rows", kGiantRows)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("errors", JsonArray(errors))
      .Num("window_s", Seconds(t1 - t0))
      .Raw("usage", UsageJson(usage).Done())
      .Num("check_cpu_s", (check_user_us + check_sys_us) * 1e-6)
      .Raw("requests", JsonArray(requests))
      .Raw("service", service_stats.Done())
      .Raw("pool", pool_json.Done())
      .Raw("queue_wait_ms", JsonArray(queue_wait_ms))
      .Int("flight_dropped", flight_dropped)
      .Int("rss_peak_kb", ProcessUsage().maxrss_kb);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--spill-dir") {
      args->spill_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->out.empty() &&
         !args->spill_dir.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sortbench_run --workload W --seed N --seconds S "
                 "--trace 0|1 --out RAW.json --spill-dir DIR "
                 "[--trace-out TRACE.json]\n");
    return 2;
  }
  std::filesystem::create_directories(args.spill_dir);

  JsonObject result;
  result.Str("workload", args.workload)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Int("trace", args.trace)
      .Num("seconds", args.seconds)
      .Int("threads", kThreads)
      .Str("build_type", SORTBENCH_BUILD_TYPE)
      .Str("cxx_flags", SORTBENCH_CXX_FLAGS)
      .Str("compiler", SORTBENCH_COMPILER)
      .Str("rowsort_native", SORTBENCH_NATIVE);
  int rc = 0;
  EngineWorkload engine;
  if (args.workload == "service_mix") {
    rc = RunService(args, &result);
  } else if (MakeEngineWorkload(args.workload, args.spill_dir, &engine)) {
    rc = RunEngine(args, engine, &result);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  const std::string text = result.Done();
  const bool written = std::fwrite(text.data(), 1, text.size(), out) ==
                       text.size();
  if (std::fclose(out) != 0 || !written) return 1;
  return 0;
}
