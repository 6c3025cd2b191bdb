// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// The benchmark's own span recorder for its traced run. Spans are recorded
// around calls into the library's public entry points, kept in memory, and
// written out as Chrome/Perfetto JSON once the run ends. The engine's own
// Tracer stays off: only the benchmark's spans exist.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sortbench {

/// steady_clock nanoseconds (the same base the service's flight recorder
/// stamps its events with).
int64_t NowNs();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), nanoseconds.
int64_t ThreadCpuNs();

struct Span {
  const char* name = "";  ///< static literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t op = 0;      ///< per-operation id shared by all spans of one op
  uint64_t tid = 0;     ///< recording thread's slot
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Fresh span id (ids start at 1; 0 means "no parent").
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends a finished span; thread-safe.
  void Record(const Span& span);

  /// Small stable per-thread slot, for the exported track.
  static uint64_t ThreadSlot();

  /// Writes every span as a Chrome/Perfetto "X" event; false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

}  // namespace sortbench
