// Copyright 2026 the rowsort authors. Licensed under the MIT license.
#include "spans.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace sortbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

uint64_t SpanRecorder::ThreadSlot() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t slot = next.fetch_add(1);
  return slot;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%llu,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}",
                 first ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.tid),
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace sortbench
