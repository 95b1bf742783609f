// harness.hpp — measurement plumbing for the tsdx benchmark (perfbench.cpp):
// sample stores and percentiles, the benchmark-side span log, process
// resource probes, and the bitwise result comparison every output check
// uses. Nothing here calls into the program under test except the result
// types it compares.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/extractor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline std::int64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

// ---- samples ------------------------------------------------------------------

/// Percentile `p` (0..100) of `v` by linear interpolation between order
/// statistics. Empty input reads 0.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Percentiles are reported only where at least this many samples lie
/// beyond them; a thinner tail is flagged in the human-readable output.
inline constexpr double kTailSamples = 10.0;

inline bool tail_supported(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p / 100.0) >= kTailSamples;
}

/// Thread-safe append-only sample store (worker threads record into it).
class Samples {
 public:
  void add(double x) {
    std::lock_guard<std::mutex> lock(mutex_);
    values_.push_back(x);
  }
  std::vector<double> values() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return values_;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    values_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
};

// ---- spans --------------------------------------------------------------------

/// One benchmark-side span: a call into a layer, timed from the
/// benchmark's own code. `req` is the benchmark's request id (shared by
/// every span of one request); `parent` is 0 for a root span.
struct Span {
  const char* name = "";
  std::uint64_t req = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store. Disabled, record() is one relaxed load; enabled,
/// spans accumulate until write() dumps them at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  SpanLog(const SpanLog&) = delete;  // recording threads hold its address
  SpanLog& operator=(const SpanLog&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint32_t reserve() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(const char* name, std::uint64_t req, Clock::time_point start,
              Clock::time_point end, std::uint32_t parent = 0,
              std::uint32_t id = 0) {
    if (!enabled()) return;
    Span s;
    s.name = name;
    s.req = req;
    s.id = id != 0 ? id : reserve();
    s.parent = parent;
    s.start_ns = ns_since(epoch_, start);
    s.end_ns = ns_since(epoch_, end);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// One JSON object per line.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans()) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"req\": %llu, \"id\": %u, "
                   "\"parent\": %u, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   s.name, static_cast<unsigned long long>(s.req), s.id,
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  const Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-name span totals: count, summed duration, and self time (duration
/// minus the part of it that child spans cover).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

inline std::map<std::string, SpanTotals> span_totals(
    const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    // Union of the child intervals clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  return out;
}

// ---- process probes -------------------------------------------------------------

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// User + system CPU seconds this process has consumed.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Host CPU ticks from /proc/stat: (steal, all). On a virtual machine,
/// steal is time the hypervisor gave this guest's vCPUs to someone else;
/// its share over a phase says how much a run's figures owe to neighbours.
/// Reads (0, 0) where /proc/stat is unavailable.
inline std::pair<double, double> steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double all = 0.0;
  for (const unsigned long long x : v) all += static_cast<double>(x);
  return {static_cast<double>(v[7]), all};
}

// ---- output checks ----------------------------------------------------------------

/// Bitwise equality of one extraction against its reference: description
/// (every label), confidences by memcmp (no tolerance), warnings.
inline bool same_result(const tsdx::core::ExtractionResult& a,
                        const tsdx::core::ExtractionResult& b) {
  return a.description == b.description &&
         std::memcmp(a.confidence.data(), b.confidence.data(),
                     a.confidence.size() * sizeof(float)) == 0 &&
         a.warnings == b.warnings;
}

}  // namespace perfbench
