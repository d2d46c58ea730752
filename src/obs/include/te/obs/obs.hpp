#pragma once
// te::obs -- structured observability with a zero-cost disabled mode.
//
// The paper's headline claims are throughput numbers, and the repo's other
// subsystems (scheduler, GPU simulator, SS-HOPM) each grew their own ad-hoc
// counters. te::obs replaces the per-bench printf plumbing with one
// registry-based metric model:
//
//   Counter   -- monotone int64 (safe from any thread)
//   Gauge     -- last-written double (atomic; "current value" semantics)
//   Histogram -- count/total/min/max plus log2 buckets of a double-valued
//                observation stream (iteration counts, chunk latencies,
//                span durations). `Timer` is an alias: the canonical unit
//                for time-valued histograms is seconds.
//   Registry  -- thread-safe name -> metric table with stable references:
//                a Counter& fetched once stays valid for the registry's
//                lifetime, so hot paths resolve names once and then pay a
//                single relaxed atomic op per event.
//
// Counters and histograms are sharded into kCells cache-line-padded cells.
// A recording thread writes only the cell it leased on first use, so
// workers solving in parallel never write a shared cache line; the readers
// (value(), count(), buckets(), ...) fold over the cells. Cells stay atomic
// because more than kCells live threads share them round-robin: sharing
// costs contention, never a lost update.
//
// RAII trace spans (span.hpp) and JSON/CSV exporters (export.hpp) sit on
// top. Everything compiles to empty inline stubs when the build sets
// -DTE_OBS_DISABLED=1 (cmake -DTE_OBS=OFF): no storage, no atomics, no
// strings -- the disabled-mode micro-bench (bench_obs_overhead) exists to
// keep that claim honest.

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#if defined(TE_OBS_DISABLED)
#define TE_OBS_ENABLED 0
/// Statement-level gate: expands to nothing in disabled builds.
#define TE_OBS_ONLY(expr) ((void)0)
#else
#define TE_OBS_ENABLED 1
#define TE_OBS_ONLY(expr) expr
#endif

namespace te::obs {

/// Number of log2 latency buckets kept per histogram. Bucket i counts
/// observations in [2^i, 2^(i+1)) microseconds-equivalent units (see
/// Histogram::bucket_index); the first and last buckets absorb underflow
/// and overflow.
inline constexpr int kHistogramBuckets = 28;

// ---------------------------------------------------------------------------
// Snapshot value types (shared by both build modes so exporters and tools
// compile identically with TE_OBS=OFF; the snapshot is then just empty).
// ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0;
};

struct HistogramSample {
  std::string name;
  std::int64_t count = 0;
  double total = 0;
  double min = 0;
  double max = 0;
  std::array<std::int64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  }
  /// Estimated q-quantile (q in [0, 1]); see quantile_from_buckets.
  [[nodiscard]] double quantile(double q) const;
};

/// Estimate the q-quantile of a bucketed observation stream. Buckets follow
/// Histogram::bucket_index (bucket 0 = values below 1e-6, bucket i >= 1 =
/// [2^(i-1), 2^i) microseconds-equivalent); the estimate interpolates
/// linearly inside the bucket that crosses rank q * count and is clamped to
/// the exact recorded [min, max], so single-observation streams and the
/// extreme quantiles are exact. Returns 0 for an empty stream.
[[nodiscard]] double quantile_from_buckets(
    const std::array<std::int64_t, kHistogramBuckets>& buckets,
    std::int64_t count, double min, double max, double q);

inline double HistogramSample::quantile(double q) const {
  return quantile_from_buckets(buckets, count, min, max, q);
}

struct SpanSample {
  std::string path;   ///< dotted parent.child chain, e.g. "batch.run.chunk"
  int depth = 0;      ///< 0 = root span
  double start_seconds = 0;     ///< relative to the registry's epoch
  double duration_seconds = 0;
};

/// Point-in-time copy of a registry's contents, ordered by name (counters,
/// gauges, histograms) and by finish time (spans). This is what the
/// exporters consume.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanSample> spans;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           spans.empty();
  }
};

#if TE_OBS_ENABLED

// ---------------------------------------------------------------------------
// Enabled implementations.
// ---------------------------------------------------------------------------

namespace detail {

/// Cells per counter or histogram: enough for every worker of a host-sized
/// pool plus the serving threads around it.
inline constexpr int kCells = 16;

/// This thread's cell, -1 until leased. Constant-initialized, so reading it
/// is one thread-pointer-relative load: no TLS wrapper call, no guard.
inline constinit thread_local int tls_cell = -1;

/// Lease a cell for the calling thread (a free one if any, else shared
/// round-robin), store it in tls_cell and return it. The lease returns to
/// the free set when the thread exits.
int lease_cell();

[[nodiscard]] inline int cell() {
  const int c = tls_cell;
  return c >= 0 ? c : lease_cell();
}

}  // namespace detail

/// Monotone event counter. add() is one relaxed fetch_add on the calling
/// thread's own cell; value() sums the cells. Counters are statistics, not
/// synchronization.
class Counter {
 public:
  void inc() { add(1); }
  void add(std::int64_t n) {
    cells_[static_cast<std::size_t>(detail::cell())].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    std::int64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Cell, detail::kCells> cells_{};
};

/// Last-value gauge (queue depth, cache hit rate, occupancy fraction).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0};
};

/// Streaming histogram: count/total/min/max plus log2 buckets. record()
/// updates the calling thread's own cell with relaxed atomics (total,
/// min and max by CAS, which an unshared cell wins first try); the readers
/// fold over the cells. The small tearing window between fields is
/// acceptable for statistics.
class Histogram {
 public:
  void record(double v);

  [[nodiscard]] std::int64_t count() const;
  [[nodiscard]] double total() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const {
    const std::int64_t c = count();
    return c > 0 ? total() / static_cast<double>(c) : 0.0;
  }
  [[nodiscard]] std::array<std::int64_t, kHistogramBuckets> buckets() const;

  /// Estimated q-quantile of everything recorded so far (q in [0, 1]):
  /// p50 = quantile(0.5), p99 = quantile(0.99). Log2-bucket resolution --
  /// the estimate is exact at the recorded min/max and within one bucket
  /// (a factor of 2) elsewhere, which is the right grain for latency SLOs.
  [[nodiscard]] double quantile(double q) const {
    return quantile_from_buckets(buckets(), count(), min(), max(), q);
  }

  /// Bucket for one observation: log2 of the value in microsecond-scale
  /// units (values below 1e-6 land in bucket 0; huge values clamp to the
  /// last bucket). Exposed for the tests.
  [[nodiscard]] static int bucket_index(double v);

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> count{0};
    std::atomic<double> total{0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Cell, detail::kCells> cells_{};
};

/// Time-valued histogram; canonical unit: seconds.
using Timer = Histogram;

/// Thread-safe named-metric table. Lookup is mutex-guarded (intended for
/// cold paths: resolve once, cache the reference); the returned references
/// stay valid for the registry's lifetime (deque-backed storage, entries
/// are never erased). Spans land in a bounded ring so a long-running
/// process cannot grow without bound.
class Registry {
 public:
  explicit Registry(std::size_t span_capacity = 1024);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);
  /// Alias of histogram(): a timer is a histogram of seconds.
  [[nodiscard]] Timer& timer(const std::string& name) {
    return histogram(name);
  }

  /// Record one finished trace span (called by obs::Span's destructor).
  void record_span(const std::string& path, int depth, double start_seconds,
                   double duration_seconds);

  /// Seconds since this registry was constructed (span timestamps base).
  [[nodiscard]] double now_seconds() const;

  /// Copy-out of every metric, ordered by name. Values are read with
  /// relaxed loads; concurrent writers may or may not be included.
  [[nodiscard]] Snapshot snapshot() const;

  /// Drop every metric and span (bench/test isolation; references returned
  /// earlier become dangling -- callers that cache references must not use
  /// reset() concurrently with recording).
  void reset();

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-wide default registry used by the built-in instrumentation
/// (kernel dispatch, SS-HOPM, the batch scheduler, gpusim launches).
[[nodiscard]] Registry& global();

#else  // !TE_OBS_ENABLED

// ---------------------------------------------------------------------------
// Disabled stubs: identical API, no storage, no side effects. Everything is
// inline and trivially dead-code-eliminated.
// ---------------------------------------------------------------------------

class Counter {
 public:
  void inc() {}
  void add(std::int64_t) {}
  [[nodiscard]] std::int64_t value() const { return 0; }
};

class Gauge {
 public:
  void set(double) {}
  [[nodiscard]] double value() const { return 0; }
};

class Histogram {
 public:
  void record(double) {}
  [[nodiscard]] std::int64_t count() const { return 0; }
  [[nodiscard]] double total() const { return 0; }
  [[nodiscard]] double min() const { return 0; }
  [[nodiscard]] double max() const { return 0; }
  [[nodiscard]] double mean() const { return 0; }
  [[nodiscard]] std::array<std::int64_t, kHistogramBuckets> buckets() const {
    return {};
  }
  [[nodiscard]] double quantile(double) const { return 0; }
  [[nodiscard]] static int bucket_index(double) { return 0; }
};

using Timer = Histogram;

class Registry {
 public:
  explicit Registry(std::size_t = 0) {}
  [[nodiscard]] Counter& counter(const std::string&) { return counter_; }
  [[nodiscard]] Gauge& gauge(const std::string&) { return gauge_; }
  [[nodiscard]] Histogram& histogram(const std::string&) { return hist_; }
  [[nodiscard]] Timer& timer(const std::string&) { return hist_; }
  void record_span(const std::string&, int, double, double) {}
  [[nodiscard]] double now_seconds() const { return 0; }
  [[nodiscard]] Snapshot snapshot() const { return {}; }
  void reset() {}

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram hist_;
};

[[nodiscard]] inline Registry& global() {
  static Registry r;
  return r;
}

#endif  // TE_OBS_ENABLED

}  // namespace te::obs
