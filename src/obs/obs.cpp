#include "te/obs/obs.hpp"

#include <algorithm>
#include <cmath>

namespace te::obs {

// Defined outside the TE_OBS gate: HistogramSample (and therefore snapshot
// post-processing in exporters and tools) exists in both build modes.
double quantile_from_buckets(
    const std::array<std::int64_t, kHistogramBuckets>& buckets,
    std::int64_t count, double min, double max, double q) {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the wanted observation, 1-based: ceil(q * count), at least 1.
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count))));
  std::int64_t cum = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const std::int64_t in_bucket = buckets[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    // Bucket i spans [lo, hi) in seconds (bucket 0 absorbs [0, 1e-6)).
    const double lo = i == 0 ? 0.0 : std::ldexp(1e-6, i - 1);
    const double hi = std::ldexp(1e-6, i);
    const double frac = (static_cast<double>(rank - cum) - 0.5) /
                        static_cast<double>(in_bucket);
    const double est = lo + (hi - lo) * frac;
    // The exact extremes are known; never report outside them.
    return std::clamp(est, min, max);
  }
  return max;  // all mass below rank (defensive; cannot happen)
}

}  // namespace te::obs

#if TE_OBS_ENABLED

#include <bit>
#include <chrono>
#include <map>
#include <mutex>

namespace te::obs {

// ---------------------------------------------------------------------------
// Per-thread cells.
// ---------------------------------------------------------------------------

namespace detail {
namespace {

static_assert(kCells <= 64, "the lease bitmap is one 64-bit word");
constexpr std::uint64_t kAllCells =
    kCells == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << kCells) - 1;

std::atomic<std::uint64_t> leased_cells{0};  ///< bit i: cell i held
std::atomic<unsigned> next_shared_cell{0};

/// Owns the calling thread's cell bit; gives it back at thread exit so
/// pools created and joined over a process lifetime reuse cells instead of
/// piling onto shared ones. Touched only on the lease path, never per event.
struct CellLease {
  int cell = -1;
  ~CellLease() {
    if (cell >= 0) {
      leased_cells.fetch_and(~(std::uint64_t{1} << cell),
                             std::memory_order_relaxed);
    }
  }
};
thread_local CellLease lease;

}  // namespace

int lease_cell() {
  std::uint64_t held = leased_cells.load(std::memory_order_relaxed);
  int c = -1;
  while (const std::uint64_t avail = ~held & kAllCells) {
    const int i = std::countr_zero(avail);
    if (leased_cells.compare_exchange_weak(held, held | (std::uint64_t{1} << i),
                                           std::memory_order_relaxed)) {
      c = i;
      lease.cell = i;
      break;
    }
  }
  if (c < 0) {
    // Every cell is held: share one. Still exact, only contended.
    c = static_cast<int>(
        next_shared_cell.fetch_add(1, std::memory_order_relaxed) % kCells);
  }
  tls_cell = c;
  return c;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

void Histogram::record(double v) {
  Cell& c = cells_[static_cast<std::size_t>(detail::cell())];
  c.count.fetch_add(1, std::memory_order_relaxed);
  double t = c.total.load(std::memory_order_relaxed);
  while (!c.total.compare_exchange_weak(t, t + v, std::memory_order_relaxed)) {
  }
  double lo = c.min.load(std::memory_order_relaxed);
  while (v < lo &&
         !c.min.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = c.max.load(std::memory_order_relaxed);
  while (v > hi &&
         !c.max.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
  c.buckets[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
}

std::int64_t Histogram::count() const {
  std::int64_t n = 0;
  for (const Cell& c : cells_) n += c.count.load(std::memory_order_relaxed);
  return n;
}

double Histogram::total() const {
  double t = 0;
  for (const Cell& c : cells_) t += c.total.load(std::memory_order_relaxed);
  return t;
}

double Histogram::min() const {
  if (count() == 0) return 0.0;
  double lo = std::numeric_limits<double>::infinity();
  for (const Cell& c : cells_) {
    lo = std::min(lo, c.min.load(std::memory_order_relaxed));
  }
  return lo;
}

double Histogram::max() const {
  if (count() == 0) return 0.0;
  double hi = -std::numeric_limits<double>::infinity();
  for (const Cell& c : cells_) {
    hi = std::max(hi, c.max.load(std::memory_order_relaxed));
  }
  return hi;
}

std::array<std::int64_t, kHistogramBuckets> Histogram::buckets() const {
  std::array<std::int64_t, kHistogramBuckets> out{};
  for (const Cell& c : cells_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += c.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

int Histogram::bucket_index(double v) {
  // Bucket 0: v < 1 (in microsecond-scale units, i.e. v * 1e6 < 1), NaN and
  // non-positive values; bucket i >= 1: [2^(i-1), 2^i); last bucket clamps.
  const double us = v * 1e6;
  if (!(us >= 1.0)) return 0;
  const int e = std::ilogb(us);  // floor(log2(us)) for finite us >= 1
  if (e >= kHistogramBuckets - 1) return kHistogramBuckets - 1;
  return e + 1;
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

struct Registry::Impl {
  using clock = std::chrono::steady_clock;

  mutable std::mutex mutex;
  // std::map gives stable element addresses (node-based) and name-ordered
  // snapshots for free.
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Histogram> histograms;
  std::vector<SpanSample> spans;  ///< bounded ring, `span_next` = write slot
  std::size_t span_capacity;
  std::size_t span_next = 0;
  std::int64_t spans_recorded = 0;
  clock::time_point epoch = clock::now();

  explicit Impl(std::size_t cap) : span_capacity(cap) {}
};

Registry::Registry(std::size_t span_capacity)
    : impl_(new Impl(span_capacity)) {}

Registry::~Registry() { delete impl_; }

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(impl_->mutex);
  return impl_->counters[name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(impl_->mutex);
  return impl_->gauges[name];
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard lock(impl_->mutex);
  return impl_->histograms[name];
}

void Registry::record_span(const std::string& path, int depth,
                           double start_seconds, double duration_seconds) {
  std::lock_guard lock(impl_->mutex);
  if (impl_->span_capacity == 0) return;
  SpanSample s;
  s.path = path;
  s.depth = depth;
  s.start_seconds = start_seconds;
  s.duration_seconds = duration_seconds;
  if (impl_->spans.size() < impl_->span_capacity) {
    impl_->spans.push_back(std::move(s));
  } else {
    impl_->spans[impl_->span_next] = std::move(s);
  }
  impl_->span_next = (impl_->span_next + 1) % impl_->span_capacity;
  ++impl_->spans_recorded;
}

double Registry::now_seconds() const {
  return std::chrono::duration<double>(Impl::clock::now() - impl_->epoch)
      .count();
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(impl_->mutex);
  Snapshot snap;
  snap.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) {
    snap.counters.push_back({name, c.value()});
  }
  snap.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, g] : impl_->gauges) {
    snap.gauges.push_back({name, g.value()});
  }
  snap.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    HistogramSample s;
    s.name = name;
    s.count = h.count();
    s.total = h.total();
    s.min = h.min();
    s.max = h.max();
    s.buckets = h.buckets();
    snap.histograms.push_back(std::move(s));
  }
  // Ring -> oldest-first order.
  const std::size_t n = impl_->spans.size();
  snap.spans.reserve(n);
  const std::size_t first =
      n < impl_->span_capacity ? 0 : impl_->span_next;
  for (std::size_t i = 0; i < n; ++i) {
    snap.spans.push_back(impl_->spans[(first + i) % n]);
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(impl_->mutex);
  impl_->counters.clear();
  impl_->gauges.clear();
  impl_->histograms.clear();
  impl_->spans.clear();
  impl_->span_next = 0;
  impl_->spans_recorded = 0;
  impl_->epoch = Impl::clock::now();
}

Registry& global() {
  static Registry r;
  return r;
}

}  // namespace te::obs

#endif  // TE_OBS_ENABLED
