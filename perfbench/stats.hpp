#pragma once
// The benchmark's own arithmetic: medians, the tail-percentile rule,
// median-of-segments throughput, span self time and lane occupancy.
// Header-only and free of library dependencies so that selftest.cpp can
// check every formula in isolation.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Median of the samples (mean of the two middle values for even counts);
/// 0 for an empty set.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

/// Samples a tail value must leave beyond it.
inline constexpr std::size_t kTailBeyond = 10;

/// The highest percentile that still has at least kTailBeyond samples
/// beyond it: the (n - kTailBeyond)-th smallest sample, i.e. percentile
/// 100 * (n - kTailBeyond) / n. With fewer than kTailBeyond + 1 samples no
/// such percentile exists and the maximum is reported (percentile 100,
/// beyond = 0), so callers can see the rule did not apply.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

[[nodiscard]] inline Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= kTailBeyond) {
    t.value = v.back();
    t.percentile = 100;
    return t;
  }
  const std::size_t rank = n - kTailBeyond;  // 1-based rank of the value
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = kTailBeyond;
  return t;
}

/// Throughput from equal-work segments: work per segment divided by the
/// median segment wall time, so one slow segment (a neighbour's burst)
/// does not move it. 0 when there are no segments.
[[nodiscard]] inline double median_segment_rate(
    double work_per_segment, std::vector<double> segment_seconds) {
  const double m = median(std::move(segment_seconds));
  return m > 0 ? work_per_segment / m : 0;
}

/// A recorded interval with a parent link (-1 = root).
struct Interval {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, and
/// children are clipped to the parent). Indexed like `spans`; parents are
/// matched by id.
[[nodiscard]] inline std::vector<std::int64_t> self_times(
    std::span<const Interval> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  std::vector<std::pair<std::int64_t, std::size_t>> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace_back(spans[i].id, i);
  }
  std::sort(by_id.begin(), by_id.end());
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(),
        std::pair<std::int64_t, std::size_t>(s.parent, 0));
    if (it == by_id.end() || it->first != s.parent) continue;
    kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    bool open = false;
    for (auto [a, b] : k) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

/// Lane-slot accounting of a lane-blocked multi-start solve: starts run in
/// consecutive blocks of `width` lanes, and a block keeps all its lanes
/// busy until its slowest lane finishes. `live` counts lane-iterations
/// that did work, `slots` the lane-iterations the blocks occupied.
struct LaneTally {
  std::int64_t live = 0;
  std::int64_t slots = 0;
  LaneTally& operator+=(const LaneTally& o) {
    live += o.live;
    slots += o.slots;
    return *this;
  }
  [[nodiscard]] double occupancy() const {
    return slots > 0 ? static_cast<double>(live) / static_cast<double>(slots)
                     : 0;
  }
};

/// Exact tally for one tensor's starts, from their per-start iteration
/// counts (in start order).
[[nodiscard]] inline LaneTally lane_tally(std::span<const int> iterations,
                                          int width) {
  LaneTally t;
  if (width < 1) return t;
  const auto w = static_cast<std::size_t>(width);
  for (std::size_t base = 0; base < iterations.size(); base += w) {
    const std::size_t end = std::min(iterations.size(), base + w);
    int longest = 0;
    for (std::size_t i = base; i < end; ++i) {
      t.live += iterations[i];
      longest = std::max(longest, iterations[i]);
    }
    t.slots += static_cast<std::int64_t>(longest) * width;
  }
  return t;
}

}  // namespace perfbench
