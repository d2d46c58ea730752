// Unit tests of the benchmark's own arithmetic (stats.hpp), its span
// recorder (trace.hpp) and its metric catalogue (metrics.hpp). Exits
// non-zero if any check fails; run through test_bench.py or directly:
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * (1 + std::abs(b)); }

void test_median() {
  using perfbench::median;
  EXPECT(median({}) == 0);
  EXPECT(median({3}) == 3);
  EXPECT(median({5, 1, 3}) == 3);
  EXPECT(median({4, 1, 3, 2}) == 2.5);
}

void test_tail_rule() {
  using perfbench::tail;
  // 60 samples 1..60: the 50th smallest leaves exactly 10 beyond it.
  std::vector<double> v;
  for (int i = 60; i >= 1; --i) v.push_back(i);
  const auto t = tail(v);
  EXPECT(t.value == 50);
  EXPECT(t.beyond == 10);
  EXPECT(t.samples == 60);
  EXPECT(near(t.percentile, 100.0 * 50 / 60));
  // 11 samples: the smallest is the only value with 10 beyond it.
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  EXPECT(tail(eleven).value == 1);
  // Too few samples for the rule: the maximum, flagged with beyond == 0.
  const auto few = tail({7, 9, 8});
  EXPECT(few.value == 9 && few.beyond == 0 && few.percentile == 100);
  EXPECT(tail({}).samples == 0);
}

void test_median_segment_rate() {
  using perfbench::median_segment_rate;
  // One slow segment (a neighbour's burst) does not move the rate.
  EXPECT(median_segment_rate(10, {1, 1, 1, 100, 1}) == 10);
  EXPECT(median_segment_rate(10, {2, 2, 4, 4}) == 10.0 / 3);
  EXPECT(median_segment_rate(10, {}) == 0);
}

void test_self_times() {
  using perfbench::Interval;
  // Parent [0, 100] with overlapping children [10, 30] and [20, 40], a
  // separate child [60, 70] and one sticking out past the end [90, 120];
  // a grandchild [12, 14] counts against its own parent only.
  const std::vector<Interval> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 30}, {2, 0, 20, 40},
      {3, 0, 60, 70},  {4, 0, 90, 120}, {5, 1, 12, 14},
  };
  const auto self = perfbench::self_times(spans);
  EXPECT(self[0] == 100 - (30 + 10 + 10));
  EXPECT(self[1] == 20 - 2);
  EXPECT(self[2] == 20);
  EXPECT(self[4] == 30);
  EXPECT(self[5] == 2);
  // Children listed before their parent, unknown parents ignored.
  const std::vector<Interval> shuffled = {{7, 9, 5, 6}, {9, -1, 0, 10},
                                          {8, 42, 0, 10}};
  const auto s2 = perfbench::self_times(shuffled);
  EXPECT(s2[1] == 9 && s2[2] == 10);
}

void test_lane_occupancy() {
  using perfbench::lane_tally;
  const std::vector<int> one_slow = {5, 1, 1, 1};
  const auto t = lane_tally(one_slow, 4);
  EXPECT(t.live == 8 && t.slots == 20);
  EXPECT(near(t.occupancy(), 0.4));
  EXPECT(lane_tally(one_slow, 1).occupancy() == 1);
  // A partial final block still occupies every lane.
  const std::vector<int> partial = {3, 3, 3, 3, 2};
  const auto p = lane_tally(partial, 4);
  EXPECT(p.live == 14 && p.slots == 20);
  perfbench::LaneTally sum = t;
  sum += p;
  EXPECT(near(sum.occupancy(), 22.0 / 40));
  EXPECT(lane_tally(std::vector<int>{}, 8).occupancy() == 0);
}

void test_catalogue() {
  // Names are unique, and the end-to-end set includes setup_s in seconds.
  // (Name and unit syntax are checked against BENCHMARK.json by
  // test_bench.py.)
  std::set<std::string> seen;
  bool has_setup = false;
  for (const auto& m : perfbench::kMetrics) {
    EXPECT(seen.insert(m.name).second);
    if (std::string(m.name) == "setup_s") {
      has_setup = m.end_to_end && std::string(m.unit) == "s";
    }
  }
  EXPECT(has_setup);
}

void test_tracer() {
  perfbench::Tracer tr;
  {
    perfbench::Tracer::Scope op(&tr, "op", 7);
    { perfbench::Tracer::Scope child(&tr, "child"); }
    { perfbench::Tracer::Scope off(nullptr, "untraced"); }
  }
  const auto spans = tr.spans();
  EXPECT(spans.size() == 2);
  if (spans.size() == 2) {
    // Closed innermost first; the child inherits the request id.
    EXPECT(std::string(spans[0].name) == "child");
    EXPECT(spans[0].parent == spans[1].id);
    EXPECT(spans[0].request == 7 && spans[1].request == 7);
    EXPECT(spans[1].parent == -1);
    EXPECT(spans[1].start_ns <= spans[0].start_ns &&
           spans[0].end_ns <= spans[1].end_ns);
  }
  const auto op = tr.totals("op");
  const auto child = tr.totals("child");
  EXPECT(op.count == 1 && child.count == 1);
  EXPECT(op.self == op.wall - child.wall);
  EXPECT(tr.durations("child", 1.0).size() == 1);
}

}  // namespace

int main() {
  test_median();
  test_tail_rule();
  test_median_segment_rate();
  test_self_times();
  test_lane_occupancy();
  test_catalogue();
  test_tracer();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
