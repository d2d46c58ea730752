// perfbench: the fixed-work end-to-end benchmark (see NOTES.md).
//
//   perfbench --workload table3|midshape|serve --seed N --seconds S
//             --trace 0|1 --scratch DIR [--setup-only] [--spans FILE]
//   perfbench --list-metrics
//
// Every workload generates its inputs from --seed and does a fixed amount
// of work derived from --seconds (a count of operations, never "as many as
// fit"), so two runs with the same arguments do identical work. Each
// operation's outputs are checked. Provenance and exact work counts are
// printed on "#"-prefixed lines; the last line is one JSON object with the
// run's correctness counts and metrics (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1).
//
// With --trace 1, odd-numbered operations run inside spans recorded by
// this file around each public library call, and even-numbered ones run
// untraced; the per-layer metrics come from the traced half and from exact
// counts, and trace.overhead_frac compares the two halves.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "stats.hpp"
#include "te/batch/batch.hpp"
#include "te/batch/scheduler.hpp"
#include "te/batch/table_cache.hpp"
#include "te/dwmri/dataset.hpp"
#include "te/io/checkpoint.hpp"
#include "te/io/writer.hpp"
#include "te/jit/engine.hpp"
#include "te/kernels/flop_model.hpp"
#include "te/kernels/multi_dispatch.hpp"
#include "te/serve/server.hpp"
#include "te/serve/wire.hpp"
#include "te/sshopm/multi.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/sphere.hpp"
#include "trace.hpp"

namespace {

namespace fs = std::filesystem;
using namespace te;
using perfbench::Tracer;
using Span = perfbench::Tracer::Scope;
using Clock = std::chrono::steady_clock;

// The seed kept out of all tuning; NOTES.md records it too.
constexpr std::uint64_t kHeldOutSeed = 20261017;

// ------------------------------------------------------------------------
// Run state shared by the workloads.
// ------------------------------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool setup_only = false;
  fs::path scratch;
  std::string spans_path;
  Clock::time_point t0 = Clock::now();

  Tracer tracer;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // provenance
  std::vector<std::pair<std::string, std::int64_t>> work;  // exact counts
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int reported_failures = 0;

  /// The tracer for operation `i`: set-up and odd operations are traced
  /// in a traced run, nothing is in an untraced one.
  [[nodiscard]] Tracer* tr(std::int64_t op = 1) {
    return trace && op % 2 == 1 ? &tracer : nullptr;
  }
  void set(const std::string& name, double v) { metrics[name] = v; }
  void note(const std::string& k, const std::string& v) {
    info.emplace_back(k, v);
  }
  void count(const std::string& k, std::int64_t v) { work.emplace_back(k, v); }
  /// Record one checked operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  /// Mark an already counted operation as failed.
  void fail(const std::string& what) {
    ++failed;
    if (reported_failures++ < 5) std::cerr << "check failed: " << what << "\n";
  }
  [[nodiscard]] double since_start() const {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }
};

/// Operations a workload runs: `per_second` times --seconds, but at least
/// `minimum` (by default enough latency samples for the tail rule to land
/// at or above the 75th percentile).
constexpr int kMinOps = 40;
[[nodiscard]] int op_count(double per_second, int seconds,
                           int minimum = kMinOps) {
  return std::max(minimum,
                  static_cast<int>(std::lround(per_second * seconds)));
}

[[nodiscard]] double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Keeps a computed value observable so timed kernel loops are not elided.
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// FNV-1a over the raw bytes of the generated inputs.
struct Checksum {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ULL;
    }
  }
  template <Real T>
  void add(const std::vector<SymmetricTensor<T>>& ts,
           const std::vector<std::vector<T>>& starts) {
    for (const auto& t : ts) {
      add(t.values().data(), t.values().size() * sizeof(T));
    }
    for (const auto& s : starts) add(s.data(), s.size() * sizeof(T));
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

template <Real T>
[[nodiscard]] bool same_bits(const sshopm::Result<T>& a,
                             const sshopm::Result<T>& b) {
  return std::memcmp(&a.lambda, &b.lambda, sizeof(T)) == 0 &&
         a.iterations == b.iterations && a.converged == b.converged &&
         a.failure == b.failure && a.x.size() == b.x.size() &&
         std::memcmp(a.x.data(), b.x.data(), a.x.size() * sizeof(T)) == 0;
}

template <Real T>
[[nodiscard]] bool same_bits(std::span<const sshopm::Result<T>> a,
                             std::span<const sshopm::Result<T>> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// Residual bound a converged solve must meet: the eigen-equation
/// A x^{m-1} = lambda x to within `tol` relative to max(1, |lambda|).
/// The bound sits over 10x above the largest relative residual seen over
/// seeds 1-5 (7.6e-4 for float solves at tolerance 1e-6); a wrong kernel
/// term gives residuals of order |lambda|.
constexpr double kFloatResidual = 1e-2;
template <Real T>
[[nodiscard]] bool residual_ok(const kernels::BoundKernels<T>& k,
                               const sshopm::Result<T>& r, double tol) {
  if (!r.converged) return true;
  const double res = static_cast<double>(sshopm::eigen_residual(
      k, r.lambda, std::span<const T>(r.x.data(), r.x.size())));
  return std::isfinite(res) &&
         res <= tol * std::max(1.0, std::abs(static_cast<double>(r.lambda)));
}

/// Median ns per call of fn(i), cycling i over [0, count): five repeats,
/// each long enough (>= 2 ms) to swamp the clock's resolution.
template <class F>
[[nodiscard]] double ns_per_call(int count, F&& fn) {
  std::int64_t calls = count;
  for (;;) {
    const auto t = Clock::now();
    for (std::int64_t c = 0; c < calls; ++c) fn(static_cast<int>(c % count));
    if (seconds_since(t) >= 2e-3 || calls >= (std::int64_t{1} << 26)) break;
    calls *= 2;
  }
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto t = Clock::now();
    for (std::int64_t c = 0; c < calls; ++c) fn(static_cast<int>(c % count));
    reps.push_back(seconds_since(t) * 1e9 / static_cast<double>(calls));
  }
  return perfbench::median(std::move(reps));
}

/// Per-layer kernel and solver figures measured directly on a workload's
/// tensors and starts: ttsv0/ttsv1 and lane-blocked ttsv1 time per call,
/// the computed flop and byte model, and single-solve time with the share
/// of it spent inside the kernels.
template <Real T>
void measure_kernels(Run& r, std::span<const SymmetricTensor<T>> tensors,
                     std::span<const std::vector<T>> starts,
                     kernels::Tier tier, const kernels::KernelTables<T>* tables,
                     int lane_width, const sshopm::Options& opt) {
  Span span(&r.tracer, "measure.kernels");
  const int order = tensors.front().order();
  const int dim = tensors.front().dim();
  const int nt = static_cast<int>(std::min<std::size_t>(tensors.size(), 4));
  const int nv = static_cast<int>(std::min<std::size_t>(starts.size(), 8));
  std::vector<kernels::BoundKernels<T>> ks;
  for (int t = 0; t < nt; ++t) ks.emplace_back(tensors[t], tier, tables);
  std::vector<T> y(static_cast<std::size_t>(dim));
  const auto x_of = [&](int i) {
    const auto& s = starts[static_cast<std::size_t>(i % nv)];
    return std::span<const T>(s.data(), s.size());
  };
  // Per-call times on the first tensor, cycling over starts, as inside a
  // solve (which reuses one tensor for every iteration).
  const double ns1 = ns_per_call(nv, [&](int i) {
    ks.front().ttsv1(x_of(i), std::span<T>(y));
    keep(y.data());
  });
  T acc = 0;
  const double ns0 = ns_per_call(nv, [&](int i) {
    acc += ks.front().ttsv0(x_of(i));
    keep(&acc);
  });
  r.set("kernels.ttsv1_ns", ns1);
  r.set("kernels.ttsv0_ns", ns0);

  const auto flops =
      static_cast<double>(kernels::flops_symmetric_ttsv1(order, dim).flops());
  const double bytes =
      static_cast<double>(tensors.front().num_unique()) * sizeof(T) +
      (tables != nullptr ? static_cast<double>(tables->table_bytes()) : 0.0) +
      2.0 * dim * sizeof(T);
  r.set("kernels.flops_per_call", flops);
  r.set("kernels.bytes_per_call", bytes);
  r.set("kernels.gbytes_per_s", bytes / ns1);

  kernels::MultiKernels<T> mk(tensors.front(), tier, tables, lane_width);
  kernels::VectorBatch<T> xb(dim, mk.width());
  kernels::VectorBatch<T> yb(dim, mk.width());
  for (int w = 0; w < mk.width(); ++w) xb.load_lane(w, x_of(w));
  r.set("kernels.lane_ttsv1_ns", ns_per_call(1, [&](int) {
          mk.ttsv1(xb, yb);
          keep(yb.data());
        }));

  // Single solves, each timed on its own; kernel share from the measured
  // per-call times and the exact iteration count of each solve.
  std::vector<double> solve_us;
  double solve_ns_total = 0;
  double kernel_ns_total = 0;
  for (int t = 0; t < nt; ++t) {
    for (int v = 0; v < nv; ++v) {
      const auto t1 = Clock::now();
      const auto res = sshopm::solve(ks[static_cast<std::size_t>(t)], x_of(v),
                                     opt);
      const double ns = seconds_since(t1) * 1e9;
      solve_us.push_back(ns * 1e-3);
      solve_ns_total += ns;
      kernel_ns_total += res.iterations * ns1 + (res.iterations + 1) * ns0;
    }
  }
  r.set("sshopm.solve_us_p50", perfbench::median(solve_us));
  r.set("sshopm.kernel_frac", kernel_ns_total / solve_ns_total);
}

/// Write-ahead-log appends through io::Writer, one flushed chunk section
/// per `chunk_tensors` tensors of `results` (tensor-major, `num_starts`
/// per tensor), then the replay of the same file.
template <Real T>
void measure_wal(Run& r, std::span<const sshopm::Result<T>> results,
                 int num_tensors, int num_starts, int chunk_tensors,
                 const fs::path& file) {
  Span span(&r.tracer, "measure.wal");
  std::vector<double> append_us;
  std::uint64_t chunk_bytes = 0;
  {
    io::Writer w(file.string(), io::OpenMode::kTruncate);
    io::CheckpointJob job;
    job.num_tensors = num_tensors;
    job.num_starts = num_starts;
    job.chunk_tensors = chunk_tensors;
    io::add_checkpoint_job_section(w, job);
    w.flush();
    const std::uint64_t before = w.size();
    for (int b = 0; b < num_tensors; b += chunk_tensors) {
      const int e = std::min(num_tensors, b + chunk_tensors);
      io::CheckpointChunk<T> rec;
      rec.begin = b;
      rec.end = e;
      rec.results.assign(
          results.begin() + static_cast<std::ptrdiff_t>(b) * num_starts,
          results.begin() + static_cast<std::ptrdiff_t>(e) * num_starts);
      Span s(&r.tracer, "io.wal_append");
      const auto t = Clock::now();
      io::add_checkpoint_chunk_section(w, rec);
      w.flush();
      append_us.push_back(seconds_since(t) * 1e6);
    }
    chunk_bytes = (w.size() - before) / append_us.size();
  }
  const auto t = Clock::now();
  const auto replay = io::load_checkpoint<T>(file.string());
  r.set("io.wal_replay_ms", seconds_since(t) * 1e3);
  r.check(replay.present && replay.chunks.size() == append_us.size(),
          "WAL replay returns every appended chunk");
  r.set("io.wal_append_us_p50", perfbench::median(append_us));
  r.set("io.wal_append_us_tail", perfbench::tail(append_us).value);
  r.set("io.wal_bytes_per_chunk", static_cast<double>(chunk_bytes));
  fs::remove(file);
}

/// Iteration statistics of tensor-major results: exact totals, the
/// max/mean per-tensor iteration imbalance and the lane occupancy a
/// `width`-lane blocked solve would have.
template <Real T>
void iteration_stats(Run& r, std::span<const sshopm::Result<T>> results,
                     int num_starts, int width) {
  std::vector<double> per_tensor;
  perfbench::LaneTally lanes;
  std::vector<int> iters(static_cast<std::size_t>(num_starts));
  std::int64_t total = 0;
  for (std::size_t b = 0; b < results.size();
       b += static_cast<std::size_t>(num_starts)) {
    std::int64_t sum = 0;
    for (int v = 0; v < num_starts; ++v) {
      iters[static_cast<std::size_t>(v)] = results[b + v].iterations;
      sum += results[b + v].iterations;
    }
    lanes += perfbench::lane_tally(iters, width);
    per_tensor.push_back(static_cast<double>(sum));
    total += sum;
  }
  double mean = 0;
  for (const double v : per_tensor) mean += v;
  mean /= static_cast<double>(per_tensor.size());
  r.set("sshopm.iters_per_solve",
        static_cast<double>(total) / static_cast<double>(results.size()));
  r.set("sshopm.iter_imbalance",
        *std::max_element(per_tensor.begin(), per_tensor.end()) / mean);
  r.set("sshopm.lane_occupancy", lanes.occupancy());
}

template <Real T>
[[nodiscard]] double converged_frac(std::span<const sshopm::Result<T>> rs) {
  std::int64_t c = 0;
  for (const auto& x : rs) c += x.converged ? 1 : 0;
  return static_cast<double>(c) / static_cast<double>(rs.size());
}

/// Span-derived metrics shared by every workload: the trace's overhead
/// (traced against untraced operation walls; op_seconds[i] is operation
/// first_op + i) and the share of traced operation time not covered by
/// any child span.
void trace_summary(Run& r, const std::vector<double>& op_seconds,
                   std::int64_t first_op) {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (std::size_t i = 0; i < op_seconds.size(); ++i) {
    const auto op = first_op + static_cast<std::int64_t>(i);
    (r.tr(op) != nullptr ? traced : untraced).push_back(op_seconds[i]);
  }
  r.set("trace.overhead_frac",
        perfbench::median(traced) / perfbench::median(untraced) - 1);
  const auto ops = r.tracer.totals("op");
  r.set("trace.unattributed_frac",
        ops.wall > 0 ? static_cast<double>(ops.self) /
                           static_cast<double>(ops.wall)
                     : 0);
}

/// Operation-latency metrics: p50 and the tail rule, in ms.
void latency_metrics(Run& r, const std::vector<double>& op_seconds,
                     const char* what) {
  std::vector<double> ms;
  for (const double s : op_seconds) ms.push_back(s * 1e3);
  const auto t = perfbench::tail(ms);
  r.set("p50_ms", perfbench::median(ms));
  r.set("tail_ms", t.value);
  std::ostringstream os;
  os << "p" << t.percentile << " of " << t.samples << " " << what
     << " latencies (" << t.beyond << " beyond)";
  r.note("tail_rule", os.str());
}

[[nodiscard]] double span_median(const Run& r, const char* name,
                                 double scale) {
  return perfbench::median(r.tracer.durations(name, scale));
}

/// Planted low-rank inputs: each tensor is sum_r w_r v_r^(x m) plus
/// uniform noise in [-noise, noise] on every unique entry, with w_r =
/// 2 - 0.15 r and v_r orthonormal (random directions, Gram-Schmidt). The
/// components are the ground truth a multi-start solve should recover.
template <Real T>
struct Planted {
  std::vector<SymmetricTensor<T>> tensors;
  std::vector<std::vector<std::vector<double>>> components;
};

template <Real T>
[[nodiscard]] Planted<T> make_planted(std::uint64_t seed, int count, int order,
                                      int dim, int rank, double noise) {
  Planted<T> p;
  const CounterRng rng(seed);
  for (int t = 0; t < count; ++t) {
    std::vector<T> weights;
    std::vector<std::vector<T>> vs;
    std::vector<std::vector<double>> truth;
    for (int c = 0; c < rank; ++c) {
      // Gram-Schmidt against the earlier components: an orthogonally
      // decomposable tensor has its components as exact eigenvectors.
      auto v = random_sphere_vector<double>(
          rng, static_cast<std::uint64_t>(t) * 64 + c, dim);
      for (const auto& u : truth) {
        double d = 0;
        for (int i = 0; i < dim; ++i) d += u[i] * v[i];
        for (int i = 0; i < dim; ++i) v[i] -= d * u[i];
      }
      double norm = 0;
      for (const double x : v) norm += x * x;
      for (double& x : v) x /= std::sqrt(norm);
      truth.push_back(std::move(v));
      vs.emplace_back(truth.back().begin(), truth.back().end());
      weights.push_back(static_cast<T>(2.0 - 0.15 * c));
    }
    auto a = rank_r_tensor<T>(weights, vs, order);
    auto vals = a.values();
    for (std::size_t i = 0; i < vals.size(); ++i) {
      vals[i] += static_cast<T>(
          rng.in((std::uint64_t{1} << 40) + static_cast<std::uint64_t>(t), i,
                 -noise, noise));
    }
    p.tensors.push_back(std::move(a));
    p.components.push_back(std::move(truth));
  }
  return p;
}

/// Planted components recovered: a component counts when some converged
/// solve of its tensor lies within ~8 degrees of it (|cos| >= 0.99,
/// sign-agnostic because odd orders pair (lambda, x) with (-lambda, -x)).
template <Real T>
[[nodiscard]] std::int64_t recovered(
    const std::vector<std::vector<double>>& components,
    std::span<const sshopm::Result<T>> results) {
  std::int64_t found = 0;
  for (const auto& v : components) {
    for (const auto& res : results) {
      if (!res.converged) continue;
      double dot = 0;
      for (std::size_t i = 0; i < v.size(); ++i) {
        dot += v[i] * static_cast<double>(res.x[i]);
      }
      if (std::abs(dot) >= 0.99) {
        ++found;
        break;
      }
    }
  }
  return found;
}

/// One scheduler operation: submit a copy of every problem as a job, drain
/// the queue (chunk by chunk when traced, so that each chunk gets a span),
/// fetch every result, hand the results to `check`, release the jobs.
/// Returns the wall time from the first submit to the last fetch; copying
/// the problems and the check are outside it.
template <class Check>
double run_jobs(batch::Scheduler<float>& sched,
                const std::vector<batch::BatchProblem<float>>& problems,
                kernels::Tier tier, Tracer* t, std::int64_t op,
                std::int64_t& chunk_steps, Check&& check) {
  std::vector<batch::BatchProblem<float>> copies = problems;
  std::vector<batch::JobId> ids;
  std::vector<const batch::BatchResult<float>*> results;
  const auto start = Clock::now();
  {
    Span s(t, "op", op);
    for (auto& p : copies) {
      Span sub(t, "batch.submit");
      ids.push_back(sched.submit(std::move(p), tier));
    }
    if (t != nullptr) {
      while (sched.pending_chunks() > 0) {
        Span c(t, "batch.chunk");
        chunk_steps += sched.run(1);
      }
    } else {
      chunk_steps += sched.run();
    }
    for (const auto id : ids) {
      Span f(t, "batch.result");
      results.push_back(&sched.result(id));
    }
  }
  const double wall = seconds_since(start);
  check(results);
  for (const auto id : ids) sched.release_job(id);
  return wall;
}

// ------------------------------------------------------------------------
// table3: the paper's Table III batch through the CPU-parallel scheduler.
// ------------------------------------------------------------------------

constexpr int kTable3Tensors = 1024;
constexpr int kTable3Starts = 128;
constexpr int kTable3Workers = 2;
constexpr double kTable3JobsPerSecond = 6;

void run_table3(Run& r) {
  const int jobs = op_count(kTable3JobsPerSecond, r.seconds);
  r.note("shape", "order 4, dim 3, float, 1024 tensors x 128 starts, alpha 0");
  r.note("backend", "cpu-parallel, 2 workers, tier unrolled, width 1");

  dwmri::DatasetOptions dopt;
  dopt.num_voxels = kTable3Tensors;
  dopt.two_fiber_fraction = 0.5;
  dwmri::Dataset<float> ds;
  {
    Span s(r.tr(), "dwmri.dataset", 0);
    ds = dwmri::make_dataset<float>(r.seed, dopt);
  }
  batch::BatchProblem<float> prob;
  {
    Span s(r.tr(), "tensor.generate", 0);
    prob.order = 4;
    prob.dim = 3;
    prob.tensors = ds.tensors();
    const CounterRng rng(r.seed ^ 0x5eedULL);
    prob.starts = random_sphere_batch<float>(rng, 0, kTable3Starts, 3);
    prob.options.alpha = 0.0;
    prob.options.tolerance = 1e-6;
    prob.options.max_iterations = 200;
  }
  Checksum sum;
  sum.add(prob.tensors, prob.starts);
  r.note("input_checksum", sum.hex());

  batch::SchedulerOptions so;
  so.cpu_threads = kTable3Workers;
  so.simd_width = 1;
  batch::Scheduler<float> sched(batch::Backend::kCpuParallel, so);

  const std::vector<batch::BatchProblem<float>> jobs_of_op = {prob};
  std::int64_t chunk_steps = 0;
  (void)run_jobs(sched, jobs_of_op, kernels::Tier::kUnrolled, r.tr(0), 0,
                 chunk_steps, [](const auto&) {});
  r.set("setup_s", r.since_start());
  if (r.setup_only) return;

  // Reference: the one-shot sequential backend on the same problem.
  const auto ref = batch::solve_cpu_sequential(prob, kernels::Tier::kUnrolled);
  const std::span<const sshopm::Result<float>> ref_rs(ref.results);
  bool ref_ok = true;
  for (int t = 0; t < kTable3Tensors; ++t) {
    const kernels::BoundKernels<float> k(prob.tensors[t],
                                         kernels::Tier::kUnrolled);
    for (int v = 0; v < kTable3Starts; ++v) {
      ref_ok = ref_ok && residual_ok(k, ref.results[t * kTable3Starts + v],
                                     kFloatResidual);
    }
  }

  std::vector<double> walls;
  std::int64_t iterations = 0;
  chunk_steps = 0;
  for (int i = 1; i <= jobs; ++i) {
    walls.push_back(run_jobs(
        sched, jobs_of_op, kernels::Tier::kUnrolled, r.tr(i), i, chunk_steps,
        [&](const auto& res) {
          const std::span<const sshopm::Result<float>> rs(res[0]->results);
          r.check(ref_ok && same_bits(rs, ref_rs),
                  "table3 job " + std::to_string(i) +
                      " bitwise equal to solve_cpu_sequential with "
                      "residuals within tolerance");
          for (const auto& x : rs) iterations += x.iterations;
        }));
  }

  r.set("solves_per_s",
        perfbench::median_segment_rate(kTable3Tensors * kTable3Starts, walls));
  latency_metrics(r, walls, "job");
  r.set("converged_frac", converged_frac(ref_rs));

  // Fibre recovery from the reference eigenpairs (local maxima = peaks).
  sshopm::MultiStartOptions mopt;
  mopt.inner = prob.options;
  const auto lists = batch::extract_eigenpairs(prob, ref, mopt);
  std::int64_t fibres = 0;
  std::int64_t matched = 0;
  for (std::size_t v = 0; v < ds.voxels.size(); ++v) {
    std::vector<std::vector<float>> peaks;
    for (const auto& p : lists[v]) {
      if (p.type == sshopm::SpectralType::kLocalMax) peaks.push_back(p.x);
    }
    const auto score = dwmri::score_recovery(
        ds.voxels[v], std::span<const std::vector<float>>(peaks), 12.0);
    fibres += score.true_fibers;
    matched += score.matched;
  }
  r.set("recovery_frac",
        static_cast<double>(matched) / static_cast<double>(fibres));

  r.count("jobs", jobs);
  r.count("solves", std::int64_t{jobs} * kTable3Tensors * kTable3Starts);
  r.count("iterations", iterations);
  r.count("chunk_steps", chunk_steps);

  if (!r.trace) return;
  r.set("dwmri.dataset_ms", span_median(r, "dwmri.dataset", 1e-6));
  r.set("tensor.generate_ms", span_median(r, "tensor.generate", 1e-6));
  r.set("batch.submit_us", span_median(r, "batch.submit", 1e-3));
  const auto chunk_ms = r.tracer.durations("batch.chunk", 1e-6);
  r.set("batch.chunk_ms_p50", perfbench::median(chunk_ms));
  r.set("batch.chunk_ms_tail", perfbench::tail(chunk_ms).value);
  r.set("batch.cache_hit_ratio", sched.cache_stats().hit_rate());
  measure_kernels<float>(r, prob.tensors, prob.starts,
                         kernels::Tier::kUnrolled, nullptr, 8, prob.options);
  iteration_stats<float>(r, ref_rs, kTable3Starts, 1);

  // Parallel layer: the same tensors solved one after another on this
  // thread, against the 2-worker wall of the traced jobs' chunks.
  const auto seq_start = Clock::now();
  {
    Span s(&r.tracer, "measure.sequential");
    for (const auto& a : prob.tensors) {
      const kernels::BoundKernels<float> k(a, kernels::Tier::kUnrolled);
      for (const auto& x0 : prob.starts) {
        const auto res = sshopm::solve(k, std::span<const float>(x0),
                                       prob.options);
        keep(&res);
      }
    }
  }
  const double seq_s = seconds_since(seq_start);
  const auto chunks = r.tracer.totals("batch.chunk");
  const auto traced_jobs = static_cast<double>(r.tracer.totals("op").count);
  const double par_s = static_cast<double>(chunks.wall) * 1e-9 / traced_jobs;
  const double speedup = seq_s / par_s;
  r.set("parallel.speedup", speedup);
  r.set("parallel.idle_frac", 1 - speedup / kTable3Workers);
  measure_wal<float>(r, ref_rs, kTable3Tensors, kTable3Starts,
                     so.chunk_tensors, r.scratch / "wal_probe.tetc");
  trace_summary(r, walls, 1);
}

// ------------------------------------------------------------------------
// midshape: shapes outside the unrolled registry, through the JIT tier.
// ------------------------------------------------------------------------

constexpr int kMidTensors = 64;
constexpr int kMidStarts = 128;
constexpr int kMidWidth = 8;
constexpr int kMidRank = 3;
constexpr double kMidNoise = 0.05;
// A positive shift makes the iteration monotone (Kolda-Mayo), so a
// converged lambda implies a small residual: at alpha 0 some (3,12) starts
// stall on flat directions and stop with residuals near 2e-2; at alpha 1
// the largest over seeds 1-5 is 7.6e-4.
constexpr double kMidAlpha = 1.0;
constexpr double kMidRoundsPerSecond = 10;
constexpr std::pair<int, int> kMidShapes[] = {{4, 8}, {3, 12}};

void run_midshape(Run& r) {
  const int rounds = op_count(kMidRoundsPerSecond, r.seconds);
  r.note("shape", "orders/dims (4,8) and (3,12), float, 64 tensors x 128 "
                  "starts each, planted rank 3 + 0.05 noise, alpha 1");
  r.note("backend", "cpu-sequential scheduler, tier jit, width 8");

  // JIT admission into this run's private, initially empty cache dir (set
  // in main), so set-up pays the real compile and proof.
  jit::AcquireOptions aopt;
  aopt.widths = {kMidWidth};
  double acquire_ms = 0;
  double compile_ms = 0;
  std::int64_t compiles = 0;
  std::int64_t rejected = 0;
  for (const auto& [order, dim] : kMidShapes) {
    Span s(r.tr(), "jit.acquire", 0);
    const auto t = Clock::now();
    const auto rep = jit::acquire<float>(order, dim, aopt);
    acquire_ms += seconds_since(t) * 1e3;
    compile_ms += rep.compile_ms;
    compiles += rep.compiled;
    rejected += rep.rejected;
    if (!rep.available ||
        kernels::find_jit_multi<float>(order, dim, kMidWidth) == nullptr) {
      std::cerr << "midshape: jit::acquire did not admit (" << order << ", "
                << dim << ") at width " << kMidWidth << ": " << rep.error
                << "\n";
      std::exit(3);
    }
  }

  std::vector<batch::BatchProblem<float>> probs;
  std::vector<Planted<float>> planted;
  {
    Span s(r.tr(), "tensor.generate", 0);
    for (std::size_t i = 0; i < std::size(kMidShapes); ++i) {
      const auto [order, dim] = kMidShapes[i];
      planted.push_back(make_planted<float>(r.seed * 7 + i, kMidTensors,
                                            order, dim, kMidRank, kMidNoise));
      batch::BatchProblem<float> p;
      p.order = order;
      p.dim = dim;
      p.tensors = planted.back().tensors;
      const CounterRng rng(r.seed ^ (0x5eedULL + i));
      p.starts = random_sphere_batch<float>(rng, 0, kMidStarts, dim);
      p.options.alpha = kMidAlpha;
      p.options.tolerance = 1e-6;
      p.options.max_iterations = 200;
      probs.push_back(std::move(p));
    }
  }
  Checksum sum;
  for (const auto& p : probs) sum.add(p.tensors, p.starts);
  r.note("input_checksum", sum.hex());

  batch::SchedulerOptions so;
  so.simd_width = kMidWidth;
  batch::Scheduler<float> sched(batch::Backend::kCpuSequential, so);

  // One round: one job of each shape, submitted together and drained.
  std::int64_t chunk_steps = 0;
  (void)run_jobs(sched, probs, kernels::Tier::kJit, r.tr(0), 0, chunk_steps,
                 [](const auto&) {});
  r.set("setup_s", r.since_start());
  if (r.setup_only) return;

  // Reference: direct lane-blocked solves of every tensor, residual-checked.
  std::vector<std::vector<sshopm::Result<float>>> ref(std::size(kMidShapes));
  bool ref_ok = true;
  std::int64_t found = 0;
  std::int64_t components = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const auto& p = probs[i];
    for (int t = 0; t < kMidTensors; ++t) {
      const kernels::MultiKernels<float> mk(p.tensors[t], kernels::Tier::kJit,
                                            nullptr, kMidWidth);
      auto runs = sshopm::solve_multi(
          mk, std::span<const std::vector<float>>(p.starts), p.options);
      const kernels::BoundKernels<float> k(p.tensors[t], kernels::Tier::kJit);
      for (const auto& x : runs) {
        ref_ok = ref_ok && residual_ok(k, x, kFloatResidual);
      }
      found += recovered<float>(planted[i].components[t], runs);
      components += kMidRank;
      for (auto& x : runs) ref[i].push_back(std::move(x));
    }
  }

  std::vector<double> walls;
  std::int64_t iterations = 0;
  chunk_steps = 0;
  for (int i = 1; i <= rounds; ++i) {
    walls.push_back(run_jobs(
        sched, probs, kernels::Tier::kJit, r.tr(i), i, chunk_steps,
        [&](const auto& res) {
          bool ok = ref_ok;
          for (std::size_t j = 0; j < res.size(); ++j) {
            const std::span<const sshopm::Result<float>> rs(res[j]->results);
            ok = ok && same_bits(
                           rs, std::span<const sshopm::Result<float>>(ref[j]));
            for (const auto& x : rs) iterations += x.iterations;
          }
          r.check(ok, "midshape round " + std::to_string(i) +
                          " bitwise equal to direct solve_multi with "
                          "residuals within tolerance");
        }));
  }

  std::int64_t converged = 0;
  std::int64_t solves = 0;
  for (const auto& rs : ref) {
    for (const auto& x : rs) converged += x.converged ? 1 : 0;
    solves += static_cast<std::int64_t>(rs.size());
  }
  r.set("solves_per_s", perfbench::median_segment_rate(
                            static_cast<double>(solves), walls));
  latency_metrics(r, walls, "round");
  r.set("converged_frac",
        static_cast<double>(converged) / static_cast<double>(solves));
  r.set("recovery_frac",
        static_cast<double>(found) / static_cast<double>(components));
  r.count("rounds", rounds);
  r.count("solves", solves * rounds);
  r.count("iterations", iterations);
  r.count("chunk_steps", chunk_steps);
  r.count("jit_compiles", compiles);

  if (!r.trace) return;
  r.set("tensor.generate_ms", span_median(r, "tensor.generate", 1e-6));
  r.set("jit.compile_ms", compile_ms);
  r.set("jit.load_prove_ms", acquire_ms - compile_ms);
  r.set("jit.compiles", static_cast<double>(compiles));
  r.set("jit.rejected", static_cast<double>(rejected));
  r.set("batch.submit_us", span_median(r, "batch.submit", 1e-3));
  const auto chunk_ms = r.tracer.durations("batch.chunk", 1e-6);
  r.set("batch.chunk_ms_p50", perfbench::median(chunk_ms));
  r.set("batch.chunk_ms_tail", perfbench::tail(chunk_ms).value);
  // Kernel figures on the first shape, (4, 8).
  const auto& p0 = probs.front();
  measure_kernels<float>(r, p0.tensors, p0.starts, kernels::Tier::kJit,
                         nullptr, kMidWidth, p0.options);
  {
    const kernels::KernelTables<float> tables(p0.order, p0.dim);
    const kernels::BoundKernels<float> kj(p0.tensors[0], kernels::Tier::kJit);
    const kernels::BoundKernels<float> kp(p0.tensors[0],
                                          kernels::Tier::kPrecomputed, &tables);
    std::vector<float> y(static_cast<std::size_t>(p0.dim));
    const auto x_of = [&](int i) {
      return std::span<const float>(p0.starts[static_cast<std::size_t>(i)]);
    };
    const double jit_ns = ns_per_call(8, [&](int i) {
      kj.ttsv1(x_of(i), std::span<float>(y));
      keep(y.data());
    });
    const double pre_ns = ns_per_call(8, [&](int i) {
      kp.ttsv1(x_of(i), std::span<float>(y));
      keep(y.data());
    });
    r.set("kernels.jit_vs_precomputed", jit_ns / pre_ns);
  }
  // Iteration figures and lane occupancy (exact, at width 8) over both
  // shapes.
  std::vector<sshopm::Result<float>> both = ref[0];
  both.insert(both.end(), ref[1].begin(), ref[1].end());
  iteration_stats<float>(r, both, kMidStarts, kMidWidth);
  measure_wal<float>(r, std::span<const sshopm::Result<float>>(ref[0]),
                     kMidTensors, kMidStarts, so.chunk_tensors,
                     r.scratch / "wal_probe.tetc");
  trace_summary(r, walls, 1);
}

// ------------------------------------------------------------------------
// serve: two closed-loop tenants against an in-process server.
// ------------------------------------------------------------------------

struct Tenant {
  const char* name;
  int tensors;
  int starts;
  int order;
  int dim;
  kernels::Tier tier;
  int requests;
  std::int64_t request_base;  // request ids of this tenant start here
};

struct Sample {
  int seed = 0;
  std::vector<sshopm::Result<float>> results;
};

struct ClientLog {
  std::vector<double> latency_s;
  std::vector<double> wire_submit_us;
  std::vector<double> submit_us;
  std::vector<double> queue_wait_steps;
  std::vector<Sample> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t solves = 0;
  std::int64_t converged = 0;
  std::int64_t iterations = 0;
  std::int64_t chunks = 0;
  std::string first_error;
};

/// Request seed on the wire: deterministic in (run seed, tenant, index),
/// inside the protocol's [0, 2^31) range.
[[nodiscard]] int request_seed(std::uint64_t seed, std::int64_t request) {
  const CounterRng rng(seed);
  return static_cast<int>(rng.at(0x5e7e, static_cast<std::uint64_t>(request)) &
                          0x7fffffffULL);
}

[[nodiscard]] std::string submit_line(const Tenant& t, int seed) {
  std::ostringstream os;
  os << "{\"op\":\"submit\",\"tenant\":\"" << t.name << "\",\"seed\":" << seed
     << ",\"tensors\":" << t.tensors << ",\"starts\":" << t.starts
     << ",\"order\":" << t.order << ",\"dim\":" << t.dim << ",\"tier\":\""
     << kernels::tier_name(t.tier) << "\"}";
  return os.str();
}

[[nodiscard]] std::string wait_line(int ticket) {
  return "{\"op\":\"wait\",\"ticket\":" + std::to_string(ticket) + "}";
}

/// One closed-loop client: submit, wait, repeat. In a traced run odd
/// requests are traced, and every other traced request submits in-process
/// (Server::submit with a pre-generated problem) instead of over the wire,
/// so the two submit paths can be compared. Every 8th request's results
/// are kept for the check against a direct solve.
void client(serve::Server<float>& server, const Tenant& t, std::uint64_t seed,
            Tracer* tracer, ClientLog& log) {
  for (int i = 0; i < t.requests; ++i) {
    const std::int64_t req = t.request_base + i;
    const int rs = request_seed(seed, req);
    Tracer* tr = tracer != nullptr && i % 2 == 1 ? tracer : nullptr;
    const bool direct = tr != nullptr && (i / 2) % 2 == 1;
    std::optional<batch::BatchProblem<float>> pre;
    if (direct) {
      Span g(tr, "tensor.generate", req);
      pre = batch::BatchProblem<float>::random(
          static_cast<std::uint64_t>(rs), t.tensors, t.starts, t.order, t.dim);
    }
    const std::string line = submit_line(t, rs);
    ++log.attempted;
    const auto start = Clock::now();
    int ticket = -1;
    std::string waited;
    {
      Span op(tr, "op", req);
      const auto ts = Clock::now();
      if (direct) {
        Span s(tr, "serve.submit");
        const auto out = server.submit(t.name, std::move(*pre), t.tier);
        ticket = out.accepted ? out.ticket : -1;
      } else {
        Span s(tr, "serve.wire_submit");
        const std::string resp = serve::handle_line(server, line);
        ticket = static_cast<int>(serve::wire_number(resp, "ticket").value_or(-1));
      }
      if (tr != nullptr) {
        (direct ? log.submit_us : log.wire_submit_us)
            .push_back(seconds_since(ts) * 1e6);
      }
      if (ticket >= 0) {
        Span w(tr, "serve.wait");
        waited = serve::handle_line(server, wait_line(ticket));
      }
    }
    log.latency_s.push_back(seconds_since(start));
    if (ticket < 0 || waited.find("\"state\":\"done\"") == std::string::npos) {
      ++log.failed;
      if (log.first_error.empty()) {
        log.first_error = std::string(t.name) + " request " +
                          std::to_string(i) + " refused or not done: " + waited;
      }
      continue;
    }
    const serve::RequestStatus st = server.poll(ticket);
    log.queue_wait_steps.push_back(static_cast<double>(
        st.complete_step - st.submit_step - st.chunks_total));
    log.chunks += st.chunks_total;
    const auto& res = server.result(ticket).results;
    for (const auto& x : res) {
      ++log.solves;
      log.converged += x.converged ? 1 : 0;
      log.iterations += x.iterations;
    }
    if (i % 8 == 0) log.samples.push_back({rs, res});
  }
}

constexpr double kInteractivePerSecond = 30;
constexpr double kBulkPerSecond = 4;
constexpr int kServeChunk = 8;
constexpr std::size_t kBulkPerSegment = 5;  // bulk requests per segment

void run_serve(Run& r) {
  const Tenant interactive{
      "interactive", 8, 128, 4, 3, kernels::Tier::kUnrolled,
      op_count(kInteractivePerSecond, r.seconds),
      0};
  const Tenant bulk{
      "bulk", 64, 8, 4, 6, kernels::Tier::kPrecomputed,
      op_count(kBulkPerSecond, r.seconds, 2 * static_cast<int>(kBulkPerSegment)),
      1000000};
  r.note("shape", "interactive 8 x (4,3) tensors x 128 starts unrolled; "
                  "bulk 64 x (4,6) tensors x 8 starts precomputed; float");
  r.note("backend", "serve::Server, 2 cpu-sequential shards, chunk 8, WAL "
                    "on, background pump, 2 closed-loop clients");

  serve::ServeOptions opt;
  opt.shards = 2;
  opt.backend = batch::Backend::kCpuSequential;
  opt.scheduler.chunk_tensors = kServeChunk;
  opt.wal_dir = (r.scratch / "wal").string();
  serve::Server<float> server(opt);
  {
    Span s(r.tr(), "batch.table_build", 0);
    (void)server.cache()->get(bulk.order, bulk.dim, bulk.tier);
  }
  server.start();
  // Warm-up: one request of each tenant.
  for (const Tenant* t : {&interactive, &bulk}) {
    const std::string resp = serve::handle_line(
        server, submit_line(*t, request_seed(r.seed, -1)));
    const auto ticket = serve::wire_number(resp, "ticket");
    if (ticket) {
      (void)serve::handle_line(server,
                               wait_line(static_cast<int>(*ticket)));
    }
  }
  r.set("setup_s", r.since_start());
  if (r.setup_only) {
    server.stop();
    return;
  }

  Checksum sum;
  for (const Tenant* t : {&interactive, &bulk}) {
    for (int i = 0; i < t->requests; ++i) {
      const int s = request_seed(r.seed, t->request_base + i);
      sum.add(&s, sizeof s);
    }
  }
  r.note("input_checksum", sum.hex());

  ClientLog ilog;
  ClientLog blog;
  Tracer* tracer = r.trace ? &r.tracer : nullptr;
  {
    std::jthread a([&] { client(server, interactive, r.seed, tracer, ilog); });
    std::jthread b([&] { client(server, bulk, r.seed, tracer, blog); });
  }
  server.stop();
  const serve::ServerStats stats = server.stats();

  // Sampled results against a direct one-shot solve of the same problem;
  // refused or unfinished requests count as failed operations.
  std::int64_t sampled = 0;
  std::int64_t matched = 0;
  const auto verify = [&](const Tenant& t, const ClientLog& log) {
    for (const auto& s : log.samples) {
      const auto p = batch::BatchProblem<float>::random(
          static_cast<std::uint64_t>(s.seed), t.tensors, t.starts, t.order,
          t.dim);
      const auto direct = batch::solve_cpu_sequential(p, t.tier);
      const bool ok = same_bits(
          std::span<const sshopm::Result<float>>(s.results),
          std::span<const sshopm::Result<float>>(direct.results));
      ++sampled;
      matched += ok ? 1 : 0;
      if (!ok) {
        r.fail(std::string(t.name) + " sampled request differs from a "
                                     "direct solve_cpu_sequential");
      }
    }
    r.attempted += log.attempted;
    r.failed += log.failed;
    if (!log.first_error.empty()) std::cerr << log.first_error << "\n";
  };
  verify(interactive, ilog);
  verify(bulk, blog);

  // Throughput segments: consecutive groups of kBulkPerSegment bulk
  // requests, which carry equal bulk work and the interactive requests
  // interleaved with them.
  std::vector<double> segments(blog.latency_s.size() / kBulkPerSegment);
  for (std::size_t i = 0; i < segments.size() * kBulkPerSegment; ++i) {
    segments[i / kBulkPerSegment] += blog.latency_s[i];
  }
  r.set("solves_per_s",
        perfbench::median_segment_rate(
            static_cast<double>(kBulkPerSegment * bulk.tensors * bulk.starts),
            segments));
  latency_metrics(r, ilog.latency_s, "interactive request");
  r.set("converged_frac",
        static_cast<double>(ilog.converged + blog.converged) /
            static_cast<double>(ilog.solves + blog.solves));
  r.set("recovery_frac",
        static_cast<double>(matched) / static_cast<double>(sampled));
  r.count("requests", ilog.attempted + blog.attempted);
  r.count("solves", ilog.solves + blog.solves);
  r.count("iterations", ilog.iterations + blog.iterations);
  r.count("chunk_steps", ilog.chunks + blog.chunks);
  r.count("rejected", stats.rejected);

  if (!r.trace) return;
  r.set("batch.table_build_ms", span_median(r, "batch.table_build", 1e-6));
  r.set("batch.table_bytes", static_cast<double>(stats.cache.bytes_resident));
  r.set("batch.cache_hit_ratio", stats.cache.hit_rate());
  r.set("serve.wire_submit_us_p50", perfbench::median(ilog.wire_submit_us));
  r.set("serve.submit_us_p50", perfbench::median(ilog.submit_us));
  r.set("serve.queue_wait_steps_p50",
        perfbench::median(ilog.queue_wait_steps));
  r.set("serve.queue_wait_steps_tail",
        perfbench::tail(ilog.queue_wait_steps).value);
  r.set("serve.bulk_p50_ms", perfbench::median(blog.latency_s) * 1e3);
  r.set("tensor.generate_ms", span_median(r, "tensor.generate", 1e-6));
  r.set("serve.rejected", static_cast<double>(stats.rejected));

  // Kernel and solver figures on the bulk shape, which does most of the
  // work; WAL figures from the bulk samples at the serve chunk size, and
  // the replay of the server's own shard-0 log.
  const auto probe = batch::BatchProblem<float>::random(
      static_cast<std::uint64_t>(blog.samples.front().seed), bulk.tensors,
      bulk.starts, bulk.order, bulk.dim);
  const auto tables = server.cache()->get(bulk.order, bulk.dim, bulk.tier);
  measure_kernels<float>(r, probe.tensors, probe.starts, bulk.tier,
                         tables.get(), 8, probe.options);
  iteration_stats<float>(r, std::span<const sshopm::Result<float>>(
                                blog.samples.front().results),
                         bulk.starts, 1);
  r.set("sshopm.iters_per_solve",
        static_cast<double>(ilog.iterations + blog.iterations) /
            static_cast<double>(ilog.solves + blog.solves));
  measure_wal<float>(
      r, std::span<const sshopm::Result<float>>(blog.samples.front().results),
      bulk.tensors, bulk.starts, kServeChunk, r.scratch / "wal_probe.tetc");
  {
    const auto t = Clock::now();
    const auto replay = io::load_checkpoint<float>(server.shard_wal_path(0));
    r.set("io.wal_replay_ms", seconds_since(t) * 1e3);
    r.check(replay.present, "server shard WAL replays");
  }
  trace_summary(r, ilog.latency_s, 0);
}

// ------------------------------------------------------------------------
// Command line and output.
// ------------------------------------------------------------------------

[[nodiscard]] std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::cerr << "usage: perfbench --workload table3|midshape|serve "
               "--seed N --seconds S --trace 0|1 --scratch DIR "
               "[--setup-only] [--spans FILE]\n"
               "       perfbench --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run r;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) return {};
      return args[++i];
    };
    if (a == "--list-metrics") {
      for (const auto& m : perfbench::kMetrics) {
        std::cout << m.name << " " << m.unit << " "
                  << (m.end_to_end ? "end_to_end" : "per_layer") << "\n";
      }
      return 0;
    }
    if (a == "--workload") {
      r.workload = value();
    } else if (a == "--seed") {
      r.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      r.seconds = std::atoi(value().c_str());
    } else if (a == "--trace") {
      r.trace = value() == "1";
    } else if (a == "--scratch") {
      r.scratch = value();
    } else if (a == "--spans") {
      r.spans_path = value();
    } else if (a == "--setup-only") {
      r.setup_only = true;
    } else {
      return usage();
    }
  }
  const std::map<std::string, void (*)(Run&)> workloads = {
      {"table3", run_table3},
      {"midshape", run_midshape},
      {"serve", run_serve}};
  const auto wl = workloads.find(r.workload);
  if (wl == workloads.end() || r.seconds < 1 || r.scratch.empty()) {
    return usage();
  }

  // Isolation: the JIT compiler is pinned to this build's compiler, with
  // default flags, and nothing may resolve a cache dir outside the run's
  // private scratch directory.
  setenv(jit::kCompilerEnv, PERFBENCH_CXX, 1);
  unsetenv(jit::kFlagsEnv);
  unsetenv(jit::kCacheDirEnv);
  fs::create_directories(r.scratch);
  jit::set_cache_dir((r.scratch / "jit").string());

  r.note("workload", r.workload);
  r.note("seed", std::to_string(r.seed));
  r.note("held_out_seed", std::to_string(kHeldOutSeed));
  r.note("seconds", std::to_string(r.seconds));
  r.note("mode", r.setup_only ? "setup-only" : (r.trace ? "traced" : "untraced"));
  r.note("build", std::string("type=") + PERFBENCH_BUILD_TYPE +
                      " te_obs=" + (TE_OBS_ENABLED ? "on" : "off") +
                      " march_native=" +
                      (PERFBENCH_MARCH_NATIVE ? "on" : "off"));
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.note("jit_cc", PERFBENCH_CXX);

  wl->second(r);
  if (!r.setup_only) r.set("peak_rss_mb", peak_rss_mb());
  if (!r.spans_path.empty() && r.trace) r.tracer.write_jsonl(r.spans_path);
  std::error_code ec;
  fs::remove_all(r.scratch / "jit", ec);
  fs::remove_all(r.scratch / "wal", ec);

  for (const auto& [k, v] : r.info) std::cout << "# " << k << ": " << v << "\n";
  std::cout << "# work:";
  for (const auto& [k, v] : r.work) std::cout << " " << k << "=" << v;
  std::cout << "\n";

  // Every metric of the run's mode is emitted; a set-up-only run emits
  // setup_s alone. Per-layer metrics a workload's layers never produce
  // (for example jit.* outside midshape) read 0.
  std::ostringstream js;
  js << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(r.attempted, 1)
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : perfbench::kMetrics) {
    const bool wanted = r.setup_only ? std::string_view(m.name) == "setup_s"
                                     : m.end_to_end != r.trace;
    if (!wanted) continue;
    const auto it = r.metrics.find(m.name);
    if (m.end_to_end && it == r.metrics.end()) {
      std::cerr << "missing end-to-end metric " << m.name << "\n";
      return 1;
    }
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::cerr << "metric " << m.name << " is not finite\n";
      return 1;
    }
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << json_number(v)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
