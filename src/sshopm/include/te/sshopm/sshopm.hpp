#pragma once
// Shifted Symmetric Higher-Order Power Method (paper Fig. 1; Kolda & Mayo).
//
// Given a symmetric A in R^[m,n], a shift alpha and a unit start x_0,
// iterate
//     xhat <- +-(A x_k^{m-1} + alpha x_k)     (sign of alpha picks +-)
//     x_{k+1} <- xhat / ||xhat||
//     lambda_{k+1} <- A x_{k+1}^m
// until lambda converges. alpha >= 0 forces convexity of the underlying
// function and convergence to (constrained) local *maxima* of f(x) = A x^m;
// alpha < 0 forces concavity and local minima. The fixed points satisfy
// A x^{m-1} = lambda x, i.e. they are Z-eigenpairs (Definition 3).
//
// The solver is tier-agnostic: it calls through a BoundKernels facade, so
// the same iteration drives the general, precomputed and unrolled kernels
// (and, re-implemented per-thread, the GPU simulator kernels).

#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "te/kernels/dispatch.hpp"
#include "te/obs/obs.hpp"
#include "te/util/linalg.hpp"
#include "te/util/op_counter.hpp"

namespace te::sshopm {

/// Iteration controls. Defaults follow the paper's experiment: lambda-based
/// convergence, tolerance loose enough for single precision.
struct Options {
  double alpha = 0.0;      ///< shift (paper uses 0 for the DW-MRI set)
  int max_iterations = 200;
  double tolerance = 1e-7;  ///< |lambda_{k+1} - lambda_k| convergence bound
  bool record_trace = false;  ///< keep the per-iteration lambda sequence
};

/// Why a run stopped without converging. Degenerate inputs (zero starts,
/// NaN/Inf tensor entries, alpha cancellation producing a zero iterate)
/// are *reported*, never thrown: solve() runs inside scheduler worker
/// threads where an escaping exception is fatal.
enum class FailureReason {
  kNone,               ///< run converged
  kMaxIterations,      ///< budget exhausted before |dlambda| <= tol
  kDegenerateIterate,  ///< iterate norm zero or non-finite; cannot normalize
  kNonFiniteLambda,    ///< Rayleigh quotient went NaN/Inf (poisoned data)
};

[[nodiscard]] constexpr std::string_view failure_reason_name(
    FailureReason f) {
  switch (f) {
    case FailureReason::kNone:
      return "none";
    case FailureReason::kMaxIterations:
      return "max-iterations";
    case FailureReason::kDegenerateIterate:
      return "degenerate-iterate";
    case FailureReason::kNonFiniteLambda:
      return "non-finite-lambda";
  }
  return "?";
}

/// Outcome of one SS-HOPM run.
template <Real T>
struct Result {
  T lambda = T(0);          ///< final Rayleigh quotient A x^m
  std::vector<T> x;         ///< final unit iterate (on kDegenerateIterate:
                            ///< the last pre-normalization iterate)
  int iterations = 0;       ///< iterations actually performed
  bool converged = false;   ///< lambda change fell below tolerance
  /// kNone iff converged; otherwise why the run stopped.
  FailureReason failure = FailureReason::kNone;
  /// lambda_0, lambda_1, ... (only when Options::record_trace). Kolda &
  /// Mayo prove this sequence is monotone when |alpha| dominates the
  /// curvature bound -- a property the tests check directly.
  std::vector<T> lambda_trace;
};

/// Residual ||A x^{m-1} - lambda x||_2 of a claimed eigenpair: the
/// self-validating acceptance check used throughout the tests.
template <Real T>
[[nodiscard]] T eigen_residual(const kernels::BoundKernels<T>& k,
                               T lambda, std::span<const T> x) {
  std::vector<T> y(x.size());
  k.ttsv1(x, std::span<T>(y.data(), y.size()));
  for (std::size_t i = 0; i < x.size(); ++i) y[i] -= lambda * x[i];
  return nrm2(std::span<const T>(y.data(), y.size()));
}

#if TE_OBS_ENABLED
namespace detail {
/// Name-resolved-once handles into the global registry: the per-run cost
/// of instrumentation is a handful of relaxed atomic ops on the calling
/// thread's own cells, never a string or a map lookup.
struct SolveMetrics {
  obs::Counter& runs;
  obs::Counter& converged;
  obs::Counter& fail_max_iterations;
  obs::Counter& fail_degenerate;
  obs::Counter& fail_non_finite;
  obs::Counter& trace_non_monotone;
  obs::Histogram& iterations;    ///< unit: iterations, not seconds
  obs::Histogram& lambda_final;  ///< final Rayleigh quotient (finite runs)
  /// Kernel calls made by SS-HOPM runs, per tier code
  /// (kernels.ttsv{0,1}[_multi].calls.<tier>). The kernels themselves carry
  /// no instrumentation; the solvers add each run's exact counts once.
  obs::Counter* ttsv0_calls[kernels::kTierCodeLimit] = {};
  obs::Counter* ttsv1_calls[kernels::kTierCodeLimit] = {};
  obs::Counter* ttsv0_multi_calls[kernels::kTierCodeLimit] = {};
  obs::Counter* ttsv1_multi_calls[kernels::kTierCodeLimit] = {};

  static SolveMetrics& get() {
    static SolveMetrics m = [] {
      auto& g = obs::global();
      SolveMetrics d{
          g.counter("sshopm.solve.runs"),
          g.counter("sshopm.solve.converged"),
          g.counter("sshopm.solve.failures.max_iterations"),
          g.counter("sshopm.solve.failures.degenerate_iterate"),
          g.counter("sshopm.solve.failures.non_finite_lambda"),
          g.counter("sshopm.solve.trace.non_monotone_steps"),
          g.histogram("sshopm.solve.iterations"),
          g.histogram("sshopm.solve.lambda_final"),
      };
      for (const kernels::Tier t : kernels::kAllTiers) {
        const std::string base(kernels::tier_name(t));
        const auto i = static_cast<std::size_t>(t);
        d.ttsv0_calls[i] = &g.counter("kernels.ttsv0.calls." + base);
        d.ttsv1_calls[i] = &g.counter("kernels.ttsv1.calls." + base);
        d.ttsv0_multi_calls[i] =
            &g.counter("kernels.ttsv0_multi.calls." + base);
        d.ttsv1_multi_calls[i] =
            &g.counter("kernels.ttsv1_multi.calls." + base);
      }
      return d;
    }();
    return m;
  }
};

/// One post-run accounting pass: outcome counters, the iteration and
/// final-lambda distributions, and (when a trace was kept) the monotonicity
/// summary Kolda & Mayo's convergence theory predicts.
template <Real T>
inline void record_solve(const Result<T>& r, const Options& opt) {
  SolveMetrics& m = SolveMetrics::get();
  m.runs.inc();
  switch (r.failure) {
    case FailureReason::kNone:
      m.converged.inc();
      break;
    case FailureReason::kMaxIterations:
      m.fail_max_iterations.inc();
      break;
    case FailureReason::kDegenerateIterate:
      m.fail_degenerate.inc();
      break;
    case FailureReason::kNonFiniteLambda:
      m.fail_non_finite.inc();
      break;
  }
  m.iterations.record(static_cast<double>(r.iterations));
  if (std::isfinite(static_cast<double>(r.lambda))) {
    m.lambda_final.record(static_cast<double>(r.lambda));
  }
  if (opt.record_trace && r.lambda_trace.size() >= 2) {
    std::int64_t bad = 0;
    for (std::size_t i = 1; i < r.lambda_trace.size(); ++i) {
      const double step = static_cast<double>(r.lambda_trace[i]) -
                          static_cast<double>(r.lambda_trace[i - 1]);
      // alpha >= 0 drives lambda up (maxima), alpha < 0 down (minima).
      if (opt.alpha >= 0 ? step < 0 : step > 0) ++bad;
    }
    if (bad > 0) m.trace_non_monotone.add(bad);
  }
}

/// record_solve for a solve() run on `tier`, which also adds the run's
/// kernel calls. solve() calls ttsv1 once per iteration and ttsv0 once up
/// front plus once per iteration whose iterate normalized -- every
/// iteration but a kDegenerateIterate run's last. A degenerate start
/// (iterations 0) therefore made no calls at all.
template <Real T>
inline void record_solve(const Result<T>& r, const Options& opt,
                         kernels::Tier tier) {
  record_solve(r, opt);
  SolveMetrics& m = SolveMetrics::get();
  const auto i = static_cast<std::size_t>(tier);
  const std::int64_t ttsv1 = r.iterations;
  const std::int64_t ttsv0 =
      ttsv1 + 1 - (r.failure == FailureReason::kDegenerateIterate ? 1 : 0);
  m.ttsv0_calls[i]->add(ttsv0);
  m.ttsv1_calls[i]->add(ttsv1);
}
}  // namespace detail
#endif  // TE_OBS_ENABLED

/// One SS-HOPM run from a single start (paper Fig. 1).
///
/// `x0` need not be normalized. Optional OpCounts tallies the floating-point
/// work actually performed (used for measured-GFLOPS reports).
///
/// Never throws on degenerate *values* (zero/NaN/Inf starts or tensor
/// entries): such runs come back with converged == false and
/// Result::failure saying why. TE_REQUIRE still rejects structural misuse
/// (wrong start length, non-positive iteration budget).
template <Real T>
[[nodiscard]] Result<T> solve(const kernels::BoundKernels<T>& k,
                              std::span<const T> x0, const Options& opt,
                              OpCounts* ops = nullptr) {
  const int n = k.tensor().dim();
  TE_REQUIRE(static_cast<int>(x0.size()) == n, "start vector length mismatch");
  TE_REQUIRE(opt.max_iterations >= 1, "max_iterations must be positive");

  Result<T> r;
  r.x.assign(x0.begin(), x0.end());
  std::span<T> x(r.x.data(), r.x.size());
  if (try_normalize(x) == T(0)) {
    r.failure = FailureReason::kDegenerateIterate;
    TE_OBS_ONLY(detail::record_solve(r, opt, k.tier()));
    return r;
  }

  const T alpha = static_cast<T>(opt.alpha);
  const T sign = opt.alpha >= 0 ? T(1) : T(-1);
  T lambda = k.ttsv0(std::span<const T>(x.data(), x.size()), ops);
  if (opt.record_trace) r.lambda_trace.push_back(lambda);
  if (!std::isfinite(static_cast<double>(lambda))) {
    r.lambda = lambda;
    r.failure = FailureReason::kNonFiniteLambda;
    TE_OBS_ONLY(detail::record_solve(r, opt, k.tier()));
    return r;
  }

  std::vector<T> y(static_cast<std::size_t>(n));
  for (int it = 0; it < opt.max_iterations; ++it) {
    // xhat = +-(A x^{m-1} + alpha x), then normalize.
    k.ttsv1(std::span<const T>(x.data(), x.size()),
            std::span<T>(y.data(), y.size()), ops);
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      x[ui] = sign * (y[ui] + alpha * x[ui]);
    }
    r.iterations = it + 1;
    if (try_normalize(x) == T(0)) {
      // xhat vanished (e.g. A x^{m-1} = -alpha x exactly, or the tensor
      // zeroed the iterate) or overflowed: report, don't throw.
      r.failure = FailureReason::kDegenerateIterate;
      break;
    }
    const T next = k.ttsv0(std::span<const T>(x.data(), x.size()), ops);
    if (opt.record_trace) r.lambda_trace.push_back(next);
    if (ops) {
      ops->fmul += 3 * n;  // shift fma + norm dot + scaling
      ops->fadd += 2 * n;
      ops->sfu += 1;
    }
    if (!std::isfinite(static_cast<double>(next))) {
      // |next - lambda| <= tol is always false for NaN; without this check
      // a poisoned run would silently burn the whole iteration budget.
      lambda = next;
      r.failure = FailureReason::kNonFiniteLambda;
      break;
    }
    if (std::abs(static_cast<double>(next - lambda)) <= opt.tolerance) {
      lambda = next;
      r.converged = true;
      break;
    }
    lambda = next;
  }
  r.lambda = lambda;
  if (!r.converged && r.failure == FailureReason::kNone) {
    r.failure = FailureReason::kMaxIterations;
  }
  TE_OBS_ONLY(detail::record_solve(r, opt, k.tier()));
  return r;
}

/// A convexity-forcing shift in the style of Kolda & Mayo's beta(A) bound:
/// alpha = (m - 1) * ||A||_F. Since |A x^{m-2}|_2 <= ||A||_F on the unit
/// sphere, this dominates the curvature of f(x) = A x^m there, making the
/// shifted map monotone; it also dominates every Z-eigenvalue
/// (|lambda| = |A x^m| = |<A, x^(x m)>| <= ||A||_F).
template <Real T>
[[nodiscard]] double suggest_shift(const SymmetricTensor<T>& a) {
  return (a.order() - 1) * static_cast<double>(a.frobenius_norm());
}

}  // namespace te::sshopm
