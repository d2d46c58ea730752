#pragma once
// Runtime width selection and tier dispatch for the multi-vector kernels.
//
// Mirrors dispatch.hpp's BoundKernels: a MultiKernels<T> facade binds one
// tensor, one tier and a lane width W, and routes ttsv0/ttsv1 calls over a
// VectorBatch to the vectorized multi kernels where a bit-compatible one
// exists (general, precomputed, unrolled-with-entry) or to a per-lane
// scalar fallback otherwise (blocked, unregistered unrolled widths).
// The fallback gathers each lane into a stack vector and calls the scalar
// tier, so results are bitwise identical to the per-vector path by
// construction -- only the vectorized routes trade bit-identity for the
// documented contraction-level tolerance.
//
// Width resolution: 1 selects the per-lane scalar route explicitly, 0 asks
// pick_simd_width() for the hardware-preferred lane count, anything else
// must be a registered power of two (multi_widths()).

#include <span>

#include "te/kernels/dispatch.hpp"
#include "te/kernels/multi.hpp"
#include "te/obs/obs.hpp"

namespace te::kernels {

/// Lane widths with vectorized kernel instantiations, ascending. Width 1
/// is always accepted by MultiKernels as the scalar per-lane route.
[[nodiscard]] std::span<const int> multi_widths() noexcept;

/// True when `width` is 1 or a registered vector width.
[[nodiscard]] bool is_multi_width(int width) noexcept;

/// Heuristic lane pick for (order, dim, tier): one full vector register of
/// T (AVX-512: 16 floats / 8 doubles) for the tiers with vectorized
/// routes, 1 for the tiers that would fall back to scalar anyway.
template <Real T>
[[nodiscard]] int pick_simd_width(int order, int dim, Tier tier);

/// Vectorized general-tier entry points for one width.
template <Real T>
struct MultiGeneralFns {
  int width;
  void (*ttsv0)(int order, int dim, const T* values, const T* xb, T* out,
                OpCounts* ops);
  void (*ttsv1)(int order, int dim, const T* values, const T* xb, T* yb,
                OpCounts* ops);
};

/// Vectorized precomputed-tier entry points for one width.
template <Real T>
struct MultiPrecomputedFns {
  int width;
  void (*ttsv0)(const KernelTables<T>& tab, const T* values, const T* xb,
                T* out, OpCounts* ops);
  void (*ttsv1)(const KernelTables<T>& tab, const T* values, const T* xb,
                T* yb, OpCounts* ops);
};

/// One prebuilt (order, dim, width) unrolled multi shape.
template <Real T>
struct MultiUnrolledEntry {
  int order;
  int dim;
  int width;
  void (*ttsv0)(const T* a, const T* xb, T* out);
  void (*ttsv1)(const T* a, const T* xb, T* yb);
};

/// Lookups; nullptr when no vectorized instantiation exists.
template <Real T>
[[nodiscard]] const MultiGeneralFns<T>* find_multi_general(int width) noexcept;
template <Real T>
[[nodiscard]] const MultiPrecomputedFns<T>* find_multi_precomputed(
    int width) noexcept;
template <Real T>
[[nodiscard]] const MultiUnrolledEntry<T>* find_multi_unrolled(
    int order, int dim, int width) noexcept;

#if TE_OBS_ENABLED
namespace detail {
/// Lane-width gauges set when a facade is bound, name-resolved once. The
/// ttsv call paths carry no instrumentation: solve_multi counts its block
/// calls and records them once per run.
struct MultiDispatchMetrics {
  obs::Gauge* width_by_tier[kTierCodeLimit] = {};
  obs::Gauge* simd_width;

  static MultiDispatchMetrics& get() {
    static MultiDispatchMetrics m = [] {
      MultiDispatchMetrics d;
      for (const Tier t : kAllTiers) {
        const std::string base(tier_name(t));
        d.width_by_tier[static_cast<int>(t)] =
            &obs::global().gauge("kernels.multi.width." + base);
      }
      d.simd_width = &obs::global().gauge("kernels.multi.simd_width");
      return d;
    }();
    return m;
  }
};
}  // namespace detail
#endif  // TE_OBS_ENABLED

/// Tensor + tier + lane width behind a uniform batch-call interface.
///
/// The bound tensor and (for table tiers) tables must outlive the facade.
/// All batches passed to ttsv0/ttsv1 must have width() lanes and the
/// tensor's dimension. Like BoundKernels, the facade is immutable after
/// construction and safe to share across threads.
template <Real T>
class MultiKernels {
 public:
  MultiKernels(const SymmetricTensor<T>& a, Tier tier,
               const KernelTables<T>* tables = nullptr, int width = 0)
      : a_(&a), tier_(tier), tables_(tables), scalar_(a, tier, tables) {
    TE_REQUIRE(a.dim() <= 64, "multi kernels support dim <= 64");
    width_ = (width == 0) ? pick_simd_width<T>(a.order(), a.dim(), tier)
                          : width;
    TE_REQUIRE(is_multi_width(width_),
               "unsupported simd width " << width_);
    if (width_ > 1) {
      switch (tier_) {
        case Tier::kGeneral:
          general_ = find_multi_general<T>(width_);
          break;
        case Tier::kPrecomputed:
          precomputed_ = find_multi_precomputed<T>(width_);
          break;
        case Tier::kUnrolled:
          unrolled_ = find_multi_unrolled<T>(a.order(), a.dim(), width_);
          scalar_unrolled_ = find_unrolled<T>(a.order(), a.dim());
          break;
        case Tier::kJit:
          jit_multi_ = find_jit_multi<T>(a.order(), a.dim(), width_);
          break;
        case Tier::kBlocked:
          // No bit-compatible vectorized route; per-lane scalar fallback.
          break;
      }
    }
    if (tier_ == Tier::kUnrolled && scalar_unrolled_ == nullptr) {
      scalar_unrolled_ = find_unrolled<T>(a.order(), a.dim());
    }
    if (tier_ == Tier::kJit) {
      // Always resolvable: scalar_'s construction above already required an
      // admitted scalar kernel for this shape.
      jit_scalar_ = find_jit<T>(a.order(), a.dim());
    }
    TE_OBS_ONLY({
      auto& m = detail::MultiDispatchMetrics::get();
      m.simd_width->set(static_cast<double>(width_));
      m.width_by_tier[static_cast<int>(tier_)]->set(
          static_cast<double>(vectorized() ? width_ : 1));
    });
  }

  [[nodiscard]] const SymmetricTensor<T>& tensor() const { return *a_; }
  [[nodiscard]] Tier tier() const { return tier_; }

  /// Lanes per batch (resolved; what every VectorBatch must be sized to).
  [[nodiscard]] int width() const { return width_; }

  /// True when calls take the SIMD route; false means the per-lane scalar
  /// fallback (bitwise identical to BoundKernels, no amortization).
  [[nodiscard]] bool vectorized() const {
    return general_ != nullptr || precomputed_ != nullptr ||
           unrolled_ != nullptr || jit_multi_ != nullptr;
  }

  /// out[w] = A x_w^m for every lane w; out.size() == width().
  void ttsv0(const VectorBatch<T>& x, std::span<T> out,
             OpCounts* ops = nullptr) const {
    check_batch(x);
    TE_REQUIRE(static_cast<int>(out.size()) == width_,
               "output span must have one scalar per lane");
    if (general_ != nullptr) {
      general_->ttsv0(a_->order(), a_->dim(), a_->values().data(), x.data(),
                      out.data(), ops);
      return;
    }
    if (precomputed_ != nullptr) {
      precomputed_->ttsv0(*tables_, a_->values().data(), x.data(), out.data(),
                          ops);
      return;
    }
    if (unrolled_ != nullptr) {
      if (ops) *ops += scalar_unrolled_->ops0 * width_;
      unrolled_->ttsv0(a_->values().data(), x.data(), out.data());
      return;
    }
    if (jit_multi_ != nullptr) {
      if (ops) *ops += jit_scalar_->ops0 * width_;
      jit_multi_->ttsv0(a_->values().data(), x.data(), out.data());
      return;
    }
    T sx[64];
    for (int w = 0; w < width_; ++w) {
      gather_lane(x, w, sx);
      out[static_cast<std::size_t>(w)] =
          scalar_.ttsv0({sx, static_cast<std::size_t>(a_->dim())}, ops);
    }
  }

  /// y_w = A x_w^{m-1} for every lane w; y must match x's shape.
  void ttsv1(const VectorBatch<T>& x, VectorBatch<T>& y,
             OpCounts* ops = nullptr) const {
    check_batch(x);
    check_batch(y);
    if (general_ != nullptr) {
      general_->ttsv1(a_->order(), a_->dim(), a_->values().data(), x.data(),
                      y.data(), ops);
      return;
    }
    if (precomputed_ != nullptr) {
      precomputed_->ttsv1(*tables_, a_->values().data(), x.data(), y.data(),
                          ops);
      return;
    }
    if (unrolled_ != nullptr) {
      if (ops) *ops += scalar_unrolled_->ops1 * width_;
      unrolled_->ttsv1(a_->values().data(), x.data(), y.data());
      return;
    }
    if (jit_multi_ != nullptr) {
      if (ops) *ops += jit_scalar_->ops1 * width_;
      jit_multi_->ttsv1(a_->values().data(), x.data(), y.data());
      return;
    }
    T sx[64];
    T sy[64];
    const int n = a_->dim();
    for (int w = 0; w < width_; ++w) {
      gather_lane(x, w, sx);
      scalar_.ttsv1({sx, static_cast<std::size_t>(n)},
                    {sy, static_cast<std::size_t>(n)}, ops);
      for (int i = 0; i < n; ++i) y.at(i, w) = sy[i];
    }
  }

 private:
  void check_batch(const VectorBatch<T>& b) const {
    TE_REQUIRE(b.dim() == a_->dim() && b.width() == width_,
               "batch shape (" << b.dim() << " x " << b.width()
                               << ") does not match kernels (" << a_->dim()
                               << " x " << width_ << ")");
  }

  void gather_lane(const VectorBatch<T>& x, int w, T* sx) const {
    for (int i = 0; i < a_->dim(); ++i) sx[i] = x.at(i, w);
  }

  const SymmetricTensor<T>* a_;
  Tier tier_;
  const KernelTables<T>* tables_;
  BoundKernels<T> scalar_;  ///< validates tier inputs; fallback route
  int width_ = 1;
  const MultiGeneralFns<T>* general_ = nullptr;
  const MultiPrecomputedFns<T>* precomputed_ = nullptr;
  const MultiUnrolledEntry<T>* unrolled_ = nullptr;
  const UnrolledEntry<T>* scalar_unrolled_ = nullptr;
  const JitMultiEntry<T>* jit_multi_ = nullptr;
  const JitEntry<T>* jit_scalar_ = nullptr;
};

}  // namespace te::kernels
