#pragma once
// Runtime selection of a kernel tier.
//
// The unrolled tier is a family of compile-time instantiations; this header
// exposes a registry of prebuilt shapes (the application sizes plus a sweep
// used by the occupancy study) and a BoundKernels facade that lets SS-HOPM
// and the batch backends pick a tier with a runtime enum while the kernels
// themselves stay fully typed.

#include <optional>
#include <span>
#include <string_view>

#include "te/kernels/blocked.hpp"
#include "te/kernels/general.hpp"
#include "te/kernels/jit_registry.hpp"
#include "te/kernels/precomputed.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/op_counter.hpp"

namespace te::kernels {

/// Kernel implementation tier (paper Section V's "General" vs "Unrolled";
/// kPrecomputed is the Section III-B.5 storage/compute trade; kBlocked is
/// its panel-order variant; kJit is the unrolled expansion generated,
/// compiled and admitted at *runtime* for shapes the compile-time registry
/// never saw).
///
/// The integer codes are persisted (checkpoint manifests and problem
/// fingerprints store static_cast<int32_t>(tier)), so they never change;
/// codes 2 and 5 belonged to removed tiers and stay unused.
enum class Tier {
  kGeneral = 0,
  kPrecomputed = 1,
  kBlocked = 3,
  kUnrolled = 4,
  kJit = 6,
};

/// Every tier, in code order (metrics registration and tier sweeps).
inline constexpr Tier kAllTiers[] = {Tier::kGeneral, Tier::kPrecomputed,
                                     Tier::kBlocked, Tier::kUnrolled,
                                     Tier::kJit};

/// One past the largest tier code: size of arrays indexed by tier code.
inline constexpr int kTierCodeLimit = static_cast<int>(Tier::kJit) + 1;

[[nodiscard]] constexpr std::string_view tier_name(Tier t) {
  switch (t) {
    case Tier::kGeneral:
      return "general";
    case Tier::kPrecomputed:
      return "precomputed";
    case Tier::kBlocked:
      return "blocked";
    case Tier::kUnrolled:
      return "unrolled";
    case Tier::kJit:
      return "jit";
  }
  return "?";
}

/// Inverse of tier_name: the tier with that exact name, nullopt otherwise.
[[nodiscard]] constexpr std::optional<Tier> tier_from_name(
    std::string_view name) {
  for (const Tier t : kAllTiers) {
    if (tier_name(t) == name) return t;
  }
  return std::nullopt;
}

/// Function-pointer record for one prebuilt unrolled shape.
template <Real T>
struct UnrolledEntry {
  int order;
  int dim;
  T (*ttsv0)(const T* a, const T* x);
  void (*ttsv1)(const T* a, const T* x, T* y);
  OpCounts ops0;  ///< exact float-op mix of one ttsv0 call
  OpCounts ops1;  ///< exact float-op mix of one ttsv1 call
};

/// All prebuilt unrolled shapes for scalar type T (float and double are
/// provided). Shapes: every (m, n) with m in {2,3,4,6} n in {2..6} plus
/// (5,3) and (8,3) -- the application sizes and the occupancy-study sweep.
template <Real T>
[[nodiscard]] std::span<const UnrolledEntry<T>> unrolled_registry();

/// Lookup; nullptr when the shape was not prebuilt.
template <Real T>
[[nodiscard]] const UnrolledEntry<T>* find_unrolled(int order, int dim);

/// Tensor + tier bound together behind a uniform call interface.
///
/// The bound tensor and (for kPrecomputed) tables must outlive the facade.
/// kUnrolled requires the shape to be present in the registry; callers that
/// want graceful fallback should check find_unrolled first. kJit likewise
/// requires an admitted runtime kernel (te::jit acquires, proves and
/// registers them; jit::acquire_tier is the graceful-fallback entry point
/// that degrades to kPrecomputed instead of throwing here). The facade is
/// immutable after construction and safe to share across threads.
template <Real T>
class BoundKernels {
 public:
  BoundKernels(const SymmetricTensor<T>& a, Tier tier,
               const KernelTables<T>* tables = nullptr)
      : a_(&a), tier_(tier), tables_(tables) {
    if (tier == Tier::kPrecomputed || tier == Tier::kBlocked) {
      TE_REQUIRE(tables != nullptr &&
                     tables->order() == a.order() && tables->dim() == a.dim(),
                 "precomputed/blocked tiers need matching KernelTables");
    } else if (tier == Tier::kUnrolled) {
      unrolled_ = find_unrolled<T>(a.order(), a.dim());
      TE_REQUIRE(unrolled_ != nullptr,
                 "no unrolled instantiation for order "
                     << a.order() << ", dim " << a.dim());
    } else if (tier == Tier::kJit) {
      jit_ = find_jit<T>(a.order(), a.dim());
      TE_REQUIRE(jit_ != nullptr,
                 "no admitted JIT kernel for order "
                     << a.order() << ", dim " << a.dim()
                     << " (acquire via te::jit first)");
    }
  }

  [[nodiscard]] const SymmetricTensor<T>& tensor() const { return *a_; }
  [[nodiscard]] Tier tier() const { return tier_; }

  [[nodiscard]] T ttsv0(std::span<const T> x, OpCounts* ops = nullptr) const {
    switch (tier_) {
      case Tier::kGeneral:
        return ttsv0_general(*a_, x, ops);
      case Tier::kPrecomputed:
        return ttsv0_precomputed(*a_, *tables_, x, ops);
      case Tier::kBlocked:
        return ttsv0_blocked(*a_, *tables_, x, ops);
      case Tier::kUnrolled: {
        if (ops) *ops += unrolled_->ops0;
        return unrolled_->ttsv0(a_->values().data(), x.data());
      }
      case Tier::kJit: {
        if (ops) *ops += jit_->ops0;
        return jit_->ttsv0(a_->values().data(), x.data());
      }
    }
    TE_REQUIRE(false, "unreachable");
    return T(0);
  }

  void ttsv1(std::span<const T> x, std::span<T> y,
             OpCounts* ops = nullptr) const {
    switch (tier_) {
      case Tier::kGeneral:
        ttsv1_general(*a_, x, y, ops);
        return;
      case Tier::kPrecomputed:
        ttsv1_precomputed(*a_, *tables_, x, y, ops);
        return;
      case Tier::kBlocked:
        ttsv1_blocked(*a_, *tables_, x, y, ops);
        return;
      case Tier::kUnrolled:
        if (ops) *ops += unrolled_->ops1;
        unrolled_->ttsv1(a_->values().data(), x.data(), y.data());
        return;
      case Tier::kJit:
        if (ops) *ops += jit_->ops1;
        jit_->ttsv1(a_->values().data(), x.data(), y.data());
        return;
    }
    TE_REQUIRE(false, "unreachable");
  }

 private:
  const SymmetricTensor<T>* a_;
  Tier tier_;
  const KernelTables<T>* tables_ = nullptr;
  const UnrolledEntry<T>* unrolled_ = nullptr;
  const JitEntry<T>* jit_ = nullptr;
};

}  // namespace te::kernels
