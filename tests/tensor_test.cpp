// Tests for symmetric/dense tensor storage: packed layout, accessors by
// arbitrary (unsorted) tensor index, dense round trips, symmetrization,
// generators and text I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "te/tensor/dense_tensor.hpp"
#include "te/tensor/generators.hpp"
#include "te/tensor/io.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/rng.hpp"

namespace te {
namespace {

TEST(SymmetricTensor, StorageCountMatchesProperty1) {
  SymmetricTensor<double> a(4, 3);
  EXPECT_EQ(a.num_unique(), 15);
  EXPECT_EQ(a.num_dense(), 81);
  SymmetricTensor<double> b(3, 4);
  EXPECT_EQ(b.num_unique(), 20);
  EXPECT_EQ(b.num_dense(), 64);
}

TEST(SymmetricTensor, PermutedIndicesShareAValue) {
  SymmetricTensor<double> a(3, 2);
  a({0, 0, 1}) = 7.5;
  EXPECT_DOUBLE_EQ(a({0, 0, 1}), 7.5);
  EXPECT_DOUBLE_EQ(a({0, 1, 0}), 7.5);
  EXPECT_DOUBLE_EQ(a({1, 0, 0}), 7.5);
  // A different class is untouched.
  EXPECT_DOUBLE_EQ(a({0, 1, 1}), 0.0);
}

TEST(SymmetricTensor, OffsetMatchesLexicographicRank) {
  SymmetricTensor<float> a(3, 4);
  // From the paper's Table I: [1,2,3] (1-based) = [0,1,2] (0-based) is the
  // 6th class (rank 5).
  std::vector<index_t> idx = {0, 1, 2};
  EXPECT_EQ(a.offset_of({idx.data(), idx.size()}), 5);
  // Permutations map to the same offset.
  idx = {2, 0, 1};
  EXPECT_EQ(a.offset_of({idx.data(), idx.size()}), 5);
  // Last class [3,3,3] has rank 19.
  idx = {3, 3, 3};
  EXPECT_EQ(a.offset_of({idx.data(), idx.size()}), 19);
}

TEST(SymmetricTensor, WrapRejectsWrongLength) {
  std::vector<double> vals(14, 0.0);
  EXPECT_THROW((SymmetricTensor<double>(4, 3, std::move(vals))),
               InvalidArgument);
}

TEST(SymmetricTensor, AccessorRejectsWrongArity) {
  SymmetricTensor<double> a(3, 3);
  std::vector<index_t> idx = {0, 1};
  EXPECT_THROW((void)a({idx.data(), idx.size()}), InvalidArgument);
}

TEST(SymmetricTensor, ScaleAndAddScaled) {
  CounterRng rng(42);
  auto a = random_symmetric_tensor<double>(rng, 0, 3, 3);
  auto b = random_symmetric_tensor<double>(rng, 1, 3, 3);
  auto c = a;
  c.add_scaled(b, 2.0);
  for (offset_t i = 0; i < a.num_unique(); ++i) {
    EXPECT_DOUBLE_EQ(c.value(i), a.value(i) + 2.0 * b.value(i));
  }
  c.scale(0.5);
  for (offset_t i = 0; i < a.num_unique(); ++i) {
    EXPECT_DOUBLE_EQ(c.value(i), 0.5 * (a.value(i) + 2.0 * b.value(i)));
  }
}

TEST(SymmetricTensor, AddScaledRejectsShapeMismatch) {
  SymmetricTensor<double> a(3, 3);
  SymmetricTensor<double> b(3, 4);
  EXPECT_THROW(a.add_scaled(b, 1.0), InvalidArgument);
}

TEST(SymmetricTensor, FrobeniusNormMatchesDense) {
  CounterRng rng(7);
  for (const auto& [m, n] : {std::pair{2, 3}, {3, 3}, {4, 2}}) {
    auto a = random_symmetric_tensor<double>(rng, 99, m, n);
    auto d = to_dense(a);
    double s = 0;
    for (double v : d.data()) s += v * v;
    EXPECT_NEAR(a.frobenius_norm(), std::sqrt(s), 1e-12)
        << "m=" << m << " n=" << n;
  }
}

TEST(DenseTensor, RowMajorOffsets) {
  DenseTensor<double> d(3, 2);
  std::vector<index_t> idx = {1, 0, 1};
  EXPECT_EQ(d.offset_of({idx.data(), idx.size()}), 5u);  // 1*4 + 0*2 + 1
  idx = {0, 0, 0};
  EXPECT_EQ(d.offset_of({idx.data(), idx.size()}), 0u);
  idx = {1, 1, 1};
  EXPECT_EQ(d.offset_of({idx.data(), idx.size()}), 7u);
}

TEST(DenseTensor, ForEachIndexVisitsAllInOrder) {
  DenseTensor<double> d(2, 3);
  std::size_t count = 0;
  std::size_t last = 0;
  d.for_each_index([&](std::span<const index_t> idx, std::size_t off) {
    EXPECT_EQ(off, d.offset_of(idx));
    if (count > 0) {
      EXPECT_EQ(off, last + 1);
    }
    last = off;
    ++count;
  });
  EXPECT_EQ(count, 9u);
}

TEST(DenseRoundTrip, ToDenseIsSymmetric) {
  CounterRng rng(3);
  auto a = random_symmetric_tensor<float>(rng, 5, 4, 3);
  auto d = to_dense(a);
  EXPECT_TRUE(d.is_symmetric());
}

TEST(DenseRoundTrip, FromDenseRecoversPacked) {
  CounterRng rng(3);
  for (const auto& [m, n] : {std::pair{2, 4}, {3, 3}, {4, 3}, {5, 2}}) {
    auto a = random_symmetric_tensor<double>(rng, 11, m, n);
    auto back = from_dense(to_dense(a));
    EXPECT_EQ(a, back) << "m=" << m << " n=" << n;
  }
}

TEST(DenseRoundTrip, FromDenseRejectsAsymmetric) {
  DenseTensor<double> d(2, 2);
  d({0, 1}) = 1.0;
  d({1, 0}) = 2.0;
  EXPECT_THROW((void)from_dense(d), InvalidArgument);
}

TEST(Symmetrize, ProjectsToClassMeans) {
  DenseTensor<double> d(2, 2);
  d({0, 1}) = 1.0;
  d({1, 0}) = 3.0;
  d({0, 0}) = 5.0;
  auto s = symmetrize(d);
  EXPECT_DOUBLE_EQ(s({0, 1}), 2.0);  // mean of 1 and 3
  EXPECT_DOUBLE_EQ(s({0, 0}), 5.0);
}

TEST(Symmetrize, IdempotentOnSymmetricInput) {
  CounterRng rng(9);
  auto a = random_symmetric_tensor<double>(rng, 2, 3, 3);
  auto s = symmetrize(to_dense(a));
  for (offset_t i = 0; i < a.num_unique(); ++i) {
    EXPECT_NEAR(s.value(i), a.value(i), 1e-12);
  }
}

TEST(Generators, RankOneEntriesAreProducts) {
  std::vector<double> x = {0.5, -0.3, 0.8};
  auto a = rank_one_tensor<double>(2.0, {x.data(), x.size()}, 3);
  EXPECT_NEAR(a({0, 1, 2}), 2.0 * 0.5 * -0.3 * 0.8, 1e-15);
  EXPECT_NEAR(a({2, 2, 2}), 2.0 * 0.8 * 0.8 * 0.8, 1e-15);
  EXPECT_NEAR(a({0, 0, 0}), 2.0 * 0.125, 1e-15);
}

TEST(Generators, RankRTensorSumsTerms) {
  std::vector<std::vector<double>> xs = {{1.0, 0.0}, {0.0, 1.0}};
  std::vector<double> lambdas = {2.0, -3.0};
  auto a = rank_r_tensor<double>({lambdas.data(), lambdas.size()},
                                 {xs.data(), xs.size()}, 3);
  EXPECT_DOUBLE_EQ(a({0, 0, 0}), 2.0);
  EXPECT_DOUBLE_EQ(a({1, 1, 1}), -3.0);
  EXPECT_DOUBLE_EQ(a({0, 0, 1}), 0.0);
}

TEST(Generators, FromMatrixPreservesEntries) {
  Matrix<double> m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 2;
  m(1, 1) = 4;
  auto a = from_matrix(m);
  EXPECT_DOUBLE_EQ(a({0, 0}), 1);
  EXPECT_DOUBLE_EQ(a({0, 1}), 2);
  EXPECT_DOUBLE_EQ(a({1, 1}), 4);
}

TEST(Generators, RandomTensorIsDeterministicInSeed) {
  CounterRng rng(1234);
  auto a = random_symmetric_tensor<double>(rng, 17, 4, 3);
  auto b = random_symmetric_tensor<double>(rng, 17, 4, 3);
  EXPECT_EQ(a, b);
  auto c = random_symmetric_tensor<double>(rng, 18, 4, 3);
  EXPECT_NE(a, c);
}

TEST(Generators, KofidisRegaliaShape) {
  auto a = kofidis_regalia_example<double>();
  EXPECT_EQ(a.order(), 3);
  EXPECT_EQ(a.dim(), 3);
  EXPECT_NEAR(a({0, 0, 0}), 0.4333, 1e-12);
  EXPECT_NEAR(a({1, 2, 2}), 0.8834, 1e-12);
}

TEST(TensorIo, RoundTripsSingleTensor) {
  CounterRng rng(5);
  auto a = random_symmetric_tensor<double>(rng, 3, 4, 3);
  std::stringstream ss;
  write_tensor(ss, a);
  auto b = read_tensor<double>(ss);
  EXPECT_EQ(a, b);
}

TEST(TensorIo, RoundTripsBatch) {
  CounterRng rng(5);
  std::vector<SymmetricTensor<float>> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(random_symmetric_tensor<float>(rng, i, 3, 3));
  }
  std::stringstream ss;
  write_tensor_batch(ss, std::span<const SymmetricTensor<float>>(
                             batch.data(), batch.size()));
  auto back = read_tensor_batch<float>(ss);
  ASSERT_EQ(back.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(batch[i], back[i]);
}

TEST(TensorIo, RejectsMalformedHeader) {
  std::stringstream ss("wrongtag 3 3\n1 2 3");
  EXPECT_THROW((void)read_tensor<double>(ss), InvalidArgument);
}

TEST(TensorIo, RejectsTruncatedValues) {
  std::stringstream ss("symtensor 3 3\n1 2 3");  // needs 10 values
  EXPECT_THROW((void)read_tensor<double>(ss), InvalidArgument);
}

TEST(CapacityPrecheck, TensorConstructionRejectsOverflowShape) {
  // (6, 10^4) would wrap the int64 rank arithmetic (comb::shape_fits_offset).
  EXPECT_THROW((SymmetricTensor<double>(6, 10000)), InvalidArgument);
}

}  // namespace
}  // namespace te
