// Thread-pool and CPU-model tests: functional correctness at several thread
// counts, exception propagation, chunking, and the documented shape of the
// multicore timing model.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "te/parallel/cpu_model.hpp"
#include "te/parallel/thread_pool.hpp"

namespace te {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(100, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> calls2{0};
  pool.parallel_for(2, [&](std::int64_t) { calls2.fetch_add(1); });
  EXPECT_EQ(calls2.load(), 2);
}

TEST(ThreadPool, ChunksAreContiguousAndCoverRange) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.submit_range(0, 10, [&](std::int64_t b, std::int64_t e, int) {
    std::lock_guard lock(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  std::int64_t covered = 0;
  std::int64_t expect_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_GT(e, b);
    covered += e - b;
    expect_begin = e;
  }
  EXPECT_EQ(covered, 10);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::int64_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Pool stays usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(5, [&](std::int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 5);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  // A deterministic reduction computed with different pool widths must be
  // identical (the batch backends rely on this property).
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<double> out(64);
    pool.parallel_for(64, [&](std::int64_t i) {
      double v = static_cast<double>(i) + 1;
      for (int k = 0; k < 20; ++k) v = v * 1.000001 + 0.5;
      out[static_cast<std::size_t>(i)] = v;
    });
    return out;
  };
  const auto a = run(1);
  EXPECT_EQ(a, run(3));
  EXPECT_EQ(a, run(8));
}

TEST(ThreadPool, RejectsNonPositiveWidth) {
  EXPECT_THROW(ThreadPool(0), InvalidArgument);
}

TEST(ThreadPool, ConcurrentParallelForCallsAllComplete) {
  // Two host threads drive one pool at the same time (the scheduler's
  // shared-pool mode); each call's iteration space runs exactly once.
  // Heavier variants live in stress_test.cpp (ctest label: stress).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(50), b(50);
  std::thread other([&] {
    pool.parallel_for(50, [&](std::int64_t i) {
      b[static_cast<std::size_t>(i)].fetch_add(1);
    });
  });
  pool.parallel_for(50, [&](std::int64_t i) {
    a[static_cast<std::size_t>(i)].fetch_add(1);
  });
  other.join();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)].load(), 1) << i;
    EXPECT_EQ(b[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

// ---------------------------------------------------------------------------
// CPU timing model.
// ---------------------------------------------------------------------------

TEST(CpuModel, OneThreadIsIdentity) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  EXPECT_DOUBLE_EQ(parallel::modeled_speedup(spec, params,
                                             kernels::Tier::kGeneral, 1),
                   1.0);
}

TEST(CpuModel, InSocketScalingIsNearLinear) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  const double s4 = parallel::modeled_speedup(spec, params,
                                              kernels::Tier::kGeneral, 4);
  EXPECT_GT(s4, 3.0);
  EXPECT_LT(s4, 4.0);
  // Same for the unrolled tier within one socket.
  EXPECT_DOUBLE_EQ(s4, parallel::modeled_speedup(
                           spec, params, kernels::Tier::kUnrolled, 4));
}

TEST(CpuModel, CrossSocketPenalizesUnrolledTier) {
  // The paper's observation: the general tier keeps scaling to 8 cores
  // (~7.1x) while the unrolled tier stalls (~4.7x).
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  const double g8 = parallel::modeled_speedup(spec, params,
                                              kernels::Tier::kGeneral, 8);
  const double u8 = parallel::modeled_speedup(spec, params,
                                              kernels::Tier::kUnrolled, 8);
  EXPECT_GT(g8, 6.0);
  EXPECT_LT(u8, 5.5);
  EXPECT_GT(u8, parallel::modeled_speedup(spec, params,
                                          kernels::Tier::kUnrolled, 4));
}

TEST(CpuModel, SpeedupIsMonotoneInThreads) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  for (auto tier : {kernels::Tier::kGeneral, kernels::Tier::kUnrolled}) {
    double prev = 0;
    for (int p = 1; p <= 8; ++p) {
      const double s = parallel::modeled_speedup(spec, params, tier, p);
      EXPECT_GT(s, prev) << "p=" << p;
      prev = s;
    }
  }
}

TEST(CpuModel, ModeledTimeDividesMeasured) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  const double t1 = 2.0;
  const double t8 = parallel::modeled_time(spec, params,
                                           kernels::Tier::kGeneral, 8, t1);
  EXPECT_NEAR(t8, t1 / parallel::modeled_speedup(spec, params,
                                                 kernels::Tier::kGeneral, 8),
              1e-12);
}

TEST(CpuModel, RejectsThreadsBeyondMachine) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  EXPECT_THROW((void)parallel::modeled_speedup(spec, params,
                                               kernels::Tier::kGeneral, 9),
               InvalidArgument);
  EXPECT_THROW((void)parallel::modeled_speedup(spec, params,
                                               kernels::Tier::kGeneral, 0),
               InvalidArgument);
}

TEST(CpuModel, PeakFlopsMatchPaperNehalem) {
  parallel::CpuSpec spec;
  EXPECT_DOUBLE_EQ(spec.peak_sp_gflops(1), 22.4);
  EXPECT_DOUBLE_EQ(spec.peak_sp_gflops(8), 179.2);
  EXPECT_EQ(spec.total_cores(), 8);
}

TEST(ThreadPoolRange, EmptyRangeIsCompleteNoOp) {
  ThreadPool pool(3);
  int calls = 0;
  pool.submit_range(5, 5, [&](std::int64_t, std::int64_t, int) { ++calls; });
  pool.submit_range(7, 3, [&](std::int64_t, std::int64_t, int) { ++calls; });
  pool.parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // The pool still works afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::int64_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolRange, SkewedCostIsClaimedDynamically) {
  // Index 0 is the expensive one: it does not finish until every other
  // index has run. A static split would strand the indices queued behind
  // it on the same worker; claiming lets the other workers drain them.
  constexpr int kThreads = 4;
  constexpr std::int64_t kCount = 64;
  ThreadPool pool(kThreads);
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<std::int64_t> others_done{0};
  std::mutex mu;
  std::vector<std::thread::id> owner(kThreads);
  bool drained = false;
  pool.submit_range(0, kCount, [&](std::int64_t b, std::int64_t e,
                                   int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, pool.num_threads());
    {
      // A worker id names one claiming job, i.e. one thread.
      std::lock_guard lock(mu);
      auto& id = owner[static_cast<std::size_t>(worker)];
      if (id == std::thread::id{}) id = std::this_thread::get_id();
      EXPECT_EQ(id, std::this_thread::get_id());
    }
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
      if (i == 0) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (others_done.load() < kCount - 1 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        drained = others_done.load() == kCount - 1;
      } else {
        others_done.fetch_add(1);
      }
    }
  });
  EXPECT_TRUE(drained);
  for (std::int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace te
