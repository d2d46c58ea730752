#pragma once
// A small fixed-size thread pool with a blocking parallel_for.
//
// The CPU batch backend parallelizes over independent tensors as the paper
// does with `omp parallel for` (Section V-E). Tensors do not cost the same:
// SS-HOPM iteration counts per tensor vary several-fold, so a static split
// leaves workers idle at every chunk barrier. The claim rule is therefore
// dynamic and index-granular: each worker repeatedly takes the next
// unclaimed index from one shared atomic cursor and runs it, until the
// range is exhausted (OpenMP's schedule(dynamic, 1)). The one atomic
// increment per index is noise next to a tensor's solves.
//
// The pool is also usable with more workers than hardware threads -- the
// functional results are identical, which is what the tests rely on when
// checking that the parallel backend is bit-compatible with the sequential
// one regardless of the host's core count.

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "te/util/assert.hpp"

namespace te {

/// Fixed pool of worker threads executing submitted jobs.
class ThreadPool {
 public:
  /// Spawn `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; outstanding jobs complete first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Run f(i) for i in [0, count), distributed over the pool by the claim
  /// rule above; blocks until every iteration has finished. Exceptions
  /// thrown by f propagate to the caller (first one wins).
  void parallel_for(std::int64_t count,
                    const std::function<void(std::int64_t)>& f);

  /// Bulk submission: run f(i, i + 1, worker) for every i in [first, last),
  /// each index claimed by exactly one worker; blocks until done. `worker`
  /// is in [0, num_threads()) and names the claiming job, so per-worker
  /// scratch indexed by it is never shared. All jobs are enqueued under a
  /// single lock acquisition with one wakeup broadcast. Exceptions thrown by
  /// f propagate to the caller (first one wins); the throwing worker stops
  /// claiming, the others drain the rest of the range.
  void submit_range(
      std::int64_t first, std::int64_t last,
      const std::function<void(std::int64_t, std::int64_t, int)>& f);

 private:
  void worker_loop();
  void submit(std::function<void()> job);
  void wait_idle();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  std::vector<std::function<void()>> queue_;
  int active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace te
