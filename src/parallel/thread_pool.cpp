#include "te/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace te {

ThreadPool::ThreadPool(int num_threads) {
  TE_REQUIRE(num_threads >= 1, "pool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_job_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.back());
      queue_.pop_back();
      ++active_;
    }
    try {
      job();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(job));
  }
  cv_job_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    auto e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::submit_range(
    std::int64_t first, std::int64_t last,
    const std::function<void(std::int64_t, std::int64_t, int)>& f) {
  // Empty range: a complete no-op -- no jobs enqueued, no lock taken, no
  // wakeup broadcast, f never called.
  if (last <= first) return;
  // One claiming job per worker, never more jobs than indices. The cursor
  // outlives every job: wait_idle() returns only once all have finished.
  const int jobs =
      static_cast<int>(std::min<std::int64_t>(last - first, num_threads()));
  std::atomic<std::int64_t> cursor{first};
  {
    std::lock_guard lock(mutex_);
    for (int worker = 0; worker < jobs; ++worker) {
      queue_.push_back([&f, &cursor, last, worker] {
        for (std::int64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
             i < last; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
          f(i, i + 1, worker);
        }
      });
    }
  }
  // Wake exactly as many workers as there are jobs; a full broadcast is
  // only worth it when every worker has one.
  if (jobs >= num_threads()) {
    cv_job_.notify_all();
  } else {
    for (int i = 0; i < jobs; ++i) cv_job_.notify_one();
  }
  wait_idle();
}

void ThreadPool::parallel_for(std::int64_t count,
                              const std::function<void(std::int64_t)>& f) {
  submit_range(0, count, [&f](std::int64_t i, std::int64_t, int) { f(i); });
}

}  // namespace te
