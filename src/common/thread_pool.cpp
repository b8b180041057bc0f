#include "common/thread_pool.h"

#include <atomic>
#include <exception>
#include <utility>

namespace eilid::common {

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool& ThreadPool::serial() {
  static ThreadPool pool{Serial{}};
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: submitted work always runs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // parallel_for tasks catch their own exceptions
  }
}

void ThreadPool::parallel_for(size_t n, const std::function<void(size_t)>& fn) {
  if (workers_.empty()) {
    // The serial pool: no queue, no locks, nothing shared.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (n == 0) return;

  // One chunky task per worker; each claims indices until none remain.
  struct Sweep {
    std::atomic<size_t> next{0};
    size_t n;
    const std::function<void(size_t)>* fn;
    std::mutex mu;
    std::condition_variable done_cv;
    size_t tasks_left;
    std::exception_ptr first_error;
  };
  Sweep sweep;
  sweep.n = n;
  sweep.fn = &fn;
  const size_t tasks = workers_.size() < n ? workers_.size() : n;
  sweep.tasks_left = tasks;

  for (size_t t = 0; t < tasks; ++t) {
    submit([&sweep] {
      for (;;) {
        const size_t i = sweep.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= sweep.n) break;
        try {
          (*sweep.fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(sweep.mu);
          if (!sweep.first_error) {
            sweep.first_error = std::current_exception();
          }
          // Abandon unclaimed indices: later fetch_adds land past n.
          sweep.next.store(sweep.n, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(sweep.mu);
      if (--sweep.tasks_left == 0) sweep.done_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(sweep.mu);
  sweep.done_cv.wait(lock, [&sweep] { return sweep.tasks_left == 0; });
  if (sweep.first_error) std::rethrow_exception(sweep.first_error);
}

}  // namespace eilid::common
