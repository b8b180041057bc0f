// A small fixed-size thread pool: one shared FIFO queue, a fixed set
// of workers, no work stealing. This is all the fleet engine needs --
// fleet work items (simulate a device window, attest one device) are
// coarse enough that a single locked queue never becomes the
// bottleneck, and FIFO keeps scheduling deterministic enough to reason
// about in tests.
//
//   common::ThreadPool pool(4);
//   pool.parallel_for(devices.size(), [&](size_t i) {
//     drive(devices[i]);
//   });
//
// parallel_for() blocks the calling thread until every index has run
// (the caller does not execute work items itself, so a pool of N uses
// exactly N workers) and rethrows the first exception a work item
// threw. The destructor drains the queue before joining.
//
// ThreadPool::serial() is the process-wide pool with no workers: its
// parallel_for() runs fn(0) .. fn(n-1) in index order on the calling
// thread. Every fleet operation takes a `ThreadPool& pool =
// ThreadPool::serial()` parameter, so one body serves the serial and
// the pooled run alike.
#ifndef EILID_COMMON_THREAD_POOL_H
#define EILID_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eilid::common {

class ThreadPool {
 public:
  // 0 workers means std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The pool with no workers (worker_count() == 0): parallel_for runs
  // fn(0) .. fn(n-1) in index order on the calling thread and stops at
  // the first exception, rethrowing it. It holds no mutable state, so
  // any number of threads may use it at once, and it is reentrant.
  static ThreadPool& serial();

  size_t worker_count() const { return workers_.size(); }

  // Run fn(0) .. fn(n-1) across the workers and block until all have
  // finished. Indices are claimed atomically, so the iteration order
  // interleaves but every index runs exactly once. If any invocation
  // throws, the remaining unclaimed indices are abandoned and the
  // first exception is rethrown here. Not reentrant: must not be
  // called from inside a pool task of the same pool (the serial pool
  // excepted).
  void parallel_for(size_t n, const std::function<void(size_t)>& fn);

 private:
  struct Serial {};
  explicit ThreadPool(Serial) {}

  // Enqueue one task; tasks run in FIFO order across the workers.
  void submit(std::function<void()> task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace eilid::common

#endif  // EILID_COMMON_THREAD_POOL_H
