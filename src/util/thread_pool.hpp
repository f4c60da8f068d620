// The process's one worker pool: BatchRunner's across-trial jobs run here.
//
// The workers are created once and parked on a condition variable between
// regions. parallel_for(count, fn) runs fn(0..count-1) with the calling
// thread participating; the division of indices across threads is racy ON
// PURPOSE (work stealing via one fetch_add), which is only sound because
// every caller writes task-indexed disjoint state and performs
// order-sensitive reductions serially afterwards. Determinism therefore
// never depends on the pool: results are bitwise identical for any worker
// count, including zero.
//
// Concurrent parallel_for calls from different threads are safe; regions
// are served newest-first. fn must not throw: on a helper thread an
// escaping exception calls std::terminate.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace circles::util {

class ThreadPool {
 public:
  /// `helpers` worker threads are spawned (callers participate in their own
  /// regions, so total concurrency per region is helpers + 1). Zero helpers
  /// is valid: every region then runs inline on the caller.
  explicit ThreadPool(unsigned helpers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads (excluding callers).
  unsigned helpers() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(i) for every i in [0, count); returns when all calls finished.
  /// At most `max_threads` threads (including the caller) touch the region;
  /// max_threads <= 1, count <= 1 or an empty pool short-circuit to an
  /// inline serial loop.
  void parallel_for(std::size_t count, unsigned max_threads,
                    const std::function<void(std::size_t)>& fn);

  /// The process-wide pool, lazily built with hardware_concurrency() - 1
  /// helpers.
  static ThreadPool& shared();

 private:
  struct Region {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    unsigned max_helpers = 0;  // helper threads admitted (caller not counted)
    unsigned helpers_inside = 0;  // guarded by the pool mutex
  };

  /// Claims and runs tasks until the region's index space is exhausted.
  static void drain(Region& region);

  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers: "a region was posted"
  std::condition_variable region_cv_; // callers: "a helper left a region"
  std::vector<Region*> open_;         // regions still admitting helpers
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace circles::util
