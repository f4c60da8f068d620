#include "util/thread_pool.hpp"

#include <algorithm>

namespace circles::util {

ThreadPool::ThreadPool(unsigned helpers) {
  workers_.reserve(helpers);
  for (unsigned i = 0; i < helpers; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([]() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0u;
  }());
  return pool;
}

void ThreadPool::drain(Region& region) {
  for (;;) {
    const std::size_t i =
        region.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.count) break;
    (*region.fn)(i);
    // release: the task's writes happen-before the caller's acquire read
    // of `done` hitting `count`, so post-region serial reductions see them.
    region.done.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::parallel_for(std::size_t count, unsigned max_threads,
                              const std::function<void(std::size_t)>& fn) {
  if (max_threads <= 1 || count <= 1 || workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Region region;
  region.fn = &fn;
  region.count = count;
  region.max_helpers = static_cast<unsigned>(std::min<std::size_t>(
      {max_threads - 1, workers_.size(), count - 1}));
  if (region.max_helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&region);
    }
    if (region.max_helpers == 1) {
      work_cv_.notify_one();
    } else {
      work_cv_.notify_all();
    }
  }

  drain(region);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Stop admitting helpers, then wait for the ones inside to leave; a
    // helper only touches the region between joining and leaving (both
    // under this mutex), so after this wait the stack frame is safe to
    // destroy. Tasks are all done by then: the index space was exhausted
    // when the caller's drain returned, and every claimed task is finished
    // before its claimer leaves.
    open_.erase(std::remove(open_.begin(), open_.end(), &region),
                open_.end());
    region_cv_.wait(lock, [&]() {
      return region.helpers_inside == 0 &&
             region.done.load(std::memory_order_acquire) == region.count;
    });
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this]() { return stop_ || !open_.empty(); });
    if (stop_) return;
    Region* region = open_.back();
    region->helpers_inside += 1;
    if (region->helpers_inside >= region->max_helpers) {
      open_.pop_back();  // full: no further helpers admitted
    }
    lock.unlock();

    drain(*region);

    lock.lock();
    region->helpers_inside -= 1;
    if (region->helpers_inside == 0) region_cv_.notify_all();
  }
}

}  // namespace circles::util
