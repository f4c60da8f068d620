#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/arena.hpp"

namespace circles::util {
namespace {

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<std::uint32_t>> hits(257);
  pool.parallel_for(hits.size(), 8, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, SerialShortCircuitsStillRunEverything) {
  ThreadPool pool(2);
  // max_threads = 1 and count = 1 both take the inline path.
  std::vector<int> a(64, 0), b(1, 0);
  pool.parallel_for(a.size(), 1, [&](std::size_t i) { a[i] = 1; });
  pool.parallel_for(b.size(), 8, [&](std::size_t i) { b[i] = 1; });
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0), 64);
  EXPECT_EQ(b[0], 1);
  // Zero helpers is a valid pool: regions run inline on the caller.
  ThreadPool inline_only(0);
  std::fill(a.begin(), a.end(), 0);
  inline_only.parallel_for(a.size(), 8, [&](std::size_t i) { a[i] = 1; });
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0), 64);
}

TEST(ThreadPoolTest, SequentialRegionsReuseTheParkedWorkers) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, 8, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50u * (100u * 101u / 2u));
}

TEST(ThreadPoolTest, SharedPoolIsAProcessWideSingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  // hardware_concurrency() - 1 helpers, floored at zero on 1-core boxes.
  EXPECT_GE(a.helpers() + 1u, 1u);
}

TEST(ArenaTest, AllocationsAreZeroedAndAligned) {
  Arena arena(128);
  const std::span<std::uint64_t> slab = arena.alloc<std::uint64_t>(13);
  ASSERT_EQ(slab.size(), 13u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slab.data()) %
                alignof(std::uint64_t),
            0u);
  for (const std::uint64_t v : slab) EXPECT_EQ(v, 0u);
  EXPECT_TRUE(arena.alloc<std::uint64_t>(0).empty());
}

TEST(ArenaTest, EarlierSpansSurviveBlockGrowth) {
  Arena arena(64);
  const std::span<std::uint32_t> first = arena.alloc<std::uint32_t>(8);
  for (std::size_t i = 0; i < first.size(); ++i) {
    first[i] = static_cast<std::uint32_t>(1000 + i);
  }
  const std::uint32_t* const before = first.data();
  // Far larger than any block so far: forces fresh blocks, must not move or
  // clobber the earlier span.
  (void)arena.alloc<std::uint64_t>(1 << 16);
  (void)arena.alloc<std::uint8_t>(1 << 18);
  EXPECT_EQ(first.data(), before);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], static_cast<std::uint32_t>(1000 + i));
  }
}

TEST(ArenaTest, CapacityCoversEveryAllocation) {
  Arena arena(64);
  std::size_t requested = 0;
  for (int i = 0; i < 40; ++i) {
    (void)arena.alloc<std::uint64_t>(17);
    requested += 17 * sizeof(std::uint64_t);
    // Disjoint live allocations always fit inside the reserved blocks.
    EXPECT_GE(arena.capacity_bytes(), requested);
  }
}

}  // namespace
}  // namespace circles::util
