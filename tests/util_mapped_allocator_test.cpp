// util::MappedAllocator: large blocks bypass malloc, small ones do not, and a
// MappedVector behaves like any std::vector across the size threshold.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>

#include "util/mapped_allocator.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace circles::util {
namespace {

TEST(MappedAllocatorTest, VectorSemanticsHoldAcrossTheThreshold) {
  MappedVector<std::uint32_t> values;
  const std::size_t big = 4 * kMinMappedBytes / sizeof(std::uint32_t);
  // push_back regrows from heap-sized to mapped buffers along the way.
  for (std::uint32_t i = 0; i < big; ++i) values.push_back(i);
  ASSERT_EQ(values.size(), big);
  const std::uint64_t want =
      static_cast<std::uint64_t>(big) * (big - 1) / 2;
  EXPECT_EQ(std::accumulate(values.begin(), values.end(), std::uint64_t{0}),
            want);

  MappedVector<std::uint32_t> copy = values;
  MappedVector<std::uint32_t> moved = std::move(values);
  EXPECT_EQ(copy, moved);
  copy.resize(3);
  copy.shrink_to_fit();
  EXPECT_EQ(copy, (MappedVector<std::uint32_t>{0, 1, 2}));
}

#if defined(__GLIBC__)
TEST(MappedAllocatorTest, LargeBlocksStayOutOfMallocsBookkeeping) {
  const struct mallinfo2 before = mallinfo2();
  {
    MappedVector<std::uint8_t> small(kMinMappedBytes / 2, 1);
    if (mallinfo2().uordblks < before.uordblks + small.size()) {
      GTEST_SKIP() << "malloc is not glibc's here (sanitizer runtime?)";
    }
  }
  const struct mallinfo2 after_small = mallinfo2();
  MappedVector<std::uint8_t> table(8 * kMinMappedBytes, 1);
  const struct mallinfo2 during = mallinfo2();
  EXPECT_EQ(during.hblkhd, after_small.hblkhd);  // no malloc-side mmap
  EXPECT_EQ(during.uordblks, after_small.uordblks);  // nothing on the heap
  EXPECT_EQ(table.back(), 1);
}
#endif

}  // namespace
}  // namespace circles::util
