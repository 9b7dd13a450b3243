// base::Arena lifetime and accounting tests (DESIGN.md §14). The arena's
// contract is that every view it hands out stays valid and byte-identical
// for the arena's whole lifetime, across any number of chunk growths and a
// move of the arena object. Run under the asan preset this doubles as the
// use-after-growth / out-of-bounds lifetime check for the interned-name
// storage.
#include "base/arena.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dnsboot::base {
namespace {

std::string pattern_string(std::size_t i, std::size_t len) {
  std::string out;
  out.reserve(len);
  for (std::size_t j = 0; j < len; ++j) {
    out.push_back(static_cast<char>('a' + (i * 7 + j * 13) % 26));
  }
  return out;
}

TEST(ArenaTest, ViewsStayStableAcrossGrowth) {
  // A tiny chunk size forces hundreds of growths; earlier views must not
  // move or change when later allocations open new chunks.
  Arena arena(64);
  std::vector<std::string> expected;
  std::vector<std::string_view> views;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    expected.push_back(pattern_string(i, i % 37));
    views.push_back(arena.copy(expected.back()));
    total += expected.back().size();
  }
  ASSERT_GT(arena.chunk_count(), 10u);
  EXPECT_EQ(arena.bytes_used(), total);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], expected[i]) << "allocation " << i;
  }
}

TEST(ArenaTest, OversizeAllocationGetsDedicatedChunk) {
  Arena arena(64);
  std::string_view small = arena.copy("before");
  std::size_t reserved_before = arena.bytes_reserved();
  std::string big = pattern_string(3, 1000);
  std::string_view view = arena.copy(big);
  // The oversize request gets a chunk of exactly its own size.
  EXPECT_EQ(arena.bytes_reserved(), reserved_before + big.size());
  EXPECT_EQ(view, big);
  // Both the earlier small view and later allocations survive it.
  std::string_view after = arena.copy("after");
  EXPECT_EQ(small, "before");
  EXPECT_EQ(after, "after");
}

TEST(ArenaTest, EmptyCopyIsValid) {
  Arena arena(64);
  std::string_view empty = arena.copy("");
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(arena.bytes_used(), 0u);
  char* p = arena.allocate(0);
  (void)p;  // may be null; must not crash or count bytes
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(ArenaTest, MoveKeepsViewsAlive) {
  Arena source(64);
  std::vector<std::string> expected;
  std::vector<std::string_view> views;
  for (std::size_t i = 0; i < 100; ++i) {
    expected.push_back(pattern_string(i, 1 + i % 19));
    views.push_back(source.copy(expected.back()));
  }
  Arena moved = std::move(source);
  // Storage ownership transferred wholesale: every view still reads the
  // bytes it was given, and the moved-to arena keeps allocating.
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], expected[i]);
  }
  std::string_view fresh = moved.copy("fresh");
  EXPECT_EQ(fresh, "fresh");
}

// Resident set size from /proc/self/statm (second field, in pages).
std::size_t resident_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int fields = std::fscanf(statm, "%lu %lu", &size_pages,
                                 &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0;
  return static_cast<std::size_t>(resident_pages) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(ArenaTest, FirstChunkIsOnePage) {
  // A large chunk size caps growth; it is not what the first name pays.
  Arena arena(256 * 1024);
  EXPECT_EQ(arena.copy("example"), "example");
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_LE(arena.bytes_reserved(), 4u * 1024);
}

TEST(ArenaTest, ReservationTracksUseAsChunksGrowPastTheCap) {
  // Name-sized allocations (1..200 bytes): the reservation doubles per chunk
  // up to the 16 KiB cap, then grows one cap at a time, and never runs
  // ahead of twice the bytes handed out by more than the first page.
  constexpr std::size_t kCap = 16 * 1024;
  Arena arena(kCap);
  std::size_t prev_reserved = 0;
  std::size_t state = 12345;
  while (arena.bytes_used() < 16 * kCap) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    const std::size_t n = 1 + (state >> 33) % 200;
    char* p = arena.allocate(n);
    std::memset(p, 0x5a, n);
    ASSERT_LE(arena.bytes_reserved(), 2 * arena.bytes_used() + 4 * 1024)
        << "after " << arena.bytes_used() << " bytes";
    ASSERT_LE(arena.bytes_reserved() - prev_reserved, kCap);
    prev_reserved = arena.bytes_reserved();
  }
  EXPECT_GT(arena.chunk_count(), 16u);
}

TEST(ArenaTest, ChunkSizeAtOrBelowOnePageKeepsFixedChunks) {
  // A 4 KiB arena (the monitor's history store) takes 4 KiB chunks only.
  Arena arena(4 * 1024);
  for (std::size_t i = 0; i < 2000; ++i) {
    arena.copy(pattern_string(i, 1 + i % 50));
  }
  EXPECT_GT(arena.chunk_count(), 10u);
  EXPECT_EQ(arena.bytes_reserved(), arena.chunk_count() * 4 * 1024);
}

TEST(ArenaTest, ChunksStayNonResidentUntilWritten) {
  // 64 MiB is above glibc's largest dynamic mmap threshold (32 MiB), so the
  // chunk always comes from fresh pages: only writes make them resident.
  constexpr std::size_t kBytes = 64 * 1024 * 1024;
  Arena arena;
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  char* p = arena.allocate(kBytes);
  const std::size_t allocated = resident_bytes();
  EXPECT_LT(allocated - std::min(allocated, before), kBytes / 4);
  // The same reading sees the pages once they are written.
  std::memset(p, 0x5a, kBytes);
  const std::size_t written = resident_bytes();
  EXPECT_GT(written - std::min(written, before), kBytes / 2);
}

TEST(ArenaTest, AccountingSumsAllocations) {
  Arena arena(128);
  std::size_t total = 0;
  for (std::size_t n : {1u, 7u, 127u, 128u, 129u, 0u, 64u}) {
    char* p = arena.allocate(n);
    if (n > 0) {
      ASSERT_NE(p, nullptr);
      // Touch every byte so asan checks the slice is really owned.
      for (std::size_t j = 0; j < n; ++j) p[j] = static_cast<char>(j);
    }
    total += n;
    EXPECT_EQ(arena.bytes_used(), total);
    EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  }
}

}  // namespace
}  // namespace dnsboot::base
