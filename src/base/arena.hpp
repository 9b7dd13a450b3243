// base::Arena — a chunked bump allocator for long-lived byte storage.
//
// The scan hot path interns millions of small immutable byte strings (name
// labels, canonical order keys). Individual heap allocations for those would
// dominate the allocator and fragment memory; an arena hands out slices of
// large chunks with one pointer bump and frees everything at once when the
// arena dies. Allocations are never freed individually — by design the
// arena's contents are immutable and live as long as the arena itself, so a
// std::string_view into an arena stays valid for the arena's lifetime.
//
// Chunks are left uninitialised and grow with the contents: the first is
// one 4 KiB page and each later one is as large as all chunks before it, up
// to the chunk size, so the reservation doubles per chunk and stays within
// about twice the bytes handed out. Pages no allocation has written yet are
// never made resident.
//
// Not thread-safe: callers that share an arena across threads guard it with
// their own mutex (the name pool shards do exactly this).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace dnsboot::base {

class Arena {
 public:
  // `chunk_bytes` caps the chunk size; allocations larger than a chunk get a
  // dedicated chunk of exactly their size.
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  // Bump-allocate `n` bytes (uninitialized). Returned storage is stable for
  // the arena's lifetime. n == 0 may return null (a valid empty view).
  char* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(cursor_end_ - cursor_)) grow(n);
    char* out = cursor_;
    cursor_ += n;
    bytes_used_ += n;
    return out;
  }

  // Copy `bytes` into the arena and return a view of the stable copy.
  std::string_view copy(std::string_view bytes) {
    char* dst = allocate(bytes.size());
    if (!bytes.empty()) std::memcpy(dst, bytes.data(), bytes.size());
    return std::string_view(dst, bytes.size());
  }

  // Total bytes handed out to callers.
  std::size_t bytes_used() const { return bytes_used_; }
  // Total bytes reserved from the system (>= bytes_used, includes chunk
  // tails not yet handed out).
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  static constexpr std::size_t kFirstChunkBytes = 4 * 1024;

  void grow(std::size_t n) {
    // The next chunk matches everything reserved so far, which doubles the
    // reservation, within [one page, chunk_bytes_]; a larger request gets a
    // chunk of exactly its size.
    const std::size_t step =
        std::clamp(bytes_reserved_, std::min(kFirstChunkBytes, chunk_bytes_),
                   chunk_bytes_);
    const std::size_t size = std::max(n, step);
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(size));
    cursor_ = chunks_.back().get();
    cursor_end_ = cursor_ + size;
    bytes_reserved_ += size;
  }

  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cursor_ = nullptr;
  char* cursor_end_ = nullptr;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace dnsboot::base
