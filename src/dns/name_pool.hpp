// dns::NamePool — the process-global interned-name table (DESIGN.md §14).
//
// Every dns::Name is a 4-byte handle (an id) into this pool. Each distinct
// spelling of a name is interned exactly once; the pool stores its flat
// wire-form labels, a pointer to the canonical (case-folded) spelling's
// entry, and — on canonical entries — the cached presentation text and a
// canonical *order key* whose plain memcmp order equals RFC 4034 §6.1
// canonical name order. Equality is one pointer compare, ordering is one
// memcmp, and decode of an already-seen name is a per-thread table hit (a
// memcmp, no lock) or, past that table, a hash lookup under a shard lock —
// with no canonicalization work either way.
//
// Storage rules ("leak by design"): entries are append-only and live for the
// whole process. Label bytes and order keys go into per-shard arenas
// (base::Arena); entry structs live in chunks published through atomic
// pointers so readers never take a lock to dereference an id. The pool
// itself is reachable from a function-local static for the process lifetime,
// so LeakSanitizer sees everything as still-reachable.
//
// Determinism rule, load-bearing for the sharded survey executor: the
// *numeric* id assigned to a spelling depends on thread interleaving, so ids
// must never be ordered, hashed into output, or branched on by value — only
// identity (same id <=> same spelling) and the canon link are stable. All
// ordering goes through the order key; dnsboot-audit A002 bans leaking ids
// into reports the same way it bans pointer values.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/arena.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"

namespace dnsboot::obs {
class MetricsRegistry;
}  // namespace dnsboot::obs

namespace dnsboot::dns {

class NamePool {
 public:
  struct Rep {
    // Wire-form labels, length-prefixed, without the trailing root byte.
    // Arena-backed; stable for the process lifetime.
    std::string_view flat;
    // The canonical (case-folded) spelling's entry; self when this spelling
    // is already canonical. Name equality is `canon == other.canon`.
    const Rep* canon = nullptr;
    // Canonical presentation text with trailing dot ("." for root). Only
    // populated on canonical entries — go through `canon->canon_text`.
    std::string canon_text;
    // Reversed-label case-folded key; memcmp order == RFC 4034 §6.1 order.
    // Only populated on canonical entries.
    std::string_view order_key;
    std::uint32_t id = 0;
    std::uint8_t label_count = 0;
  };

  // The process-wide pool. First call constructs it (thread-safe); it is
  // never destroyed.
  static NamePool& instance();

  // Intern the flat wire-form spelling `flat` (validated by the caller:
  // label lengths, total length). Returns the id of its entry, creating it
  // and its canonical sibling on first sight. A spelling this thread
  // interned recently is answered from a small per-thread table (one
  // memcmp, no lock) before any shard is consulted.
  std::uint32_t intern_flat(std::string_view flat, std::size_t label_count);

  // Entry for `id`. O(1), lock-free, valid for any id previously returned by
  // intern_flat in any thread whose result reached this thread.
  const Rep& rep(std::uint32_t id) const {
    // Block 0 sits inside the pool: ids below 2^20 skip the top level and
    // reach their chunk with one dependent load, as a flat table would.
    const ChunkBlock* block =
        (id >> kBlockShift) == 0
            ? &first_block_
            : blocks_[id >> kBlockShift].load(std::memory_order_acquire);
    const Rep* chunk = block->chunks[(id >> kChunkBits) & kBlockMask].load(
        std::memory_order_acquire);
    return chunk[id & kChunkMask];
  }

  struct Stats {
    std::uint64_t entries = 0;        // interned spellings (incl. root)
    std::uint64_t arena_bytes = 0;    // label + order-key bytes reserved
    std::uint64_t live_bytes = 0;     // label + order-key bytes handed out
  };
  Stats stats();

  // Publish stats() as the dnsboot_namepool_names, dnsboot_namepool_bytes
  // (reserved) and dnsboot_namepool_live_bytes gauges. A long-running
  // monitor calls this after each batch: a flat curve over re-probes of a
  // fixed population is the interning working (the pool is append-only, so
  // growth == new spellings, never churn).
  void export_gauges(obs::MetricsRegistry& registry);

  // Build the canonical order key for a flat label sequence: labels in
  // reverse (rightmost first), case-folded, each preceded by 0x00, with
  // label bytes 0x00 -> 0x01 0x02 and 0x01 -> 0x01 0x03 so the separator
  // sorts below any label byte and byte order is preserved. Exposed for
  // tests; production callers read Rep::order_key.
  static std::string make_order_key(std::string_view flat);

 private:
  // 4096 entries per chunk, 256 chunks per block, 256 blocks: capacity
  // 2^28 interned spellings.
  static constexpr std::uint32_t kChunkBits = 12;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  static constexpr std::uint32_t kBlockBits = 8;
  static constexpr std::uint32_t kBlockMask = (1u << kBlockBits) - 1;
  static constexpr std::uint32_t kBlockShift = kChunkBits + kBlockBits;
  static constexpr std::uint32_t kMaxBlocks = 1u << 8;
  static constexpr std::uint32_t kShards = 64;

  // One second-level table of chunk pointers (2 KiB), allocated when its
  // first chunk is.
  struct ChunkBlock {
    std::atomic<Rep*> chunks[1u << kBlockBits] = {};
  };

  struct Shard {
    base::Mutex mutex{"NamePool::shard"};
    // Keys view arena-backed flat bytes of the entry they map to.
    std::unordered_map<std::string_view, std::uint32_t> map GUARDED_BY(mutex);
    base::Arena arena GUARDED_BY(mutex){256 * 1024};
  };

  NamePool();

  // Allocate the next id and return its (uninitialized) entry slot. The
  // caller fully populates the slot before publishing the id.
  Rep* new_rep(std::uint32_t* id_out);

  // intern_flat past the per-thread table: the shard's map, under its lock.
  // `hash` is the spelling's hash_short, which picks the shard.
  std::uint32_t intern_flat_slow(std::string_view flat, std::size_t label_count,
                                 std::uint64_t hash);

  // Intern the already-case-folded spelling (becomes its own canon).
  std::uint32_t intern_canonical(std::string_view folded,
                                 std::size_t label_count);

  // Intern under `shard`'s lock. `canon_rep` is the canonical sibling, or
  // null when `flat` is itself canonical (the entry becomes its own canon).
  std::uint32_t intern_locked(Shard& shard, std::string_view flat,
                              std::size_t label_count, const Rep* canon_rep)
      REQUIRES(shard.mutex);

  Shard shards_[kShards];
  // Two-level entry chunk table: id -> block -> chunk -> entry. Block and
  // chunk slots are null until a writer publishes them with a release store
  // under grow_mutex_; rep() acquire-loads both, so an id obtained through
  // any synchronizing channel dereferences safely without locks. Only the
  // 2 KiB top level and block 0 (blocks_[0] points at it) live in the pool
  // itself.
  ChunkBlock first_block_;
  std::atomic<ChunkBlock*> blocks_[kMaxBlocks] = {&first_block_};
  base::Mutex grow_mutex_{"NamePool::grow"};  // audit-allow: A003 serializes chunk allocation; blocks_ and chunk slots are lock-free acquire/release atomics, not GUARDED_BY-able
  std::atomic<std::uint32_t> next_id_{0};
};

}  // namespace dnsboot::dns
