#include "dns/name_pool.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "obs/metrics.hpp"

#include "base/strings.hpp"
#include "dns/name.hpp"

namespace dnsboot::dns {
namespace {

// Top bits: decorrelated from the low bits std::unordered_map consumes and
// from the low bits that index the per-thread table.
std::size_t shard_of(std::uint64_t hash) {
  return static_cast<std::size_t>(hash >> 58);
}

// Per-thread re-intern table: direct-mapped on the low bits of the
// spelling's hash_short, each slot the arena bytes and id of the last
// spelling this thread interned there. A hit is a length check and a
// memcmp against bytes that never move, with no lock and no std::hash; a
// collision just overwrites the slot. It maps spellings to ids and never
// orders or hashes by id, so it cannot leak id numbering into output.
struct RecentSpellings {
  static constexpr std::size_t kSlots = 4096;  // 64 KiB per thread
  struct Slot {
    const char* flat = nullptr;  // arena bytes of an interned spelling
    std::uint32_t id = 0;
    std::uint32_t size = 0;
  };
  std::array<Slot, kSlots> slots{};
};

// Allocated on a thread's first intern, so threads that never decode a name
// hold no table; freed when the thread exits.
RecentSpellings& recent_spellings() {
  thread_local const std::unique_ptr<RecentSpellings> recent =
      std::make_unique<RecentSpellings>();
  return *recent;
}

// Lowercase the label bytes of a flat spelling. Length prefixes are <= 63,
// below 'A', so folding the whole buffer bytewise is exact.
std::string fold_flat(std::string_view flat) {
  std::string out(flat);
  for (char& c : out) c = ascii_lower(c);
  return out;
}

}  // namespace

NamePool& NamePool::instance() {
  // Leaked by design (see header): entries and their ids stay valid until
  // process exit, and the pointer root keeps LeakSanitizer quiet.
  static NamePool* pool = new NamePool();
  return *pool;
}

NamePool::NamePool() {
  // Pre-intern the root name so a default Name (id 0) needs no pool trip to
  // exist and `rep(0)` is always valid.
  std::uint32_t root_id = intern_canonical(std::string_view(), 0);
  (void)root_id;
}

std::string NamePool::make_order_key(std::string_view flat) {
  // Collect label offsets, then emit labels rightmost first: 0x00 separator,
  // then case-folded label bytes with 0x00 -> 0x01 0x02, 0x01 -> 0x01 0x03.
  // The separator sorts below every escaped label byte (all >= 0x01), which
  // encodes RFC 4034's "absent labels sort first"; the escape preserves
  // byte order and prefix order within a label.
  std::uint8_t offsets[128];
  std::size_t n = 0;
  std::size_t pos = 0;
  while (pos < flat.size()) {
    offsets[n++] = static_cast<std::uint8_t>(pos);
    pos += 1 + static_cast<unsigned char>(flat[pos]);
  }
  std::string key;
  key.reserve(flat.size() + n);
  for (std::size_t i = n; i-- > 0;) {
    std::size_t at = offsets[i];
    auto len = static_cast<unsigned char>(flat[at]);
    key.push_back('\0');
    for (std::size_t j = 0; j < len; ++j) {
      char c = ascii_lower(flat[at + 1 + j]);
      if (c == '\0') {
        key.push_back('\x01');
        key.push_back('\x02');
      } else if (c == '\x01') {
        key.push_back('\x01');
        key.push_back('\x03');
      } else {
        key.push_back(c);
      }
    }
  }
  return key;
}

std::uint32_t NamePool::intern_flat(std::string_view flat,
                                    std::size_t label_count) {
  if (flat.empty()) return 0;  // the root, pre-interned as id 0
  const std::uint64_t hash = hash_short(flat);
  RecentSpellings::Slot& recent =
      recent_spellings().slots[hash & (RecentSpellings::kSlots - 1)];
  if (recent.flat != nullptr && recent.size == flat.size() &&
      std::memcmp(recent.flat, flat.data(), flat.size()) == 0) {
    return recent.id;
  }
  const std::uint32_t id = intern_flat_slow(flat, label_count, hash);
  recent = RecentSpellings::Slot{rep(id).flat.data(), id,
                                 static_cast<std::uint32_t>(flat.size())};
  return id;
}

std::uint32_t NamePool::intern_flat_slow(std::string_view flat,
                                         std::size_t label_count,
                                         std::uint64_t hash) {
  Shard& shard = shards_[shard_of(hash)];
  {
    base::MutexLock lock(shard.mutex);
    auto it = shard.map.find(flat);
    if (it != shard.map.end()) return it->second;
  }
  // First sight of this spelling: resolve its canonical sibling before
  // retaking the shard lock (the sibling may live in a different shard, and
  // shard mutexes are never nested — lockdep-clean by construction).
  std::string folded = fold_flat(flat);
  const Rep* canon_rep = nullptr;
  if (folded != flat) {
    canon_rep = &rep(intern_canonical(folded, label_count));
  }
  base::MutexLock lock(shard.mutex);
  return intern_locked(shard, flat, label_count, canon_rep);
}

std::uint32_t NamePool::intern_canonical(std::string_view folded,
                                         std::size_t label_count) {
  Shard& shard = shards_[shard_of(hash_short(folded))];
  base::MutexLock lock(shard.mutex);
  return intern_locked(shard, folded, label_count, nullptr);
}

std::uint32_t NamePool::intern_locked(Shard& shard, std::string_view flat,
                                      std::size_t label_count,
                                      const Rep* canon_rep) {
  auto it = shard.map.find(flat);
  if (it != shard.map.end()) return it->second;
  std::uint32_t id = 0;
  Rep* r = new_rep(&id);
  r->flat = shard.arena.copy(flat);
  r->id = id;
  r->label_count = static_cast<std::uint8_t>(label_count);
  if (canon_rep == nullptr) {
    r->canon = r;
    if (flat.empty()) {
      // assign via push_back: gcc-12 -Werror=restrict misfires on literal
      // assignment here once the sanitizer presets turn up inlining.
      r->canon_text.push_back('.');
    } else {
      r->canon_text.reserve(flat.size() + 1);
      std::size_t pos = 0;
      while (pos < flat.size()) {
        auto len = static_cast<unsigned char>(flat[pos]);
        append_canonical_label(r->canon_text, flat.substr(pos + 1, len));
        pos += 1 + len;
      }
    }
    r->order_key = shard.arena.copy(make_order_key(r->flat));
  } else {
    r->canon = canon_rep;
  }
  shard.map.emplace(r->flat, id);
  return id;
}

NamePool::Rep* NamePool::new_rep(std::uint32_t* id_out) {
  // audit-allow: A004 monotone id ticket; entry contents publish via the shard mutex every intern path holds
  std::uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t block_i = id >> kBlockShift;
  if (block_i >= kMaxBlocks) {
    std::fprintf(stderr,
                 "dnsboot: NamePool capacity exhausted (%u spellings)\n", id);
    std::abort();
  }
  const std::uint32_t chunk_i = (id >> kChunkBits) & kBlockMask;
  ChunkBlock* block = blocks_[block_i].load(std::memory_order_acquire);
  Rep* chunk = block != nullptr
                   ? block->chunks[chunk_i].load(std::memory_order_acquire)
                   : nullptr;
  if (chunk == nullptr) {
    base::MutexLock lock(grow_mutex_);
    block = blocks_[block_i].load(std::memory_order_acquire);
    if (block == nullptr) {
      block = new ChunkBlock();
      blocks_[block_i].store(block, std::memory_order_release);
    }
    chunk = block->chunks[chunk_i].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      chunk = new Rep[std::size_t{1} << kChunkBits]();
      block->chunks[chunk_i].store(chunk, std::memory_order_release);
    }
  }
  *id_out = id;
  return chunk + (id & kChunkMask);
}

void NamePool::export_gauges(obs::MetricsRegistry& registry) {
  const Stats s = stats();
  registry.set_help("dnsboot_namepool_names",
                    "distinct interned name spellings (process-global)");
  registry.set_help("dnsboot_namepool_bytes",
                    "arena bytes reserved for labels and order keys");
  registry.set_help("dnsboot_namepool_live_bytes",
                    "arena bytes holding labels and order keys");
  registry.gauge("dnsboot_namepool_names").set(static_cast<double>(s.entries));
  registry.gauge("dnsboot_namepool_bytes")
      .set(static_cast<double>(s.arena_bytes));
  registry.gauge("dnsboot_namepool_live_bytes")
      .set(static_cast<double>(s.live_bytes));
}

NamePool::Stats NamePool::stats() {
  Stats out;
  // audit-allow: A004 monitoring read; exactness is not required.
  out.entries = next_id_.load(std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    base::MutexLock lock(shard.mutex);
    out.arena_bytes += shard.arena.bytes_reserved();
    out.live_bytes += shard.arena.bytes_used();
  }
  return out;
}

}  // namespace dnsboot::dns
