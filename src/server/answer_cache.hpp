// AnswerCache — an exact, bounded cache of one server's encoded answers
// (DESIGN.md §10.6).
//
// Scanners ask every nameserver the same apex and signaling questions, and a
// monitor asks them again on every probe, so most of an authoritative
// server's answers repeat an earlier one byte for byte. The cache is keyed
// on the transport (UDP or TCP) plus the query's bytes after its 2-byte ID;
// a hit rebuilds the final reply bytes with the new query's ID. Each entry
// remembers the zone it was built from, that zone's version and the
// server's zone-set generation, and is used only while both still match —
// so a hit is exactly the answer the full path would produce.
//
// Memory is bounded by kMaxBytes per cache: bytes() counts every stored
// entry block plus the index, and never exceeds the bound. When an insert
// would cross it, entries gone stale are dropped first, and if that is not
// enough the cache is emptied, so hostile traffic costs at most the bound
// and then the uncached path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "base/bytes.hpp"
#include "dns/rr.hpp"
#include "dns/zone.hpp"

namespace dnsboot::server {

class AnswerCache {
 public:
  // The per-server bound on cached bytes. The largest working set in the
  // perfbench worlds, 274 KB, fits with room for stale entries between
  // sweeps (DESIGN.md §10.6).
  static constexpr std::size_t kMaxBytes = 512 * 1024;

  // What a cached reply was built from. `zone` is null when no zone data
  // went into it (REFUSED, FORMERR, parking answers).
  struct Source {
    const dns::Zone* zone = nullptr;
    std::uint64_t zone_version = 0;
    std::uint64_t generation = 0;
  };

  struct Answer {
    Bytes reply;  // ready to send: the query's ID is patched in
    dns::Rcode rcode = dns::Rcode::kNoError;
  };

  // The cached answer to `query` over the given transport, if a valid one
  // is stored. `generation` is the server's current zone-set generation; an
  // entry from another generation is never valid, and its zone is not
  // touched.
  std::optional<Answer> find(BytesView query, bool tcp,
                             std::uint64_t generation) const;

  // Store `reply`, built from `source`, as the answer to `query`, replacing
  // any entry with the same key. Only queries with one question, written
  // out without compression and echoed verbatim by the reply, are stored.
  void insert(BytesView query, bool tcp, BytesView reply,
              const Source& source);

  std::size_t bytes() const {
    return block_bytes_ + index_.size() * sizeof(Block);
  }
  std::size_t size() const { return entries_; }

 private:
  // An entry is one block: this header, then the key, the reply's header
  // after its ID, and the reply after its question section. The question is
  // the key's own bytes (a reply echoes it), so it is stored once. The
  // rcode is read back from the stored reply header.
  struct Header {
    Source source;
    std::uint32_t hash = 0;  // top bit: the transport is TCP
    std::uint16_t key_size = 0;
    std::uint16_t tail_size = 0;
  };
  using Block = std::unique_ptr<std::uint8_t[]>;

  static const Header& header_of(const Block& block);
  static std::size_t block_size(const Header& header);
  static bool valid(const Header& header, std::uint64_t generation);
  // Index slots for `entries` entries: a power of two, at most half full.
  static std::size_t slots_for(std::size_t entries);

  // Index position of the entry with this key, or of the empty slot where
  // it would go.
  std::size_t probe(BytesView key, std::uint32_t hash) const;
  // Drop entries that are no longer valid and size the index for one more.
  // Runs when the index is full and after every few inserts, so entries of
  // changed zones do not sit in memory waiting to be asked again.
  void rebuild(std::uint64_t generation);
  void clear();

  // Open addressing with linear probing; null slots are empty.
  std::vector<Block> index_;
  std::size_t entries_ = 0;
  std::size_t block_bytes_ = 0;
  std::size_t inserts_since_rebuild_ = 0;
};

}  // namespace dnsboot::server
