// Crash-safe persistence for the longitudinal monitor: an append-only
// transition journal plus compacted snapshots (DESIGN.md §15).
//
// Journal format (text, one record per line, tab-separated):
//
//   dnsboot-journal v2\t<world_tag>
//   T\t<seq>\t<at>\t<zone>\t<from>\t<to>\t<cds>\t<ds>\t<op>\t<crc>
//
// <world_tag> fingerprints the world the journal belongs to (seed, scale,
// chaos...) so a restart with different flags is refused instead of silently
// mixing histories. Digest fields are delta-compressed: "=" means unchanged
// since the zone's previous record, "-" means the RRset is absent, anything
// else is the new digest. <crc> is FNV-1a over the line's preceding bytes.
//
// Durability contract: append() writes the full line and flushes it to the
// kernel before returning — a record is "acknowledged" exactly when append()
// returns, and a SIGKILL at any instant leaves the file as a valid prefix of
// records plus at most one torn tail line. recover() validates record by
// record and truncates the torn tail in place.
//
// Snapshots are the compact alternative to replaying a long journal: a
// versioned header carrying the journal high-water sequence, the serialized
// HistoryStore (hex-float EWMA state, bit-exact round-trip), and a trailing
// checksum line. Snapshot writes go through a temp file + rename so a crash
// never leaves a half-written snapshot under the live name.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "longitudinal/history.hpp"

namespace dnsboot::longitudinal {

class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Open `path` for appending, writing the header if the file is new or
  // empty. An existing journal must carry the same world_tag.
  static Result<Journal> open(const std::string& path,
                              const std::string& world_tag);

  // Encode, append, flush. When this returns OK the record is acknowledged:
  // it survives SIGKILL of this process.
  Status append(const Transition& transition);

  std::uint64_t appended() const { return appended_; }
  const std::string& path() const { return path_; }
  bool is_open() const { return file_ != nullptr; }
  void close();

  struct Recovered {
    bool existed = false;
    std::string world_tag;
    // Verbatim record lines (no trailing newline) in append order — the
    // replay-dedup comparison key — plus their decoded form.
    std::vector<std::string> lines;
    std::vector<Transition> transitions;
    std::uint64_t truncated_bytes = 0;  // torn tail dropped, 0 if clean
  };

  // Validate an existing journal and truncate any torn tail in place.
  // A missing file is not an error (existed == false).
  static Result<Recovered> recover(const std::string& path);

  // Record codec, exposed for tests and the replay-dedup path. decode()
  // leaves a delta-compressed ("=") digest empty with the matching
  // *_changed flag false, and accepts only lines encode() reproduces byte
  // for byte.
  static std::string encode(const Transition& transition);
  static Result<Transition> decode(std::string_view line);

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t appended_ = 0;
};

// ---- Snapshots -----------------------------------------------------------

struct SnapshotMeta {
  std::string world_tag;
  std::uint64_t seq = 0;  // journal records with seq <= this are folded in
  net::SimTime at = 0;    // simulated time of the snapshot
};

// In-memory codec (byte-identical round-trip; the compaction test asserts
// encode(decode(encode(x))) == encode(x)).
std::string encode_snapshot(const SnapshotMeta& meta,
                            const HistoryStore& store);
Result<SnapshotMeta> decode_snapshot(const std::string& text,
                                     HistoryStore* store);

// Atomic file forms: write to `<path>.tmp`, flush, rename over `path`.
Status write_snapshot_file(const std::string& path, const SnapshotMeta& meta,
                           const HistoryStore& store);
Result<SnapshotMeta> read_snapshot_file(const std::string& path,
                                        HistoryStore* store);

}  // namespace dnsboot::longitudinal
