// libFuzzer entry point for the monitor journal's crash recovery
// (Journal::recover, src/longitudinal/journal.hpp), which reads whatever a
// crash left on disk on every monitor restart. Each input becomes a journal
// file: a valid header, then records Journal::encode()d from transitions the
// input derives (zone names, operators and digests drawn from an alphabet
// that includes escapes, tabs and newlines), some with one field replaced
// and the checksum recomputed (so spellings like "007" or a zone without
// its trailing dot reach the decoder past the checksum), then the rest of
// the input spliced in as a tail: torn lines, garbage, stray newlines.
// recover() must:
//
//  1. succeed and leave the file as exactly the header plus the kept lines;
//  2. on a second call, keep the same lines and truncate nothing;
//  3. keep only canonical lines: every kept line re-encodes from its
//     decoded transition to the same bytes.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "dns/name.hpp"
#include "longitudinal/journal.hpp"

namespace {

using dnsboot::longitudinal::Journal;
using dnsboot::longitudinal::Transition;

void require(bool ok) {
  if (!ok) std::abort();  // a crash for libFuzzer and the standalone sweep
}

constexpr const char kHeader[] = "dnsboot-journal v2\tseed=1 scale=1/fuzz\n";

// Reads the input front to back; past the end every read is 0.
struct InputCursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t offset = 0;

  std::uint8_t byte() { return offset < size ? data[offset++] : 0; }
  std::string text(const char* alphabet, std::size_t alphabet_size,
                   std::size_t max_length) {
    std::string out(byte() % (max_length + 1), ' ');
    for (char& c : out) c = alphabet[byte() % alphabet_size];
    return out;
  }
};

Transition derive_transition(InputCursor& in, std::uint64_t seq) {
  static const char kLabel[] = "ab-_\\.*@ 09\t";
  static const char kField[] = "0123456789abcdef=-x \t\n";
  Transition t;
  t.seq = seq;
  for (int i = 0; i < 3; ++i) t.at = t.at << 8 | in.byte();
  auto zone = dnsboot::dns::Name::from_text(
      in.text(kLabel, sizeof kLabel - 1, 12) + ".example.");
  if (zone.ok()) t.zone = std::move(zone).take();
  t.from = static_cast<dnsboot::longitudinal::ZonePhase>(
      in.byte() % dnsboot::longitudinal::kZonePhaseCount);
  t.to = static_cast<dnsboot::longitudinal::ZonePhase>(
      in.byte() % dnsboot::longitudinal::kZonePhaseCount);
  const std::uint8_t flags = in.byte();
  t.cds_changed = (flags & 1) != 0;
  t.ds_changed = (flags & 2) != 0;
  t.dnskey_changed = (flags & 4) != 0;
  // Journals only ever carry a digest for a changed RRset.
  if (t.cds_changed) t.cds_digest = in.text(kField, sizeof kField - 1, 16);
  if (t.ds_changed) t.ds_digest = in.text(kField, sizeof kField - 1, 16);
  if (t.dnskey_changed) {
    t.dnskey_digest = in.text(kField, sizeof kField - 1, 16);
  }
  t.key_state = static_cast<dnsboot::analysis::KeyLifecycleState>(
      in.byte() % 3);
  t.operator_name = in.text(kField, sizeof kField - 1, 8);
  return t;
}

// Replace one field of an encoded record (never the "T" tag or the
// checksum) with input-derived text, then recompute the checksum: FNV-1a
// over everything before it, as 16 hex digits.
std::string reseal_mutated(InputCursor& in, const std::string& line) {
  static const char kMutation[] = "0123456789.\\z-=";
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t tab = line.find('\t'); tab != std::string::npos;
       tab = line.find('\t', start)) {
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  fields[1 + in.byte() % (fields.size() - 1)] =
      in.text(kMutation, sizeof kMutation - 1, 6);
  std::string payload;
  for (const std::string& field : fields) {
    payload += field;
    payload += '\t';
  }
  char crc[17];
  std::snprintf(crc, sizeof crc, "%016llx",
                static_cast<unsigned long long>(dnsboot::fnv1a(payload)));
  return payload + crc;
}

std::string read_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  require(f != nullptr);
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  require(f != nullptr);
  require(std::fwrite(text.data(), 1, text.size(), f) == text.size());
  require(std::fclose(f) == 0);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fuzz_journal." + std::to_string(getpid())))
          .string();

  InputCursor in{data, size};
  std::string text = kHeader;
  const int records = in.byte() % 6;
  for (int i = 0; i < records; ++i) {
    std::string line = Journal::encode(derive_transition(in, i + 1));
    if ((in.byte() & 3) == 0) line = reseal_mutated(in, line);
    text += line;
    text += '\n';
  }
  if (in.offset < size) {
    text.append(reinterpret_cast<const char*>(data + in.offset),
                size - in.offset);
  }
  write_file(path, text);

  auto first = Journal::recover(path);
  require(first.ok());
  require(first->existed);
  require(first->lines.size() == first->transitions.size());
  std::string kept = kHeader;
  for (const std::string& line : first->lines) {
    kept += line;
    kept += '\n';
  }
  require(read_file(path) == kept);
  require(first->truncated_bytes == text.size() - kept.size());

  auto second = Journal::recover(path);
  require(second.ok());
  require(second->lines == first->lines);
  require(second->truncated_bytes == 0);

  for (std::size_t i = 0; i < first->lines.size(); ++i) {
    require(Journal::encode(first->transitions[i]) == first->lines[i]);
  }
  std::remove(path.c_str());
  return 0;
}
