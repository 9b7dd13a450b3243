#include "longitudinal/journal.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstring>

#include "base/rng.hpp"
#include "longitudinal/fields.hpp"

namespace dnsboot::longitudinal {

namespace {

// v2: transition records carry dnskey digest + key_state (12 fields), and
// snapshot history lines grew the matching columns. v1 files fail the header
// check instead of being silently mis-decoded as torn tails.
constexpr std::string_view kJournalMagic = "dnsboot-journal v2";
constexpr std::string_view kSnapshotMagic = "dnsboot-snapshot v2";

std::string crc_of(std::string_view data) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(std::string(data))));
  return std::string(buf, 16);
}

// Digest field encoding: "=" unchanged, "-" absent, else the digest.
void encode_digest(std::string* out, bool changed, const std::string& digest) {
  if (!changed) {
    *out += '=';
  } else if (digest.empty()) {
    *out += '-';
  } else {
    *out += digest;
  }
}

bool decode_digest(std::string_view field, bool* changed,
                   std::string* digest) {
  if (field.empty()) return false;
  if (field == "=") {
    *changed = false;
    digest->clear();
  } else if (field == "-") {
    *changed = true;
    digest->clear();
  } else {
    *changed = true;
    *digest = std::string(field);
  }
  return true;
}

Result<std::string> read_whole_file(const std::string& path, bool* existed) {
  *existed = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::string();
  *existed = true;
  std::string text;
  char buf[64 * 1024];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Error{"journal.read", path};
  return text;
}

}  // namespace

Journal::~Journal() { close(); }

Journal::Journal(Journal&& other) noexcept
    : file_(other.file_),
      path_(std::move(other.path_)),
      appended_(other.appended_) {
  other.file_ = nullptr;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    file_ = other.file_;
    path_ = std::move(other.path_);
    appended_ = other.appended_;
    other.file_ = nullptr;
  }
  return *this;
}

void Journal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<Journal> Journal::open(const std::string& path,
                              const std::string& world_tag) {
  if (world_tag.find('\t') != std::string::npos ||
      world_tag.find('\n') != std::string::npos) {
    return Error{"journal.world_tag", "tag must not contain tab/newline"};
  }
  bool existed = false;
  DNSBOOT_TRY(text, read_whole_file(path, &existed));
  const bool empty = text.empty();
  if (!empty) {
    std::size_t eol = text.find('\n');
    std::string header = text.substr(0, eol == std::string::npos ? 0 : eol);
    std::string expected = std::string(kJournalMagic) + "\t" + world_tag;
    if (header != expected) {
      return Error{"journal.header",
                   "existing journal belongs to a different world: " + header};
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Error{"journal.open", path + ": " + std::strerror(errno)};
  }
  Journal journal;
  journal.file_ = f;
  journal.path_ = path;
  if (empty) {
    std::string header = std::string(kJournalMagic) + "\t" + world_tag + "\n";
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
        std::fflush(f) != 0) {
      return Error{"journal.write", path + ": " + std::strerror(errno)};
    }
  }
  return journal;
}

std::string Journal::encode(const Transition& t) {
  std::string line = "T\t";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%" PRIu64 "\t%" PRIu64 "\t", t.seq, t.at);
  line += buf;
  line += t.zone.to_text();
  line += '\t';
  line += to_string(t.from);
  line += '\t';
  line += to_string(t.to);
  line += '\t';
  encode_digest(&line, t.cds_changed, t.cds_digest);
  line += '\t';
  encode_digest(&line, t.ds_changed, t.ds_digest);
  line += '\t';
  encode_digest(&line, t.dnskey_changed, t.dnskey_digest);
  line += '\t';
  line += analysis::to_string(t.key_state);
  line += '\t';
  line += t.operator_name.empty() ? "-" : t.operator_name;
  line += '\t';
  line += crc_of(line);
  return line;
}

Result<Transition> Journal::decode(std::string_view line) {
  std::vector<std::string_view> f = split_tabs(line);
  if (f.size() != 12 || f[0] != "T") {
    return Error{"journal.record", "malformed record"};
  }
  // The crc covers everything up to and including the tab before it.
  std::size_t payload = line.size() - f[11].size();
  if (crc_of(line.substr(0, payload)) != f[11]) {
    return Error{"journal.crc", "checksum mismatch"};
  }
  Transition t;
  if (!parse_u64(f[1], &t.seq) || !parse_u64(f[2], &t.at)) {
    return Error{"journal.record", "bad seq/time"};
  }
  auto zone = dns::Name::from_text(std::string(f[3]));
  if (!zone.ok()) return Error{"journal.record", "bad zone name"};
  t.zone = std::move(zone).take();
  std::optional<ZonePhase> from = phase_from_string(std::string(f[4]));
  std::optional<ZonePhase> to = phase_from_string(std::string(f[5]));
  if (!from.has_value() || !to.has_value()) {
    return Error{"journal.record", "bad phase"};
  }
  t.from = *from;
  t.to = *to;
  if (!decode_digest(f[6], &t.cds_changed, &t.cds_digest) ||
      !decode_digest(f[7], &t.ds_changed, &t.ds_digest) ||
      !decode_digest(f[8], &t.dnskey_changed, &t.dnskey_digest)) {
    return Error{"journal.record", "bad digest field"};
  }
  std::optional<analysis::KeyLifecycleState> key_state =
      key_state_from_string(std::string(f[9]));
  if (!key_state.has_value()) {
    return Error{"journal.record", "bad key_state"};
  }
  t.key_state = *key_state;
  t.operator_name = f[10] == "-" ? std::string() : std::string(f[10]);
  return t;
}

Status Journal::append(const Transition& transition) {
  if (file_ == nullptr) return Error{"journal.closed", path_};
  std::string line = encode(transition);
  line += '\n';
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return Error{"journal.write", path_ + ": " + std::strerror(errno)};
  }
  ++appended_;
  return Status::ok_status();
}

Result<Journal::Recovered> Journal::recover(const std::string& path) {
  Recovered out;
  DNSBOOT_TRY(text, read_whole_file(path, &out.existed));
  if (!out.existed || text.empty()) return out;

  std::size_t header_end = text.find('\n');
  if (header_end == std::string::npos) {
    // Torn header: the process died inside the very first write. Treat the
    // whole file as tail.
    out.truncated_bytes = text.size();
    if (truncate(path.c_str(), 0) != 0) {
      return Error{"journal.truncate", path + ": " + std::strerror(errno)};
    }
    out.existed = false;
    return out;
  }
  std::string_view header(text.data(), header_end);
  std::vector<std::string_view> hf = split_tabs(header);
  if (hf.size() != 2 || hf[0] != kJournalMagic) {
    return Error{"journal.header", "unrecognized journal header"};
  }
  out.world_tag = std::string(hf[1]);

  std::size_t pos = header_end + 1;
  std::size_t valid_end = pos;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;  // torn tail: no newline
    std::string_view line(text.data() + pos, eol - pos);
    Result<Transition> decoded = decode(line);
    if (!decoded.ok()) break;  // torn or corrupt tail line
    out.lines.emplace_back(line);
    out.transitions.push_back(std::move(decoded).take());
    pos = eol + 1;
    valid_end = pos;
  }
  if (valid_end < text.size()) {
    out.truncated_bytes = text.size() - valid_end;
    if (truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
      return Error{"journal.truncate", path + ": " + std::strerror(errno)};
    }
  }
  return out;
}

// ---- Snapshots -----------------------------------------------------------

std::string encode_snapshot(const SnapshotMeta& meta,
                            const HistoryStore& store) {
  std::string out(kSnapshotMagic);
  char buf[64];
  out += '\t';
  out += meta.world_tag;
  std::snprintf(buf, sizeof buf, "\t%" PRIu64 "\t%" PRIu64 "\n", meta.seq,
                meta.at);
  out += buf;
  out += store.serialize();
  out += "end\t";
  out += crc_of(out);
  out += '\n';
  return out;
}

Result<SnapshotMeta> decode_snapshot(const std::string& text,
                                     HistoryStore* store) {
  std::size_t header_end = text.find('\n');
  if (header_end == std::string::npos) {
    return Error{"snapshot.header", "missing header line"};
  }
  std::vector<std::string_view> hf =
      split_tabs(std::string_view(text.data(), header_end));
  if (hf.size() != 4 || hf[0] != kSnapshotMagic) {
    return Error{"snapshot.header", "unrecognized snapshot header"};
  }
  SnapshotMeta meta;
  meta.world_tag = std::string(hf[1]);
  if (!parse_u64(hf[2], &meta.seq) || !parse_u64(hf[3], &meta.at)) {
    return Error{"snapshot.header", "bad seq/time"};
  }
  // The last line is "end\t<crc>\n" over every preceding byte.
  if (text.size() < 2 || text.back() != '\n') {
    return Error{"snapshot.truncated", "missing end line"};
  }
  std::size_t end_line = text.rfind('\n', text.size() - 2);
  end_line = end_line == std::string::npos ? 0 : end_line + 1;
  std::string_view tail(text.data() + end_line,
                        text.size() - end_line - 1);
  std::vector<std::string_view> tf = split_tabs(tail);
  if (tf.size() != 2 || tf[0] != "end") {
    return Error{"snapshot.truncated", "missing end line"};
  }
  if (crc_of(std::string_view(text.data(), end_line + 4)) != tf[1]) {
    return Error{"snapshot.crc", "checksum mismatch"};
  }
  std::string body =
      text.substr(header_end + 1, end_line - header_end - 1);
  if (store != nullptr) {
    DNSBOOT_CHECK(store->restore(body));
    store->set_next_seq(meta.seq + 1);
  }
  return meta;
}

Status write_snapshot_file(const std::string& path, const SnapshotMeta& meta,
                           const HistoryStore& store) {
  std::string text = encode_snapshot(meta, store);
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Error{"snapshot.open", tmp + ": " + std::strerror(errno)};
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) return Error{"snapshot.write", tmp + ": " + std::strerror(errno)};
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Error{"snapshot.rename", path + ": " + std::strerror(errno)};
  }
  return Status::ok_status();
}

Result<SnapshotMeta> read_snapshot_file(const std::string& path,
                                        HistoryStore* store) {
  bool existed = false;
  DNSBOOT_TRY(text, read_whole_file(path, &existed));
  if (!existed) return Error{"snapshot.missing", path};
  return decode_snapshot(text, store);
}

}  // namespace dnsboot::longitudinal
