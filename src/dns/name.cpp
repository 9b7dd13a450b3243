#include "dns/name.hpp"

#include <algorithm>
#include <cstring>

#include "base/strings.hpp"

namespace dnsboot::dns {
namespace {

// Validate a single raw label (post-escape-processing).
Status check_label(std::string_view label) {
  if (label.empty()) return Error{"name.empty_label", "empty interior label"};
  if (label.size() > kMaxLabelLength) {
    return Error{"name.label_too_long",
                 "label of " + std::to_string(label.size()) + " octets"};
  }
  return Status::ok_status();
}

Status check_total_length(const std::vector<std::string>& labels) {
  std::size_t total = 1;  // root byte
  for (const auto& l : labels) total += l.size() + 1;
  if (total > kMaxNameWireLength) {
    return Error{"name.too_long",
                 "wire length " + std::to_string(total) + " exceeds 255"};
  }
  return Status::ok_status();
}

// Escape one presentation-form character into `out`, lowercasing when
// `lower` (the canonical form is the lower-cased escaped spelling).
void append_escaped(std::string& out, char c, bool lower) {
  if (c == '.' || c == '\\') {
    out.push_back('\\');
    out.push_back(c);
  } else if (static_cast<unsigned char>(c) < 0x21 ||
             static_cast<unsigned char>(c) > 0x7e) {
    unsigned v = static_cast<unsigned char>(c);
    out.push_back('\\');
    out.push_back(static_cast<char>('0' + v / 100));
    out.push_back(static_cast<char>('0' + (v / 10) % 10));
    out.push_back(static_cast<char>('0' + v % 10));
  } else {
    out.push_back(lower ? ascii_lower(c) : c);
  }
}

}  // namespace

std::size_t canonical_label_width(std::string_view label) {
  std::size_t width = 0;
  for (char c : label) {
    if (c == '.' || c == '\\') {
      width += 2;
    } else if (static_cast<unsigned char>(c) < 0x21 ||
               static_cast<unsigned char>(c) > 0x7e) {
      width += 4;
    } else {
      width += 1;
    }
  }
  return width;
}

void append_canonical_label(std::string& out, std::string_view label) {
  // Fast path: labels are overwhelmingly plain lowercase LDH strings, which
  // canonicalize to themselves — one bulk append instead of per-char escaping.
  bool plain = true;
  for (char c : label) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x21 || u > 0x7e || c == '.' || c == '\\' ||
        (c >= 'A' && c <= 'Z')) {
      plain = false;
      break;
    }
  }
  if (plain) {
    out.append(label);
  } else {
    for (char c : label) append_escaped(out, c, /*lower=*/true);
  }
  out.push_back('.');
}

Name Name::intern(std::string_view flat, std::size_t label_count) {
  return Name(NamePool::instance().intern_flat(flat, label_count));
}

Name Name::build(const std::vector<std::string>& labels) {
  if (labels.empty()) return Name();
  std::string flat;
  std::size_t flat_size = 0;
  for (const auto& l : labels) flat_size += 1 + l.size();
  flat.reserve(flat_size);
  for (const auto& l : labels) {
    flat.push_back(static_cast<char>(l.size()));
    flat.append(l);
  }
  return intern(flat, labels.size());
}

std::size_t Name::flat_offset_of(std::size_t index) const {
  std::string_view flat = rep_().flat;
  std::size_t flat_pos = 0;
  for (std::size_t i = 0; i < index; ++i) {
    flat_pos += 1 + static_cast<unsigned char>(flat[flat_pos]);
  }
  return flat_pos;
}

Result<Name> Name::from_text(std::string_view text) {
  if (text.empty()) return Error{"name.empty", "empty name"};
  if (text == ".") return Name::root();

  std::vector<std::string> labels;
  std::string current;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\\') {
      if (i + 1 >= text.size()) {
        return Error{"name.bad_escape", "trailing backslash"};
      }
      char next = text[i + 1];
      if (next >= '0' && next <= '9') {
        if (i + 3 >= text.size() || text[i + 2] < '0' || text[i + 2] > '9' ||
            text[i + 3] < '0' || text[i + 3] > '9') {
          return Error{"name.bad_escape", "incomplete \\DDD escape"};
        }
        int value = (next - '0') * 100 + (text[i + 2] - '0') * 10 +
                    (text[i + 3] - '0');
        if (value > 255) return Error{"name.bad_escape", "\\DDD out of range"};
        current.push_back(static_cast<char>(value));
        i += 3;
      } else {
        current.push_back(next);
        ++i;
      }
    } else if (c == '.') {
      if (current.empty()) {
        return Error{"name.empty_label", "empty label in " + std::string(text)};
      }
      DNSBOOT_CHECK(check_label(current));
      labels.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    DNSBOOT_CHECK(check_label(current));
    labels.push_back(std::move(current));
  }
  DNSBOOT_CHECK(check_total_length(labels));
  return build(labels);
}

Result<Name> Name::from_labels(std::vector<std::string> labels) {
  for (const auto& l : labels) DNSBOOT_CHECK(check_label(l));
  DNSBOOT_CHECK(check_total_length(labels));
  return build(labels);
}

Result<Name> Name::decode(ByteReader& reader) {
  // Small stack buffer: every name fits 255 octets by definition, so the
  // flat spelling is assembled from labels borrowed straight out of the
  // message, with no heap allocation, then interned (a table hit for any
  // name seen before).
  char flat_buf[kMaxNameWireLength];
  std::size_t flat_len = 0;
  std::size_t count = 0;
  std::size_t wire_len = 1;
  // Position to restore after the first compression pointer.
  bool jumped = false;
  std::size_t resume_at = 0;
  int hops = 0;

  while (true) {
    DNSBOOT_TRY(len, reader.u8());
    if ((len & 0xc0) == 0xc0) {
      // Compression pointer (RFC 1035 §4.1.4): it names a prior occurrence,
      // so its target must lie before the pointer itself. Every hop then
      // moves backwards and no chain of pointers can loop; the hop cap
      // still bounds long backward chains.
      DNSBOOT_TRY(low, reader.u8());
      std::size_t target = static_cast<std::size_t>(len & 0x3f) << 8 | low;
      if (target >= reader.offset() - 2) {
        return Error{"name.bad_pointer",
                     "compression pointer does not point backwards"};
      }
      if (!jumped) {
        resume_at = reader.offset();
        jumped = true;
      }
      if (++hops > 32) {
        return Error{"name.pointer_loop", "too many compression pointers"};
      }
      DNSBOOT_CHECK(reader.seek(target));
      continue;
    }
    if ((len & 0xc0) != 0) {
      return Error{"name.bad_label_type",
                   "reserved label type " + std::to_string(len >> 6)};
    }
    if (len == 0) break;  // root
    wire_len += len + 1;
    if (wire_len > kMaxNameWireLength) {
      return Error{"name.too_long", "decoded name exceeds 255 octets"};
    }
    DNSBOOT_TRY(label, reader.view(len));
    flat_buf[flat_len++] = static_cast<char>(len);
    std::memcpy(flat_buf + flat_len, label.data(), len);
    flat_len += len;
    ++count;
  }

  if (jumped) DNSBOOT_CHECK(reader.seek(resume_at));

  return intern(std::string_view(flat_buf, flat_len), count);
}

void Name::encode(ByteWriter& writer) const {
  writer.raw(rep_().flat);
  writer.u8(0);
}

void Name::encode_canonical(ByteWriter& writer) const {
  for (std::string_view label : labels()) {
    writer.u8(static_cast<std::uint8_t>(label.size()));
    for (char c : label) writer.u8(static_cast<std::uint8_t>(ascii_lower(c)));
  }
  writer.u8(0);
}

std::string Name::to_text() const {
  if (is_root()) return ".";
  std::string out;
  out.reserve(canonical_text().size());
  for (std::string_view label : labels()) {
    for (char c : label) append_escaped(out, c, /*lower=*/false);
    out.push_back('.');
  }
  return out;
}

Name Name::parent() const {
  const NamePool::Rep& r = rep_();
  if (r.label_count <= 1) return Name();
  std::size_t skip = 1 + static_cast<unsigned char>(r.flat[0]);
  return intern(r.flat.substr(skip), r.label_count - 1u);
}

Name Name::suffix(std::size_t n) const {
  const NamePool::Rep& r = rep_();
  if (n >= r.label_count) return *this;
  if (n == 0) return Name();
  std::size_t skip = flat_offset_of(r.label_count - n);
  return intern(r.flat.substr(skip), n);
}

Result<Name> Name::prepend(std::string_view label) const {
  DNSBOOT_CHECK(check_label(label));
  std::string_view flat = rep_().flat;
  std::size_t new_wire = flat.size() + 1 + label.size() + 1;
  if (new_wire > kMaxNameWireLength) {
    return Error{"name.too_long",
                 "wire length " + std::to_string(new_wire) + " exceeds 255"};
  }
  std::string out;
  out.reserve(1 + label.size() + flat.size());
  out.push_back(static_cast<char>(label.size()));
  out.append(label);
  out.append(flat);
  return intern(out, label_count() + 1);
}

Result<Name> Name::concat(const Name& suffix) const {
  std::string_view a = rep_().flat;
  std::string_view b = suffix.rep_().flat;
  std::size_t new_wire = a.size() + b.size() + 1;
  if (new_wire > kMaxNameWireLength) {
    return Error{"name.too_long",
                 "wire length " + std::to_string(new_wire) + " exceeds 255"};
  }
  std::size_t count = label_count() + suffix.label_count();
  if (count == 0) return Name();
  std::string flat;
  flat.reserve(a.size() + b.size());
  flat.append(a);
  flat.append(b);
  return intern(flat, count);
}

bool Name::is_under(const Name& ancestor) const {
  const NamePool::Rep& mine = rep_();
  const NamePool::Rep& anc_rep = ancestor.rep_();
  if (anc_rep.label_count > mine.label_count) return false;
  std::size_t pos = flat_offset_of(mine.label_count - anc_rep.label_count);
  std::string_view tail = mine.flat.substr(pos);
  std::string_view anc = anc_rep.flat;
  if (tail.size() != anc.size()) return false;
  // Compare label by label: length bytes must match exactly, label octets
  // case-insensitively.
  while (!tail.empty()) {
    auto len_a = static_cast<unsigned char>(tail[0]);
    auto len_b = static_cast<unsigned char>(anc[0]);
    if (len_a != len_b) return false;
    if (!ascii_iequals(tail.substr(1, len_a), anc.substr(1, len_b))) {
      return false;
    }
    tail.remove_prefix(1 + len_a);
    anc.remove_prefix(1 + len_b);
  }
  return true;
}

bool Name::is_strictly_under(const Name& ancestor) const {
  return label_count() > ancestor.label_count() && is_under(ancestor);
}

std::strong_ordering Name::operator<=>(const Name& other) const {
  const NamePool::Rep* a = rep_().canon;
  const NamePool::Rep* b = other.rep_().canon;
  if (a == b) return std::strong_ordering::equal;
  // RFC 4034 §6.1 order is plain byte order over the pooled order keys, and
  // the key encoding is injective, so distinct canonical entries never
  // compare equal here.
  int c = a->order_key.compare(b->order_key);
  return c < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
}

}  // namespace dnsboot::dns
