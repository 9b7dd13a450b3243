// DNS domain names (RFC 1035 §3.1, RFC 4034 §6 canonical form).
//
// A Name is a sequence of labels, leftmost first; the root is the empty
// sequence. Names compare case-insensitively and preserve their original
// spelling. Wire-format decoding follows compression pointers with a hop
// limit so malicious messages cannot loop the parser.
//
// Storage is a 4-byte handle into the process-global interned-name table
// (dns::NamePool, DESIGN.md §14): each distinct spelling is stored once —
// flat length-prefixed labels, cached canonical presentation text, and a
// canonical order key whose memcmp order equals RFC 4034 §6.1 order. Copying
// a Name copies one uint32_t; equality is a pointer compare; ordering is a
// memcmp; canonical_text() returns a reference that stays valid for the
// whole process. Decoding a name this thread has seen before borrows its
// labels from the message and finds its id in a per-thread table with one
// byte compare: no allocation, no lock, no canonicalization work.
#pragma once

#include <compare>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "base/bytes.hpp"
#include "base/result.hpp"
#include "dns/name_pool.hpp"

namespace dnsboot::dns {

inline constexpr std::size_t kMaxLabelLength = 63;
// Maximum wire length of a name, including the root byte (RFC 1035 §3.1).
inline constexpr std::size_t kMaxNameWireLength = 255;

// Width of `label` in canonical presentation text, excluding the trailing
// dot ('.' and '\\' escape to two characters, non-printables to four).
std::size_t canonical_label_width(std::string_view label);

// Append `label`'s canonical (lower-cased, escaped) presentation form plus a
// trailing dot to `out`. Shared with the name pool's canonical-text builder.
void append_canonical_label(std::string& out, std::string_view label);

class Name {
 public:
  // Forward range over a name's labels as string_views into its pooled
  // wire-form storage. Views stay valid for the process lifetime.
  class LabelsView {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = std::string_view;
      using difference_type = std::ptrdiff_t;
      using pointer = const std::string_view*;
      using reference = std::string_view;

      iterator() = default;

      std::string_view operator*() const {
        auto len = static_cast<unsigned char>(data_[pos_]);
        return std::string_view(data_ + pos_ + 1, len);
      }
      iterator& operator++() {
        pos_ += 1 + static_cast<std::size_t>(
                        static_cast<unsigned char>(data_[pos_]));
        return *this;
      }
      iterator operator++(int) {
        iterator tmp = *this;
        ++*this;
        return tmp;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.pos_ == b.pos_;
      }

     private:
      friend class LabelsView;
      iterator(const char* data, std::size_t pos) : data_(data), pos_(pos) {}

      const char* data_ = nullptr;
      std::size_t pos_ = 0;
    };

    iterator begin() const { return iterator(data_.data(), 0); }
    iterator end() const { return iterator(data_.data(), data_.size()); }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    std::string_view front() const { return *begin(); }
    std::string_view back() const { return (*this)[count_ - 1]; }
    std::string_view operator[](std::size_t i) const {
      iterator it = begin();
      while (i-- > 0) ++it;
      return *it;
    }

   private:
    friend class Name;
    LabelsView(std::string_view data, std::size_t count)
        : data_(data), count_(count) {}

    std::string_view data_;
    std::size_t count_;
  };

  // The root name ".". Id 0 is the pool's pre-interned root entry.
  Name() = default;

  static Name root() { return Name(); }

  // Parse presentation form. Accepts absolute ("example.com.") and relative
  // ("example.com") spellings — both produce the same absolute name, as the
  // scanner only ever deals in fully-qualified names. Supports \. and \DDD
  // escapes. Rejects over-long labels/names and empty interior labels.
  static Result<Name> from_text(std::string_view text);

  // Build from raw labels (no escape processing).
  static Result<Name> from_labels(std::vector<std::string> labels);

  // Decode from wire format at the reader's cursor, following compression
  // pointers within reader.whole_buffer(). A pointer must point before
  // itself ("name.bad_pointer" otherwise). The cursor ends just past the
  // name's first pointer (or its root byte if uncompressed).
  static Result<Name> decode(ByteReader& reader);

  // Append uncompressed wire form.
  void encode(ByteWriter& writer) const;

  // Presentation form, always absolute with trailing dot; "." for root.
  std::string to_text() const;

  bool is_root() const { return id_ == 0; }
  std::size_t label_count() const { return rep_().label_count; }
  LabelsView labels() const {
    const NamePool::Rep& r = rep_();
    return LabelsView(r.flat, r.label_count);
  }
  // Wire-format length in bytes (sum of label lengths + length bytes + root).
  std::size_t wire_length() const { return rep_().flat.size() + 1; }

  // Immediate parent ("example.com." -> "com."). Parent of root is root.
  Name parent() const;

  // The name formed of this name's last `n` labels ("a.b.c." -> "b.c." for
  // n=2); the whole name when n >= label_count().
  Name suffix(std::size_t n) const;

  // New name with `label` prepended ("www" + "example.com." -> "www.example.com.").
  Result<Name> prepend(std::string_view label) const;

  // New name of this name's labels followed by `suffix`'s labels.
  Result<Name> concat(const Name& suffix) const;

  // True if this name is `ancestor` or is below it ("a.b.c" under "b.c").
  bool is_under(const Name& ancestor) const;
  // Strictly below (not equal).
  bool is_strictly_under(const Name& ancestor) const;

  // Case-insensitive equality: both spellings link to the same canonical
  // pool entry, so this is one pointer compare.
  bool operator==(const Name& other) const {
    return id_ == other.id_ || rep_().canon == other.rep_().canon;
  }
  bool operator!=(const Name& other) const { return !(*this == other); }

  // RFC 4034 §6.1 canonical ordering (by reversed label sequence, labels as
  // case-folded octet strings). One memcmp over the pooled order keys.
  std::strong_ordering operator<=>(const Name& other) const;

  // Lower-cased presentation form; stable key for hashing/maps. Cached in
  // the pool — this accessor never allocates, and the reference stays valid
  // for the process lifetime.
  const std::string& canonical_text() const { return rep_().canon->canon_text; }

  // Append RFC 4034 §6.2 canonical wire form (lowercased, uncompressed).
  void encode_canonical(ByteWriter& writer) const;

 private:
  explicit Name(std::uint32_t id) : id_(id) {}

  const NamePool::Rep& rep_() const { return NamePool::instance().rep(id_); }

  // Build from validated labels (lengths and totals already checked).
  static Name build(const std::vector<std::string>& labels);
  // Intern a validated flat spelling.
  static Name intern(std::string_view flat, std::size_t label_count);

  // Flat offset of label `index` (0 <= index <= label_count()).
  std::size_t flat_offset_of(std::size_t index) const;

  // Handle into NamePool; 0 is the root.
  std::uint32_t id_ = 0;
};

}  // namespace dnsboot::dns
