// Bounds-checked big-endian byte readers/writers used by all wire codecs.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.hpp"

namespace dnsboot {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

// ByteReader: sequential big-endian reads over a borrowed buffer.
// All reads are bounds-checked and return Result; the reader never throws.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  BytesView whole_buffer() const { return data_; }

  // Reposition to an absolute offset (used to follow DNS compression
  // pointers). Fails when the offset is outside the buffer.
  Status seek(std::size_t offset);

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  // Borrow the next `n` bytes without copying them. The view aliases the
  // reader's buffer: use it before that buffer goes away, and copy what
  // must outlive it.
  Result<BytesView> view(std::size_t n);
  // Copy the next `n` bytes into a buffer of their own.
  Result<Bytes> bytes(std::size_t n);

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

// ByteWriter: append-only big-endian writer over an owned buffer.
class ByteWriter {
 public:
  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

  // Pre-size the buffer (hot encode paths know their rough message size).
  void reserve(std::size_t n) { buf_.reserve(n); }
  // Drop the contents but keep the capacity, for buffer reuse.
  void clear() { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void raw(BytesView bytes);
  void raw(std::string_view s);

  // Overwrite a previously written big-endian u16 at `offset` (used to
  // back-patch RDLENGTH and section counts).
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  Bytes buf_;
};

// Convenience conversions.
Bytes to_bytes(const std::string& s);
std::string to_string(BytesView b);

}  // namespace dnsboot
