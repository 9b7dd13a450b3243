#include "base/bytes.hpp"

namespace dnsboot {

Status ByteReader::seek(std::size_t offset) {
  if (offset > data_.size()) {
    return Error{"bytes.seek_out_of_range",
                 "seek to " + std::to_string(offset) + " in buffer of " +
                     std::to_string(data_.size())};
  }
  pos_ = offset;
  return Status::ok_status();
}

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return Error{"wire.truncated", "u8 past end"};
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return Error{"wire.truncated", "u16 past end"};
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return Error{"wire.truncated", "u32 past end"};
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 24 |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

Result<BytesView> ByteReader::view(std::size_t n) {
  if (remaining() < n) {
    return Error{"wire.truncated",
                 "need " + std::to_string(n) + " bytes, have " +
                     std::to_string(remaining())};
  }
  BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<Bytes> ByteReader::bytes(std::size_t n) {
  DNSBOOT_TRY(borrowed, view(n));
  return Bytes(borrowed.begin(), borrowed.end());
}

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void ByteWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void ByteWriter::raw(BytesView bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::raw(std::string_view s) {
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  assert(offset + 2 <= buf_.size());
  buf_[offset] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<std::uint8_t>(v & 0xff);
}

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string to_string(BytesView b) { return std::string(b.begin(), b.end()); }

}  // namespace dnsboot
