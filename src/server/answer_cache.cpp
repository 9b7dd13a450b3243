#include "server/answer_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <new>
#include <string_view>

namespace dnsboot::server {
namespace {

constexpr std::size_t kDnsHeader = 12;
// The reply header bytes an entry keeps: flags and section counts.
constexpr std::size_t kReplyHead = kDnsHeader - 2;

std::uint32_t hash_key(BytesView key, bool tcp) {
  const std::size_t h = std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(key.data()), key.size()));
  const auto folded = static_cast<std::uint32_t>(h ^ (h >> 32));
  return (folded & 0x7fffffffu) | (tcp ? 0x80000000u : 0u);
}

// Length of the query's question section when it holds exactly one
// question whose name is written out in full (no compression pointer),
// else 0.
std::size_t question_size(BytesView query) {
  if (query.size() < kDnsHeader || query[4] != 0 || query[5] != 1) return 0;
  std::size_t pos = kDnsHeader;
  while (pos < query.size()) {
    const std::uint8_t label = query[pos];
    if (label == 0) {
      pos += 1 + 4;  // root label, then type and class
      return pos <= query.size() ? pos - kDnsHeader : 0;
    }
    if (label > 63) return 0;
    pos += 1 + label;
  }
  return 0;
}

}  // namespace

const AnswerCache::Header& AnswerCache::header_of(const Block& block) {
  return *std::launder(reinterpret_cast<const Header*>(block.get()));
}

std::size_t AnswerCache::block_size(const Header& header) {
  return sizeof(Header) + header.key_size + kReplyHead + header.tail_size;
}

bool AnswerCache::valid(const Header& header, std::uint64_t generation) {
  // Generation first: only while it matches does the server still hold the
  // zone the entry points at.
  if (header.source.generation != generation) return false;
  return header.source.zone == nullptr ||
         header.source.zone->version() == header.source.zone_version;
}

std::size_t AnswerCache::slots_for(std::size_t entries) {
  return std::max<std::size_t>(16, std::bit_ceil(2 * entries));
}

std::size_t AnswerCache::probe(BytesView key, std::uint32_t hash) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const Block& block = index_[pos];
    if (block == nullptr) return pos;
    const Header& header = header_of(block);
    if (header.hash == hash && header.key_size == key.size() &&
        std::memcmp(block.get() + sizeof(Header), key.data(), key.size()) ==
            0) {
      return pos;
    }
  }
}

std::optional<AnswerCache::Answer> AnswerCache::find(
    BytesView query, bool tcp, std::uint64_t generation) const {
  if (entries_ == 0 || query.size() < kDnsHeader) return std::nullopt;
  const BytesView key = query.subspan(2);
  const Block& block = index_[probe(key, hash_key(key, tcp))];
  if (block == nullptr) return std::nullopt;
  const Header& header = header_of(block);
  if (!valid(header, generation)) return std::nullopt;

  // ID from the query, the stored reply header, the question from the
  // query (the key matched, so these are the stored bytes), stored tail.
  const std::size_t question = question_size(query);
  const std::uint8_t* head = block.get() + sizeof(Header) + header.key_size;
  Answer answer;
  answer.rcode = static_cast<dns::Rcode>(head[1] & 0x0f);
  answer.reply.resize(kDnsHeader + question + header.tail_size);
  std::uint8_t* out = answer.reply.data();
  std::memcpy(out, query.data(), 2);
  std::memcpy(out + 2, head, kReplyHead);
  std::memcpy(out + kDnsHeader, query.data() + kDnsHeader, question);
  std::memcpy(out + kDnsHeader + question, head + kReplyHead,
              header.tail_size);
  return answer;
}

void AnswerCache::insert(BytesView query, bool tcp, BytesView reply,
                         const Source& source) {
  const std::size_t question = question_size(query);
  if (question == 0 || reply.size() < kDnsHeader + question ||
      std::memcmp(reply.data() + kDnsHeader, query.data() + kDnsHeader,
                  question) != 0) {
    return;
  }
  const BytesView key = query.subspan(2);
  const BytesView tail = reply.subspan(kDnsHeader + question);
  if (key.size() > UINT16_MAX || tail.size() > UINT16_MAX) return;

  Header header;
  header.source = source;
  header.hash = hash_key(key, tcp);
  header.key_size = static_cast<std::uint16_t>(key.size());
  header.tail_size = static_cast<std::uint16_t>(tail.size());
  const std::size_t size = block_size(header);
  if (size + slots_for(1) * sizeof(Block) > kMaxBytes) return;

  auto over_bound = [&] {
    return block_bytes_ + size + slots_for(entries_ + 1) * sizeof(Block) >
           kMaxBytes;
  };
  if (over_bound()) {
    rebuild(source.generation);
    if (over_bound()) clear();
  }
  if ((entries_ + 1) * 2 > index_.size() ||
      ++inserts_since_rebuild_ > entries_ / 4 + 16) {
    rebuild(source.generation);
  }

  Block block(new std::uint8_t[size]);
  new (block.get()) Header(header);
  std::uint8_t* out = block.get() + sizeof(Header);
  out = std::copy(key.begin(), key.end(), out);
  out = std::copy(reply.begin() + 2, reply.begin() + kDnsHeader, out);
  std::copy(tail.begin(), tail.end(), out);

  Block& slot = index_[probe(key, header.hash)];
  if (slot != nullptr) {
    block_bytes_ -= block_size(header_of(slot));
    --entries_;
  }
  slot = std::move(block);
  block_bytes_ += size;
  ++entries_;
}

void AnswerCache::rebuild(std::uint64_t generation) {
  std::vector<Block> old = std::move(index_);
  for (Block& block : old) {
    if (block != nullptr && !valid(header_of(block), generation)) {
      block_bytes_ -= block_size(header_of(block));
      --entries_;
      block.reset();
    }
  }
  index_ = std::vector<Block>(slots_for(entries_ + 1));
  const std::size_t mask = index_.size() - 1;
  for (Block& block : old) {
    if (block == nullptr) continue;
    std::size_t pos = header_of(block).hash & mask;
    while (index_[pos] != nullptr) pos = (pos + 1) & mask;
    index_[pos] = std::move(block);
  }
  inserts_since_rebuild_ = 0;
}

void AnswerCache::clear() {
  index_ = std::vector<Block>(slots_for(1));
  entries_ = 0;
  block_bytes_ = 0;
  inserts_since_rebuild_ = 0;
}

}  // namespace dnsboot::server
