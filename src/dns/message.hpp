// DNS message model and wire codec (RFC 1035 §4) with name compression on
// encode and pointer-following on decode. This is the format the simulated
// scanner and servers actually exchange.
#pragma once

#include <optional>
#include <vector>

#include "dns/record.hpp"

namespace dnsboot::dns {

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = false;  // recursion desired
  bool ra = false;  // recursion available
  bool ad = false;  // authentic data (DNSSEC)
  bool cd = false;  // checking disabled (DNSSEC)
  Rcode rcode = Rcode::kNoError;
};

struct Question {
  Name name;
  RRType type = RRType::kA;
  RRClass klass = RRClass::kIN;

  bool operator==(const Question& other) const {
    return name == other.name && type == other.type && klass == other.klass;
  }
};

struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  // Convenience builders.
  static Message make_query(std::uint16_t id, const Name& name, RRType type,
                            bool dnssec_ok = true);
  static Message make_response(const Message& query);

  // Does any additionals entry carry EDNS (OPT)?
  bool has_edns() const;
  // The DO bit from the OPT TTL field, if EDNS present.
  bool dnssec_ok() const;
  // Append an OPT RR advertising `udp_size`, with the DO bit.
  void add_edns(std::uint16_t udp_size, bool dnssec_ok);

  // All answer records of `type` owned by `name`.
  std::vector<ResourceRecord> answers_of(const Name& name, RRType type) const;

  // Wire encoding with name compression for owner names and the
  // compression-eligible RDATA name fields.
  Bytes encode() const;
  // Append the wire encoding to an existing writer (callers that reuse an
  // encode buffer across messages: clear() + encode_into + take/copy).
  void encode_into(ByteWriter& writer) const;

  static Result<Message> decode(BytesView wire);
};

// The wire bytes of make_query(id, qname, qtype, dnssec_ok).encode(),
// written straight into one exactly-sized buffer: the query engine's send
// path builds no Message and no compression table.
Bytes encode_query(std::uint16_t id, const Name& qname, RRType qtype,
                   bool dnssec_ok = true);

}  // namespace dnsboot::dns
