// libFuzzer entry point for the DNS message decoder: arbitrary bytes must
// decode-or-error without UB, and anything that decodes must be a codec
// fixpoint: its encoding decodes again, to a message that encodes to the
// same bytes.
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "dns/message.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  dnsboot::Bytes input(data, data + size);
  auto result = dnsboot::dns::Message::decode(input);
  if (!result.ok()) return 0;
  const dnsboot::Bytes wire = result->encode();
  auto again = dnsboot::dns::Message::decode(wire);
  // An abort is what libFuzzer and the standalone sweep report as a failure.
  if (!again.ok() || again->encode() != wire) std::abort();
  return 0;
}
