// libFuzzer entry point for the auth-server inbound path: arbitrary bytes
// arrive as UDP and TCP datagrams at an attached AuthServer — the exact
// surface an Internet-facing serving tier exposes. The invariant under test
// is the serving contract from DESIGN.md §13: any input either produces a
// well-formed DNS response (decodable, QR=1, the query's ID echoed) or is
// dropped silently; the worker itself never dies. Each input reaches the
// open server twice, and the second delivery — which the server may answer
// from its answer cache — must get byte-identical replies. A second,
// hardened server runs the same input through the defense gate (token
// buckets + malformed shedding) to fuzz the drop paths as well.
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "dns/message.hpp"
#include "dns/zonefile.hpp"
#include "net/simnet.hpp"
#include "server/auth_server.hpp"

namespace {

void require(bool ok) {
  if (!ok) std::abort();  // surfaced as a crash by libFuzzer / the driver
}

struct ServerWorld {
  dnsboot::net::SimNetwork network{1};
  dnsboot::net::IpAddress client = dnsboot::net::IpAddress::synthetic_v4(1);
  dnsboot::net::IpAddress open_addr = dnsboot::net::IpAddress::synthetic_v4(2);
  dnsboot::net::IpAddress hard_addr = dnsboot::net::IpAddress::synthetic_v4(3);
  std::shared_ptr<dnsboot::server::AuthServer> open_server;
  std::shared_ptr<dnsboot::server::AuthServer> hard_server;
  std::vector<dnsboot::Bytes> responses;

  ServerWorld() {
    using namespace dnsboot;
    const std::string text =
        "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
        "@ IN NS ns1\n"
        "ns1 IN A 192.0.2.1\n"
        "www IN A 192.0.2.80\n"
        "txt IN TXT \"payload\"\n";
    auto zone = std::make_shared<dns::Zone>(
        std::move(dns::parse_zone(
                      text, dns::ZoneFileOptions{
                                std::move(dns::Name::from_text("example.com."))
                                    .take(),
                                60}))
            .take());
    open_server = std::make_shared<server::AuthServer>(
        server::ServerConfig{.id = "open"}, 1);
    open_server->add_zone(zone);
    open_server->attach(network, open_addr);
    hard_server = std::make_shared<server::AuthServer>(
        server::ServerConfig{.id = "hard"}, 1);
    server::ServerDefenseProfile defense;
    defense.per_client_qps = 1.0;  // throttles almost immediately
    defense.per_client_burst = 2.0;
    hard_server->set_defense(defense);
    hard_server->add_zone(zone);
    hard_server->attach(network, hard_addr);
    network.bind(client, [this](const net::Datagram& dgram) {
      responses.push_back(dgram.payload);
    });
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using dnsboot::Bytes;
  using dnsboot::dns::Message;

  static ServerWorld* world = new ServerWorld();  // reused across inputs

  Bytes payload(data, data + size);
  auto deliver_to_open = [&] {
    world->responses.clear();
    world->network.send(world->client, world->open_addr, payload);
    world->network.send(world->client, world->open_addr, payload,
                        /*tcp=*/true);
    world->network.run();
    return world->responses;
  };
  const std::vector<Bytes> first = deliver_to_open();
  require(deliver_to_open() == first);
  world->network.send(world->client, world->hard_addr, payload);
  world->network.run();

  for (const Bytes& response : world->responses) {
    // Every emitted response is well-formed: it decodes, it is marked as a
    // response, and — when the input was long enough to carry an ID — it
    // echoes that ID back. FORMERR/REFUSED and friends all pass through
    // here; silent drops simply never reach this loop.
    auto decoded = Message::decode(response);
    require(decoded.ok());
    require(decoded->header.qr);
    if (size >= 2) {
      const std::uint16_t id =
          static_cast<std::uint16_t>((data[0] << 8) | data[1]);
      require(decoded->header.id == id);
    }
  }
  // The workers survive every input: a known-good query still answers.
  world->responses.clear();
  auto probe = Message::make_query(
      0x5151, std::move(dnsboot::dns::Name::from_text("www.example.com."))
                  .take(),
      dnsboot::dns::RRType::kA, false);
  world->network.send(world->client, world->open_addr, probe.encode());
  world->network.run();
  require(world->responses.size() == 1);
  return 0;
}
