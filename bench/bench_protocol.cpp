// google-benchmark micro-suite for the protocol substrate: wire codecs,
// canonical forms, signing, validation, server lookup. These are the inner
// loops whose cost determines how large a simulated population the table
// benches can afford.
#include <benchmark/benchmark.h>

#include <cctype>

#include "base/rng.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha2.hpp"
#include "dns/message.hpp"
#include "dns/zonefile.hpp"
#include "dnssec/signer.hpp"
#include "dnssec/validator.hpp"
#include "server/auth_server.hpp"

namespace {

using namespace dnsboot;

dns::Name name_of(const char* text) {
  return std::move(dns::Name::from_text(text)).take();
}

dns::Message sample_response() {
  dns::Message q = dns::Message::make_query(1, name_of("www.example.com."),
                                            dns::RRType::kA);
  dns::Message r = dns::Message::make_response(q);
  r.header.aa = true;
  for (int i = 0; i < 4; ++i) {
    dns::ResourceRecord rr;
    rr.name = name_of("www.example.com.");
    rr.type = dns::RRType::kA;
    rr.ttl = 300;
    rr.rdata = dns::ARdata{{192, 0, 2, static_cast<std::uint8_t>(i)}};
    r.answers.push_back(rr);
  }
  dns::ResourceRecord sig;
  sig.name = name_of("www.example.com.");
  sig.type = dns::RRType::kRRSIG;
  sig.ttl = 300;
  dns::RrsigRdata rrsig;
  rrsig.type_covered = dns::RRType::kA;
  rrsig.algorithm = 15;
  rrsig.labels = 3;
  rrsig.signer_name = name_of("example.com.");
  rrsig.signature = Bytes(64, 0x42);
  sig.rdata = rrsig;
  r.answers.push_back(sig);
  return r;
}

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    auto n = dns::Name::from_text("_dsboot.example.co.uk._signal.ns1.example.net");
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_NameParse);

void BM_NameCanonicalCompare(benchmark::State& state) {
  auto a = name_of("aaa.zzz.example.com.");
  auto b = name_of("aab.zzz.example.com.");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a <=> b);
  }
}
BENCHMARK(BM_NameCanonicalCompare);

void BM_MessageEncode(benchmark::State& state) {
  dns::Message r = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.encode());
  }
}
BENCHMARK(BM_MessageEncode);

void BM_MessageDecode(benchmark::State& state) {
  Bytes wire = sample_response().encode();
  for (auto _ : state) {
    auto m = dns::Message::decode(wire);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MessageDecode);

void BM_Sha256_1k(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1k);

void BM_Ed25519Sign(benchmark::State& state) {
  Rng rng(2);
  auto key = crypto::KeyPair::generate(rng, crypto::kZskFlags);
  Bytes msg = rng.bytes(300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

// The verify benches rotate through this many distinct signed inputs, four
// times what ed25519_verify's per-thread memo holds, and keep their place
// across google-benchmark's repeated calls: an input comes round again only
// after 4x the memo's capacity of newer ones, so each iteration misses.
constexpr std::size_t kDistinctInputs = 4 * crypto::kEd25519VerifyMemoCapacity;

// Message i is a fixed 300-byte body with i in its first four bytes.
void stamp_input(Bytes& msg, std::size_t i) {
  for (std::size_t b = 0; b < 4; ++b) {
    msg[b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
}

void BM_Ed25519Verify(benchmark::State& state) {
  struct Corpus {
    crypto::KeyPair key;
    Bytes msg;
    std::vector<crypto::Ed25519Signature> sigs;
  };
  static const Corpus corpus = [] {
    Rng rng(3);
    Corpus c{crypto::KeyPair::generate(rng, crypto::kZskFlags), rng.bytes(300),
             {}};
    for (std::size_t i = 0; i < kDistinctInputs; ++i) {
      stamp_input(c.msg, i);
      c.sigs.push_back(c.key.sign(c.msg));
    }
    return c;
  }();
  static std::size_t next = 0;
  Bytes msg = corpus.msg;
  for (auto _ : state) {
    const std::size_t i = next++ % kDistinctInputs;
    stamp_input(msg, i);
    benchmark::DoNotOptimize(corpus.key.verify(msg, corpus.sigs[i]));
  }
}
BENCHMARK(BM_Ed25519Verify);

// One input every iteration: after the first, each call is a memo hit.
void BM_Ed25519VerifyRepeat(benchmark::State& state) {
  Rng rng(3);
  auto key = crypto::KeyPair::generate(rng, crypto::kZskFlags);
  Bytes msg = rng.bytes(300);
  auto sig = key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.verify(msg, sig));
  }
}
BENCHMARK(BM_Ed25519VerifyRepeat);

dns::Zone make_zone(int hosts) {
  dns::Zone zone(name_of("example.com."));
  std::string text = "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
                     "@ IN NS ns1\n@ IN NS ns2\n";
  for (int i = 0; i < hosts; ++i) {
    text += "host" + std::to_string(i) + " IN A 192.0.2." +
            std::to_string(i % 250 + 1) + "\n";
  }
  auto parsed =
      dns::parse_zone(text, dns::ZoneFileOptions{zone.origin(), 3600});
  return std::move(parsed).take();
}

void BM_SignZone(benchmark::State& state) {
  Rng rng(4);
  auto keys = dnssec::ZoneKeys::generate(rng);
  dnssec::SigningPolicy policy;
  policy.inception = 1000;
  policy.expiration = 100000000;
  for (auto _ : state) {
    dns::Zone zone = make_zone(static_cast<int>(state.range(0)));
    auto status = dnssec::sign_zone(zone, keys, policy);
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_SignZone)->Arg(2)->Arg(16)->Arg(64);

void BM_ValidateRRset(benchmark::State& state) {
  // The zone's SOA RRset under kDistinctInputs RRSIGs that differ in their
  // expiration, so each iteration verifies a new signature.
  struct Corpus {
    dns::Zone zone;
    std::vector<dns::DnskeyRdata> dnskeys;
    std::vector<std::vector<dns::RrsigRdata>> sigs;
  };
  static const Corpus corpus = [] {
    Rng rng(5);
    auto keys = dnssec::ZoneKeys::generate(rng);
    dnssec::SigningPolicy policy;
    policy.inception = 1000;
    policy.expiration = 100000000;
    Corpus c{make_zone(2),
             {dnssec::make_dnskey(keys.ksk), dnssec::make_dnskey(keys.zsk)},
             {}};
    (void)dnssec::sign_zone(c.zone, keys, policy);
    for (std::size_t i = 0; i < kDistinctInputs; ++i) {
      policy.expiration = 100000000 + static_cast<std::uint32_t>(i);
      const dns::ResourceRecord rrsig = dnssec::sign_rrset(
          *c.zone.soa(), keys.zsk, c.zone.origin(), policy);
      c.sigs.push_back({std::get<dns::RrsigRdata>(rrsig.rdata)});
    }
    return c;
  }();
  static std::size_t next = 0;
  for (auto _ : state) {
    auto v = dnssec::verify_rrset(*corpus.zone.soa(),
                                  corpus.sigs[next++ % kDistinctInputs],
                                  corpus.dnskeys, corpus.zone.origin(), 5000);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ValidateRRset);

void BM_ServerHandleQuery(benchmark::State& state) {
  server::AuthServer auth(server::ServerConfig{.id = "bench"}, 7);
  // Serve many zones so zone_for's suffix walk is realistic.
  for (int i = 0; i < 10000; ++i) {
    auto zone = std::make_shared<dns::Zone>(
        name_of(("zone" + std::to_string(i) + ".com.").c_str()));
    (void)zone->add(dns::ResourceRecord{
        zone->origin(), dns::RRType::kA, dns::RRClass::kIN, 300,
        dns::ARdata{{10, 0, 0, 1}}});
    auth.add_zone(zone);
  }
  dns::Message query =
      dns::Message::make_query(9, name_of("zone5000.com."), dns::RRType::kA);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth.handle(query));
  }
}
BENCHMARK(BM_ServerHandleQuery);

// A transport that hands a datagram straight to the bound handler and keeps
// the reply, so a bench times the server's datagram handler (the path
// attach() binds) without any event loop or socket around it.
class DirectTransport final : public net::Transport {
 public:
  net::SimTime now() const override { return 0; }
  std::uint64_t schedule(net::SimTime, TimerHandler) override { return 1; }
  void cancel(std::uint64_t) override {}
  void bind(const net::IpAddress&, DatagramHandler handler) override {
    handler_ = std::move(handler);
  }
  void unbind(const net::IpAddress&) override { handler_ = nullptr; }
  bool is_bound(const net::IpAddress&) const override {
    return handler_ != nullptr;
  }
  void send(const net::IpAddress&, const net::IpAddress&, Bytes payload,
            bool) override {
    reply_ = std::move(payload);
    ++sent_;
  }
  std::size_t run(std::size_t) override { return 0; }
  std::uint64_t datagrams_sent() const override { return sent_; }
  std::uint64_t datagrams_delivered() const override { return sent_; }
  std::uint64_t bytes_sent() const override { return 0; }

  void deliver(const net::Datagram& query) { handler_(query); }
  const Bytes& reply() const { return reply_; }

 private:
  DatagramHandler handler_;
  Bytes reply_;
  std::uint64_t sent_ = 0;
};

// A server of kAnswerZones signed zones, attached to a DirectTransport, and
// the scanner's apex questions (SOA, NS, DNSKEY, CDS, CDNSKEY) for each zone
// in `spellings` DNS-0x20 case spellings of its name. Every spelling is its
// own cache key with the same answer work behind it.
constexpr int kAnswerZones = 64;

struct AnswerBench {
  server::AuthServer server{server::ServerConfig{.id = "bench"}, 7};
  DirectTransport transport;
  std::vector<net::Datagram> queries;

  explicit AnswerBench(int spellings) {
    Rng rng(11);
    dnssec::SigningPolicy policy;
    policy.inception = 1000;
    policy.expiration = 100000000;
    std::vector<std::string> origins;
    for (int i = 0; i < kAnswerZones; ++i) {
      origins.push_back("zone" + std::to_string(i) + ".com.");
      auto zone =
          std::make_shared<dns::Zone>(name_of(origins.back().c_str()));
      const std::string text =
          "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
          "@ IN NS ns1\n"
          "@ IN NS ns2\n"
          "ns1 IN A 192.0.2.1\n"
          "ns2 IN A 192.0.2.2\n";
      *zone = std::move(dns::parse_zone(text, dns::ZoneFileOptions{
                                                  zone->origin(), 3600}))
                  .take();
      (void)dnssec::sign_zone(*zone, dnssec::ZoneKeys::generate(rng), policy);
      server.add_zone(zone);
    }
    const net::IpAddress address = net::IpAddress::synthetic_v4(1);
    server.attach(transport, address);
    for (int s = 0; s < spellings; ++s) {
      for (const std::string& origin : origins) {
        std::string spelled = origin;
        for (std::size_t c = 0, bit = 0; c < spelled.size(); ++c) {
          if (std::isalpha(static_cast<unsigned char>(spelled[c])) &&
              ((s >> bit++) & 1) != 0) {
            spelled[c] = static_cast<char>(
                std::toupper(static_cast<unsigned char>(spelled[c])));
          }
        }
        for (dns::RRType qtype :
             {dns::RRType::kSOA, dns::RRType::kNS, dns::RRType::kDNSKEY,
              dns::RRType::kCDS, dns::RRType::kCDNSKEY}) {
          net::Datagram query;
          query.source = net::IpAddress::synthetic_v4(2);
          query.destination = address;
          query.payload =
              dns::Message::make_query(9, name_of(spelled.c_str()), qtype)
                  .encode();
          queries.push_back(std::move(query));
        }
      }
    }
  }
};

// Repeated questions: after the first pass every query is a cache hit.
void BM_ServerAnswerHit(benchmark::State& state) {
  static AnswerBench bench(1);
  std::size_t next = 0;
  for (auto _ : state) {
    bench.transport.deliver(bench.queries[next++ % bench.queries.size()]);
    benchmark::DoNotOptimize(bench.transport.reply().data());
  }
}
BENCHMARK(BM_ServerAnswerHit);

// Never-repeating traffic: 64 spellings of every question rotate through
// far more answers than the cache's bound holds, so every query misses and
// pays the full path plus the insert.
void BM_ServerAnswerMiss(benchmark::State& state) {
  static AnswerBench bench(64);
  std::size_t next = 0;
  for (auto _ : state) {
    bench.transport.deliver(bench.queries[next++ % bench.queries.size()]);
    benchmark::DoNotOptimize(bench.transport.reply().data());
  }
}
BENCHMARK(BM_ServerAnswerMiss);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(8);
  ZipfSampler zipf(1.1, 1000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace

BENCHMARK_MAIN();
