// key_rollover — the full RFC 7344 lifecycle the paper's §4.3 alludes to
// ("already signed zones manage key rollovers with in-zone CDS RRs only"):
//
//   1. a secured zone rolls its KSK,
//   2. the operator publishes new CDS/CDNSKEY,
//   3. the registry's CDS processor validates and swaps the DS,
//   4. the chain stays secure throughout,
//   5. finally the operator requests DNSSEC teardown via the delete sentinel.
#include <cstdio>

#include "crypto/keys.hpp"
#include "ecosystem/world.hpp"
#include "registry/cds_processor.hpp"

using namespace dnsboot;

namespace {

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

const char* status_name(dnssec::ZoneDnssecStatus status) {
  static std::string holder;
  holder = dnssec::to_string(status);
  return holder.c_str();
}

}  // namespace

int main() {
  // One operator, one secured customer zone under .se.
  ecosystem::OperatorProfile op;
  op.name = "RollHost";
  op.ns_domains = {"rollhost.net"};
  op.tld = "net";
  op.customer_tld = "se";
  op.domains = 1;
  op.secured = 1;
  op.cds_domains = 1;
  ecosystem::WorldSpec spec;
  spec.config.scale = 1.0;
  spec.config.operators = {op};
  spec.config.inject_pathologies = false;
  spec.network_seed = 90;
  spec.link = net::LinkModel{net::kMillisecond, 0, 0.0};
  ecosystem::World world = ecosystem::build_world(spec);
  net::SimNetwork& network = *world.network;
  ecosystem::Ecosystem& eco = world.eco;
  const dns::Name zone_name = name_of("rollhost-0.se.");

  resolver::QueryEngineOptions engine_options;
  engine_options.per_server_qps = 5000;
  resolver::QueryEngine engine(network, net::IpAddress::v4({192, 0, 2, 246}),
                               engine_options);
  resolver::DelegationResolver delegation_resolver(engine, eco.hints);
  registry::RegistryConfig registry_config;
  registry_config.tld = name_of("se.");
  registry_config.now = eco.now;
  registry::CdsProcessor registry_processor(network, engine,
                                            delegation_resolver,
                                            eco.registries.at("se."),
                                            registry_config);

  auto run_registry_pass = [&](const char* label) {
    registry::ProcessingOutcome outcome;
    registry_processor.process(zone_name,
                               [&](registry::ProcessingOutcome result) {
                                 outcome = std::move(result);
                               });
    network.run();
    std::printf("%-34s action=%-28s dnssec=%s\n", label,
                registry::to_string(outcome.action).c_str(),
                status_name(outcome.report.dnssec));
    return outcome;
  };

  std::printf("key_rollover — RFC 7344 DS maintenance end to end\n\n");

  // Phase 0: steady state (the registry first widens SHA-256-only DS to the
  // operator's SHA-256+384 CDS pair, then has nothing to do).
  run_registry_pass("initial convergence:");
  run_registry_pass("steady state:");

  // Grab the operator's live zone object (shared with the server), plus the
  // key material for the roll.
  auto server = eco.servers.front();  // RollHost is the first operator built
  auto zone_const = server->zone_for(zone_name);
  auto zone = std::const_pointer_cast<dns::Zone>(
      std::shared_ptr<const dns::Zone>(zone_const));
  Rng rng(4242);
  auto old_like_keys = dnssec::ZoneKeys::generate(rng);  // stand-in old KSK
  auto new_keys = dnssec::ZoneKeys::generate(rng);
  dnssec::SigningPolicy policy;
  policy.inception = eco.now - 3600;
  policy.expiration = eco.now + 30 * 86400;

  auto publish_cds_for = [&](const crypto::KeyPair& ksk) {
    zone->remove_rrset(zone_name, dns::RRType::kCDS);
    zone->remove_rrset(zone_name, dns::RRType::kCDNSKEY);
    auto sync = dnssec::make_child_sync_records(zone_name, ksk).take();
    for (const auto& cds : sync.cds) {
      (void)zone->add(dns::ResourceRecord{zone_name, dns::RRType::kCDS,
                                          dns::RRClass::kIN, 300,
                                          dns::Rdata{cds}});
    }
    for (const auto& key : sync.cdnskey) {
      (void)zone->add(dns::ResourceRecord{zone_name, dns::RRType::kCDNSKEY,
                                          dns::RRClass::kIN, 300,
                                          dns::Rdata{key}});
    }
  };

  // Phase 1 (the WRONG way): abrupt roll — the operator throws the old KSK
  // away before the parent's DS moved. The chain breaks and a compliant
  // registry refuses to act on the (now unvalidatable) CDS.
  std::printf("\n-- ABRUPT roll: old key removed before the DS moved --\n");
  publish_cds_for(new_keys.ksk);
  (void)dnssec::sign_zone(*zone, new_keys, policy);
  run_registry_pass("after abrupt roll:");

  // Recovery: once the chain is bogus, NO automated CDS path can fix it —
  // the CDS itself no longer validates. The operator must go through the
  // registrar's manual DS interface, exactly the coordination pain the paper
  // identifies as DNSSEC's deployment barrier (§2).
  std::printf("\n-- manual recovery via the registrar's DS interface --\n");
  auto recovery =
      dnssec::ZoneKeys{.ksk = old_like_keys.ksk, .zsk = new_keys.zsk};
  publish_cds_for(old_like_keys.ksk);
  (void)dnssec::sign_zone(*zone, recovery, policy);
  auto manual_ds =
      dnssec::make_ds(zone_name, dnssec::make_dnskey(old_like_keys.ksk), 2)
          .take();
  (void)registry_processor.install_ds(zone_name, {manual_ds});
  run_registry_pass("after manual DS update:");

  // Phase 2 (the RFC 6781 way): the operator pre-publishes the new key
  // alongside the old one (double-signature rollover). The old DS keeps the
  // chain secure while the CDS announces the new key, so the registry can
  // swap the DS automatically.
  std::printf("\n-- PROPER roll: both KSKs published and signing --\n");
  dnssec::ZoneKeys rolling{.ksk = new_keys.ksk,
                           .zsk = new_keys.zsk,
                           .extra_ksks = {old_like_keys.ksk}};
  publish_cds_for(new_keys.ksk);
  (void)dnssec::sign_zone(*zone, rolling, policy);
  run_registry_pass("double-signed roll:");
  // Old key retired once the DS points at the new KSK.
  dnssec::ZoneKeys settled{.ksk = new_keys.ksk, .zsk = new_keys.zsk};
  publish_cds_for(new_keys.ksk);
  (void)dnssec::sign_zone(*zone, settled, policy);
  run_registry_pass("old key retired:");

  // Phase 3: the operator wants DNSSEC off (e.g. the domain is moving to an
  // operator that cannot do a coordinated rollover, §2): delete sentinel.
  std::printf("\n-- operator publishes the RFC 8078 delete sentinel --\n");
  zone->remove_rrset(zone_name, dns::RRType::kCDS);
  zone->remove_rrset(zone_name, dns::RRType::kCDNSKEY);
  (void)zone->add(dns::ResourceRecord{zone_name, dns::RRType::kCDS,
                                      dns::RRClass::kIN, 300,
                                      dns::Rdata{dnssec::cds_delete_sentinel()}});
  (void)zone->add(dns::ResourceRecord{
      zone_name, dns::RRType::kCDNSKEY, dns::RRClass::kIN, 300,
      dns::Rdata{dnssec::cdnskey_delete_sentinel()}});
  (void)dnssec::sign_zone(*zone, new_keys, policy);

  run_registry_pass("delete request:");
  // The zone is now a secure island (signed, no DS) — exactly the Cloudflare
  // end-state the paper found 160 k times (§4.2).
  run_registry_pass("post-delete state:");

  std::printf("\nThe zone ends as a secure island: signed in-zone, no DS — the\n"
              "state 37%% of Cloudflare-hosted islands were left in (§4.2).\n");
  return 0;
}
