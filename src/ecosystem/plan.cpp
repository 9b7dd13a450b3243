#include "ecosystem/plan.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "base/rng.hpp"
#include "base/strings.hpp"

namespace dnsboot::ecosystem {
namespace {

dns::Name name_of(const std::string& text) {
  auto r = dns::Name::from_text(text);
  // Generator-internal names are always well-formed.
  return std::move(r).take();
}

dns::ResourceRecord make_rr(const dns::Name& owner, dns::RRType type,
                            std::uint32_t ttl, dns::Rdata rdata) {
  dns::ResourceRecord rr;
  rr.name = owner;
  rr.type = type;
  rr.ttl = ttl;
  rr.rdata = std::move(rdata);
  return rr;
}

dns::ARdata a_of(const net::IpAddress& address) {
  const auto& b = address.bytes();
  return dns::ARdata{{b[0], b[1], b[2], b[3]}};
}

dns::AaaaRdata aaaa_of(const net::IpAddress& address) {
  return dns::AaaaRdata{address.bytes()};
}

std::string slug_of(const std::string& operator_name) {
  std::string out;
  for (char c : operator_name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) out += c;
    if (c >= 'A' && c <= 'Z') out += static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::uint64_t scaled(const EcosystemConfig& config, std::uint64_t full_count) {
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(full_count) * config.scale));
}

std::uint64_t scaled_pathology(const EcosystemConfig& config,
                               std::uint64_t full_count) {
  if (full_count == 0) return 0;
  return std::max<std::uint64_t>(1, scaled(config, full_count));
}

dnssec::SigningPolicy zone_policy(const EcosystemConfig& config,
                                  bool expired = false) {
  dnssec::SigningPolicy policy;
  if (expired) {
    // Signed long ago, never re-signed: classic expired-RRSIG breakage.
    policy.inception = config.now - 90 * 86400;
    policy.expiration = config.now - 30 * 86400;
  } else {
    policy.inception = config.now - 86400;
    policy.expiration = config.now + 30 * 86400;
  }
  return policy;
}

// Largest-remainder scaling: a plain llround() would bias totals when the
// long tail splits a quantity into hundreds of equal shares (e.g. 5.5
// zones per operator rounding to 6 everywhere). Carrying the fractional
// remainder across operators keeps every global total exact to ±1.
struct CarryScaler {
  double carry = 0.0;
  std::uint64_t operator()(std::uint64_t full_count, double scale) {
    double x = static_cast<double>(full_count) * scale + carry;
    double floored = std::floor(x);
    carry = x - floored;
    return static_cast<std::uint64_t>(floored);
  }
};

}  // namespace

EcosystemPlan make_ecosystem_plan(const EcosystemConfig& config) {
  EcosystemPlan plan;

  std::vector<OperatorProfile> profiles = config.operators;
  if (profiles.empty()) {
    profiles = paper_operator_profiles();
    auto tail = long_tail_profiles(profiles, config.targets,
                                   config.long_tail_operators);
    profiles.insert(profiles.end(), tail.begin(), tail.end());
  }

  const std::vector<std::string> tld_labels = simulated_tlds();
  auto has_tld = [&](const std::string& label) {
    return std::find(tld_labels.begin(), tld_labels.end(), label) !=
           tld_labels.end();
  };

  plan.operators.reserve(profiles.size());
  std::map<std::string, int> by_name;
  for (const auto& profile : profiles) {
    OperatorPlan op;
    op.profile = profile;
    op.slug = slug_of(profile.name);
    op.tld = has_tld(profile.customer_tld) ? profile.customer_tld : "com";
    by_name.emplace(profile.name, static_cast<int>(plan.operators.size()));
    plan.operators.push_back(std::move(op));
  }

  // Multi-op partners: pair each operator with deSEC when present, else the
  // first other operator (mirrors the legacy runtime-pointer selection).
  {
    auto desec_it = by_name.find("deSEC");
    int desec = desec_it == by_name.end() ? -1 : desec_it->second;
    for (int k = 0; k < static_cast<int>(plan.operators.size()); ++k) {
      OperatorPlan& op = plan.operators[static_cast<std::size_t>(k)];
      op.partner = (desec >= 0 && desec != k) ? desec : -1;
      if (op.partner < 0 && plan.operators.size() > 1) {
        op.partner = k == 0 ? 1 : 0;
      }
    }
  }

  // ---- pathology quotas ----------------------------------------------------
  if (config.inject_pathologies) {
    const PathologySpec& spec = config.pathologies;
    auto assign = [&](const char* op_name,
                      std::uint64_t OperatorPlan::* member,
                      std::uint64_t count) {
      auto it = by_name.find(op_name);
      if (it == by_name.end() || count == 0) return;
      plan.operators[static_cast<std::size_t>(it->second)].*member =
          scaled_pathology(config, count);
    };
    assign("CanalDominios", &OperatorPlan::q_unsigned_cds,
           spec.unsigned_with_cds_canal);
    // Not on LongTail1/2: those are legacy-FORMERR operators whose servers
    // cannot answer CDS queries, which would make the records unobservable.
    assign("LongTail51", &OperatorPlan::q_unsigned_cds,
           spec.unsigned_with_cds_other);
    assign("LongTail51", &OperatorPlan::q_unsigned_cds_delete,
           spec.unsigned_with_cds_delete);
    assign("GoogleDomains", &OperatorPlan::q_signed_cds_delete,
           spec.signed_with_cds_delete);
    // The leading tail operators carry the legacy-FORMERR flag (their
    // servers do not answer CDS queries at all), so CDS-visible pathologies
    // live on later, modern tail operators.
    assign("LongTail50", &OperatorPlan::q_island_inconsistent_multi,
           spec.island_cds_inconsistent_multi_op);
    // Same-operator inconsistency must live on a non-pooled operator: the
    // Cloudflare sampling policy (§3) would collapse a pool to 2 endpoints
    // and hide the divergence, exactly as the paper discusses.
    assign("GoDaddy", &OperatorPlan::q_island_inconsistent_same,
           spec.island_cds_inconsistent_other);
    assign("Cloudflare", &OperatorPlan::q_island_cds_no_match,
           spec.island_cds_no_matching_dnskey);
    assign("GoogleDomains", &OperatorPlan::q_signed_cds_no_match,
           spec.signed_cds_no_matching_dnskey);
    assign("Cloudflare", &OperatorPlan::q_cds_bad_rrsig,
           spec.cds_invalid_rrsig);
    assign("Cloudflare", &OperatorPlan::q_signal_missing_ns,
           spec.signal_missing_one_ns_cloudflare);
    assign("deSEC", &OperatorPlan::q_signal_missing_ns,
           spec.signal_missing_one_ns_desec);
    assign("Glauca", &OperatorPlan::q_signal_missing_ns,
           spec.signal_missing_one_ns_glauca);
    assign("Cloudflare", &OperatorPlan::q_signal_missing_ns_multi,
           spec.signal_missing_one_ns_multi_op);
    assign("Cloudflare", &OperatorPlan::q_signal_cds_inconsistent,
           spec.signal_cds_inconsistent);
    assign("Cloudflare", &OperatorPlan::q_signal_cds_bad_rrsig,
           spec.signal_cds_bad_rrsig);
    assign("Glauca", &OperatorPlan::q_signal_zone_cut, spec.signal_zone_cut);
  }
  for (OperatorPlan& op : plan.operators) {
    op.q_signal_on_invalid =
        scaled_pathology(config, op.profile.signal_on_invalid);
    op.q_signal_on_unsigned =
        scaled_pathology(config, op.profile.signal_on_unsigned);
    op.q_csync = scaled_pathology(config, op.profile.csync_migrations);
    op.q_roll_mid_zsk = scaled_pathology(config, op.profile.roll_mid_zsk);
    op.q_roll_mid_ksk = scaled_pathology(config, op.profile.roll_mid_ksk);
    op.q_roll_premature_ds =
        scaled_pathology(config, op.profile.roll_premature_ds);
    op.q_roll_stale_rrsig =
        scaled_pathology(config, op.profile.roll_stale_rrsig);
    op.q_roll_cds_unpublished =
        scaled_pathology(config, op.profile.roll_cds_unpublished);
    op.q_roll_algorithm_broken =
        scaled_pathology(config, op.profile.roll_algorithm_broken);
  }

  // ---- population arithmetic ----------------------------------------------
  CarryScaler scale_domains, scale_secured, scale_invalid, scale_islands,
      scale_cds;
  // Duplicate guard: cumulative generated count per (slug, tld) key. An
  // operator whose key was seen before skips the already-generated prefix —
  // exactly the names the legacy truth-map collision check suppressed.
  std::map<std::pair<std::string, std::string>, std::uint64_t> slug_seen;
  std::uint64_t apex_counter = 1;

  for (OperatorPlan& op : plan.operators) {
    const OperatorProfile& profile = op.profile;
    const std::uint64_t need_island =
        op.q_island_inconsistent_multi + op.q_island_inconsistent_same +
        op.q_island_cds_no_match + op.q_cds_bad_rrsig + op.q_signal_missing_ns +
        op.q_signal_missing_ns_multi + op.q_signal_zone_cut +
        op.q_signal_cds_inconsistent + op.q_signal_cds_bad_rrsig +
        (profile.publishes_signal ? 1 : 0);  // headroom for a correct signal
    // Rollover snapshots occupy the tail of the secured range; growing the
    // floor by their sum keeps them disjoint from the prefix chains.
    const std::uint64_t need_rollover =
        op.q_roll_mid_zsk + op.q_roll_mid_ksk + op.q_roll_premature_ds +
        op.q_roll_stale_rrsig + op.q_roll_cds_unpublished +
        op.q_roll_algorithm_broken;
    const std::uint64_t need_secured = op.q_signed_cds_delete +
                                       op.q_signed_cds_no_match + op.q_csync +
                                       need_rollover;
    const std::uint64_t need_unsigned =
        op.q_unsigned_cds + op.q_unsigned_cds_delete + op.q_signal_on_unsigned;
    const std::uint64_t need_invalid = op.q_signal_on_invalid;

    // Delete-sentinel islands wanted by the profile (floor 1 when the
    // profile calls for any).
    std::uint64_t delete_want = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(scaled(config, profile.islands)) *
        profile.island_cds_fraction * profile.island_cds_delete_fraction));
    if (delete_want == 0 && profile.island_cds_fraction > 0 &&
        profile.island_cds_delete_fraction > 0 && profile.islands > 0) {
      delete_want = 1;
    }

    std::uint64_t n_secured =
        std::max(scale_secured(profile.secured, config.scale), need_secured);
    std::uint64_t n_invalid =
        std::max(scale_invalid(profile.invalid, config.scale), need_invalid);
    std::uint64_t n_island =
        std::max(scale_islands(profile.islands, config.scale),
                 need_island + delete_want);
    const std::uint64_t n =
        std::max(scale_domains(profile.domains, config.scale),
                 n_secured + n_invalid + n_island + need_unsigned);
    if (n == 0) continue;  // op.n stays 0; no zones, no carry for scale_cds
    n_secured = std::min(n, n_secured);
    n_invalid = std::min(n - n_secured, n_invalid);
    n_island = std::min(n - n_secured - n_invalid, n_island);

    const std::uint64_t cds_target =
        scale_cds(profile.cds_domains, config.scale);
    const std::uint64_t cds_secured =
        std::min(n_secured, std::max(cds_target, need_secured));
    // Islands with CDS: enough for the configured fraction AND the quotas
    // plus the delete sentinels (quota'd pathologies apply to non-delete
    // islands, which are assigned after the delete block).
    const std::uint64_t island_cds_fraction_count =
        static_cast<std::uint64_t>(std::llround(
            static_cast<double>(n_island) * profile.island_cds_fraction));
    const std::uint64_t island_cds =
        std::min(n_island, std::max(island_cds_fraction_count,
                                    need_island + delete_want));
    const std::uint64_t island_cds_delete =
        std::min(delete_want, island_cds > need_island
                                  ? island_cds - need_island
                                  : std::uint64_t{0});

    op.n = n;
    op.n_secured = n_secured;
    op.n_invalid = n_invalid;
    op.n_island = n_island;
    op.cds_secured = cds_secured;
    op.island_cds = island_cds;
    op.island_cds_delete = island_cds_delete;

    auto& seen = slug_seen[{op.slug, op.tld}];
    op.skip_below = std::min(seen, n);
    seen = std::max(seen, n);

    op.apex_base = apex_counter;
    apex_counter += n - op.skip_below;
    plan.zones_total += n - op.skip_below;

    // Eager infrastructure: the same-operator divergence server is needed
    // whenever a cds_inconsistent zone cannot go to a partner; the third NS
    // host whenever a CSYNC migration exists.
    op.has_alt_server =
        op.q_island_inconsistent_same > 0 ||
        (op.q_island_inconsistent_multi > 0 && op.partner < 0);
    op.has_csync_host = op.q_csync > 0;
  }
  return plan;
}

ZoneTruth planned_truth(const OperatorPlan& op, std::uint64_t i) {
  ZoneTruth truth;
  truth.operator_name = op.profile.name;
  truth.legacy_servers = op.profile.legacy_formerr;

  const std::uint64_t sec_hi = op.n_secured;
  const std::uint64_t inv_hi = sec_hi + op.n_invalid;
  const std::uint64_t isl_hi = inv_hi + op.n_island;
  const std::uint64_t S = op.skip_below;

  if (i < sec_hi) {
    truth.state = ZoneState::kSecured;
  } else if (i < inv_hi) {
    truth.state = ZoneState::kInvalid;
  } else if (i < isl_hi) {
    truth.state = ZoneState::kIsland;
  } else {
    truth.state = ZoneState::kUnsigned;
  }

  // Generated-ordinal within the island range (the legacy island_index):
  // duplicates are skipped before counting, so the ordinal starts at the
  // later of the range start and the skip prefix.
  std::uint64_t gib = 0;
  if (truth.state == ZoneState::kIsland) {
    gib = i - std::max(inv_hi, S);
  }

  // CDS assignment.
  if (truth.state == ZoneState::kSecured && i < op.cds_secured) {
    truth.cds = true;
  } else if (truth.state == ZoneState::kIsland && gib < op.island_cds) {
    truth.cds = true;
    truth.cds_delete = gib < op.island_cds_delete;
  }

  // Quota chains. Each legacy take() chain consumed quotas sequentially over
  // a contiguous subsequence of generated zones, so membership reduces to
  // comparing this zone's ordinal in that subsequence against prefix sums of
  // the quotas.
  if (truth.state == ZoneState::kUnsigned) {
    const std::uint64_t u = i - std::max(isl_hi, S);
    if (u < op.q_unsigned_cds) {
      truth.cds = true;
    } else if (u < op.q_unsigned_cds + op.q_unsigned_cds_delete) {
      truth.cds = true;
      truth.cds_delete = true;
    }
  }
  if (truth.state == ZoneState::kSecured && truth.cds) {
    // Generated secured-CDS zones are exactly the indices [S, cds_secured).
    const std::uint64_t s = i - S;
    if (s < op.q_signed_cds_delete) {
      truth.cds_delete = true;
    } else if (s < op.q_signed_cds_delete + op.q_signed_cds_no_match) {
      truth.cds_no_match = true;
    }
  }
  if (truth.state == ZoneState::kSecured && !truth.cds_delete &&
      !truth.cds_no_match) {
    // CSYNC chain: runs over generated secured zones not consumed by the
    // delete/no-match chain above (which tags a contiguous prefix).
    const std::uint64_t D = op.q_signed_cds_delete + op.q_signed_cds_no_match;
    const std::uint64_t tagged_total =
        std::min(D, op.cds_secured > S ? op.cds_secured - S : 0);
    const std::uint64_t c = (i - S) - std::min(i - S, tagged_total);
    if (c < op.q_csync) truth.csync = true;
  }
  if (truth.state == ZoneState::kSecured && !truth.cds_delete &&
      !truth.cds_no_match && !truth.csync) {
    // Key-lifecycle snapshots live at the TAIL of the secured range (ordinal
    // counted down from sec_hi), so this chain and the prefix chains above
    // never meet: need_secured in make_ecosystem_plan covers both sums.
    const std::uint64_t t = sec_hi - 1 - i;
    std::uint64_t hi = op.q_roll_mid_zsk;
    if (t < hi) {
      truth.rollover = kasp::RolloverScenario::kMidZskPrepublish;
    } else if (t < (hi += op.q_roll_mid_ksk)) {
      truth.rollover = kasp::RolloverScenario::kMidKskDoubleDs;
    } else if (t < (hi += op.q_roll_premature_ds)) {
      truth.rollover = kasp::RolloverScenario::kPrematureDs;
    } else if (t < (hi += op.q_roll_stale_rrsig)) {
      truth.rollover = kasp::RolloverScenario::kStaleRrsig;
    } else if (t < (hi += op.q_roll_cds_unpublished)) {
      truth.rollover = kasp::RolloverScenario::kCdsUnpublishedKey;
    } else if (t < (hi += op.q_roll_algorithm_broken)) {
      truth.rollover = kasp::RolloverScenario::kAlgorithmBroken;
    }
    if (truth.rollover == kasp::RolloverScenario::kMidKskDoubleDs ||
        truth.rollover == kasp::RolloverScenario::kPrematureDs ||
        truth.rollover == kasp::RolloverScenario::kCdsUnpublishedKey) {
      truth.cds = true;  // these scenarios publish their own CDS set
    }
  }
  if (truth.state == ZoneState::kIsland && truth.cds && !truth.cds_delete) {
    // Non-delete CDS islands: ordinal k among them (delete islands occupy
    // the first island_cds_delete generated slots).
    const std::uint64_t k = gib - op.island_cds_delete;
    std::uint64_t hi = op.q_island_inconsistent_multi;
    if (k < hi) {
      truth.cds_inconsistent = true;
      truth.multi_operator = true;
    } else if (k < (hi += op.q_island_inconsistent_same)) {
      truth.cds_inconsistent = true;
    } else if (k < (hi += op.q_island_cds_no_match)) {
      truth.cds_no_match = true;
    } else if (k < (hi += op.q_cds_bad_rrsig)) {
      truth.cds_bad_rrsig = true;
    }
  }

  // Signal publication policy.
  if (op.profile.publishes_signal) {
    bool qualifies = false;
    switch (truth.state) {
      case ZoneState::kSecured:
        qualifies = true;
        break;
      case ZoneState::kIsland:
        qualifies = truth.cds && (!truth.cds_delete ||
                                  op.profile.signal_includes_delete);
        break;
      case ZoneState::kInvalid:
        qualifies = (i - std::max(sec_hi, S)) < op.q_signal_on_invalid;
        break;
      case ZoneState::kUnsigned:
        qualifies = (i - std::max(isl_hi, S)) < op.q_signal_on_unsigned;
        break;
    }
    if (qualifies) {
      truth.signal = true;
      if (truth.state == ZoneState::kIsland && truth.cds &&
          !truth.cds_delete) {
        // Signal-pathology chain: same qualifying subsequence as the island
        // chain above, consumed independently.
        const std::uint64_t k = gib - op.island_cds_delete;
        std::uint64_t hi = op.q_signal_missing_ns;
        if (k < hi) {
          truth.signal_missing_one_ns = true;
        } else if (k < (hi += op.q_signal_missing_ns_multi)) {
          truth.signal_missing_one_ns = true;
          truth.multi_operator = true;
        } else if (k < (hi += op.q_signal_zone_cut)) {
          truth.signal_zone_cut = true;
        } else if (k < (hi += op.q_signal_cds_inconsistent)) {
          truth.signal_stale_one_ns = true;
        } else if (k < (hi += op.q_signal_cds_bad_rrsig)) {
          truth.cds_bad_rrsig = true;
        }
      }
    }
  }
  return truth;
}

// Mutable per-operator state during a shard build.
namespace {
struct OperatorRuntime {
  std::shared_ptr<server::AuthServer> server;
  std::shared_ptr<server::AuthServer> alt_server;  // same-operator divergence
  std::vector<dns::Name> ns_hosts;  // primary NS hostnames (one per domain slot)
  dns::Name alt_ns_host;
  // Operator zones keyed by canonical origin; signed at the end (signal RRs
  // accumulate during population generation).
  std::map<std::string, std::shared_ptr<dns::Zone>> operator_zones;
  std::map<std::string, dnssec::ZoneKeys> operator_zone_keys;
  Rng rng{0};
  // Third nameserver host, present when the plan calls for CSYNC migrations.
  dns::Name csync_ns_host;
};
}  // namespace

Ecosystem build_shard(net::SimNetwork& network, const EcosystemConfig& config,
                      const EcosystemPlan& plan, std::size_t shard_index,
                      std::size_t shard_count) {
  Ecosystem eco;
  eco.now = config.now;
  Rng rng(config.seed);
  std::uint32_t v4_counter = 100;
  std::uint64_t v6_counter = 100;
  auto next_v4 = [&] { return net::IpAddress::synthetic_v4(v4_counter++); };
  auto next_v6 = [&] { return net::IpAddress::synthetic_v6(v6_counter++); };

  // ---- root and TLD infrastructure ---------------------------------------
  // Identical in every shard world: the draws below replay the same RNG and
  // address-counter sequence regardless of shard_index.
  Rng infra_rng = rng.fork("infra");
  auto root_keys = dnssec::ZoneKeys::generate(infra_rng);
  auto root_zone = std::make_shared<dns::Zone>(dns::Name::root());
  auto root_server = std::make_shared<server::AuthServer>(
      server::ServerConfig{.id = "root"},
      infra_rng.next_u64());
  std::vector<net::IpAddress> root_addresses = {next_v4(), next_v4()};
  dns::Name root_ns1 = name_of("a.root-servers.net.");
  dns::Name root_ns2 = name_of("b.root-servers.net.");
  (void)root_zone->add(make_rr(dns::Name::root(), dns::RRType::kSOA, 86400,
                               dns::SoaRdata{root_ns1, name_of("nstld.root."),
                                             1, 1800, 900, 604800, 86400}));
  (void)root_zone->add(make_rr(dns::Name::root(), dns::RRType::kNS, 518400,
                               dns::NsRdata{root_ns1}));
  (void)root_zone->add(make_rr(dns::Name::root(), dns::RRType::kNS, 518400,
                               dns::NsRdata{root_ns2}));

  struct TldRuntime {
    std::shared_ptr<dns::Zone> zone;
    dnssec::ZoneKeys keys;
    std::shared_ptr<server::AuthServer> server;
    std::vector<net::IpAddress> addresses;
  };
  std::map<std::string, TldRuntime> tlds;
  for (const std::string& tld_label : simulated_tlds()) {
    dns::Name tld = name_of(tld_label + ".");
    server::ServerConfig tld_config;
    tld_config.id = "nic." + tld_label;
    // AXFR access mirrors the paper's §3 sources: open ccTLDs plus the two
    // private arrangements; gTLD lists came from CZDS, not transfers.
    for (const char* open_axfr : {"ch", "li", "se", "nu", "ee", "uk", "sk"}) {
      if (tld_label == open_axfr) tld_config.allow_axfr = true;
    }
    TldRuntime runtime{std::make_shared<dns::Zone>(tld),
                       dnssec::ZoneKeys::generate(infra_rng),
                       std::make_shared<server::AuthServer>(
                           tld_config, infra_rng.next_u64()),
                       {next_v4(), next_v6()}};
    dns::Name tld_ns1 = name_of("a.nic." + tld_label + ".");
    dns::Name tld_ns2 = name_of("b.nic." + tld_label + ".");
    (void)runtime.zone->add(make_rr(
        tld, dns::RRType::kSOA, 86400,
        dns::SoaRdata{tld_ns1, name_of("hostmaster.nic." + tld_label + "."),
                      1, 1800, 900, 604800, 3600}));
    (void)runtime.zone->add(
        make_rr(tld, dns::RRType::kNS, 86400, dns::NsRdata{tld_ns1}));
    (void)runtime.zone->add(
        make_rr(tld, dns::RRType::kNS, 86400, dns::NsRdata{tld_ns2}));
    (void)runtime.zone->add(make_rr(tld_ns1, dns::RRType::kA, 86400,
                                    a_of(runtime.addresses[0])));
    (void)runtime.zone->add(make_rr(tld_ns2, dns::RRType::kAAAA, 86400,
                                    aaaa_of(runtime.addresses[1])));

    // Delegate in the root, with glue and DS.
    (void)root_zone->add(
        make_rr(tld, dns::RRType::kNS, 172800, dns::NsRdata{tld_ns1}));
    (void)root_zone->add(
        make_rr(tld, dns::RRType::kNS, 172800, dns::NsRdata{tld_ns2}));
    (void)root_zone->add(make_rr(tld_ns1, dns::RRType::kA, 172800,
                                 a_of(runtime.addresses[0])));
    (void)root_zone->add(make_rr(tld_ns2, dns::RRType::kAAAA, 172800,
                                 aaaa_of(runtime.addresses[1])));
    auto tld_ds =
        dnssec::make_ds(tld, dnssec::make_dnskey(runtime.keys.ksk), 2);
    (void)root_zone->add(make_rr(tld, dns::RRType::kDS, 86400,
                                 dns::Rdata{std::move(tld_ds).take()}));

    tlds.emplace(tld_label, std::move(runtime));
  }

  // ---- operator infrastructure --------------------------------------------
  std::deque<OperatorRuntime> operators;
  for (const OperatorPlan& op_plan : plan.operators) {
    const OperatorProfile& profile = op_plan.profile;
    operators.emplace_back();
    OperatorRuntime& op = operators.back();
    op.rng = rng.fork("op:" + profile.name);

    server::ServerConfig server_config;
    server_config.id = profile.name;
    if (profile.legacy_formerr) {
      server_config.behavior = server::ServerBehavior::kLegacyFormerr;
    }
    if (profile.name == "ParkingNamefind") {
      server_config.behavior = server::ServerBehavior::kParkingWildcard;
      server_config.parking_ns = {name_of("ns1.namefind.com."),
                                  name_of("ns2.namefind.com.")};
    }
    op.server = std::make_shared<server::AuthServer>(server_config,
                                                     op.rng.next_u64());
    if (profile.name == "ParkingNamefind") {
      // The wildcard answer points every A query at 203.0.113.1; bind the
      // parking server there too so hosts "resolved" through it stay inside
      // the parking web (as Afternic's do).
      op.server->attach(network, net::IpAddress::v4({203, 0, 113, 1}));
    }

    // NS hostnames: ns1.<d0>, ns2.<d1 or d0>.
    const auto& domains = profile.ns_domains;
    op.ns_hosts.push_back(name_of("ns1." + domains[0] + "."));
    op.ns_hosts.push_back(
        name_of("ns2." + (domains.size() > 1 ? domains[1] : domains[0]) + "."));

    // Operator zones: one per registrable domain of the NS hostnames.
    for (const auto& host : op.ns_hosts) {
      dns::Name apex = host.suffix(2);
      const std::string key = apex.canonical_text();
      if (op.operator_zones.count(key) > 0) continue;
      auto zone = std::make_shared<dns::Zone>(apex);
      (void)zone->add(make_rr(apex, dns::RRType::kSOA, 3600,
                              dns::SoaRdata{op.ns_hosts[0],
                                            name_of("hostmaster." +
                                                    apex.to_text()),
                                            1, 7200, 3600, 1209600, 300}));
      for (const auto& ns : op.ns_hosts) {
        (void)zone->add(make_rr(apex, dns::RRType::kNS, 3600,
                                dns::NsRdata{ns}));
      }
      op.operator_zones.emplace(key, zone);
      op.operator_zone_keys.emplace(key, dnssec::ZoneKeys::generate(op.rng));
    }

    // Addresses per NS host, bound to the operator's server; host records go
    // into the operator zone that contains the host.
    for (const auto& host : op.ns_hosts) {
      dns::Name apex = host.suffix(2);
      auto zone = op.operator_zones[apex.canonical_text()];
      for (int i = 0; i < profile.addresses_per_ns; ++i) {
        net::IpAddress v4 = next_v4();
        net::IpAddress v6 = next_v6();
        op.server->attach(network, v4);
        op.server->attach(network, v6);
        (void)zone->add(make_rr(host, dns::RRType::kA, 3600, a_of(v4)));
        (void)zone->add(make_rr(host, dns::RRType::kAAAA, 3600, aaaa_of(v6)));
      }
    }

    // Eager divergence/migration infrastructure (decided by the plan, never
    // by which zones this shard materializes).
    if (op_plan.has_alt_server) {
      server::ServerConfig alt_config;
      alt_config.id = profile.name + "-alt";
      op.alt_server = std::make_shared<server::AuthServer>(
          alt_config, op.rng.next_u64());
      op.alt_ns_host = name_of("ns-alt." + profile.ns_domains[0] + ".");
      net::IpAddress alt_address = next_v4();
      op.alt_server->attach(network, alt_address);
      dns::Name apex = op.alt_ns_host.suffix(2);
      auto zone_it = op.operator_zones.find(apex.canonical_text());
      if (zone_it != op.operator_zones.end()) {
        (void)zone_it->second->add(make_rr(op.alt_ns_host, dns::RRType::kA,
                                           3600, a_of(alt_address)));
      }
    }
    if (op_plan.has_csync_host) {
      // CSYNC migrations: the TLD delegation keeps the old NS pair while the
      // child apex already lists the replacement host (ns3).
      op.csync_ns_host = name_of("ns3." + profile.ns_domains[0] + ".");
      net::IpAddress csync_address = next_v4();
      op.server->attach(network, csync_address);
      dns::Name apex = op.csync_ns_host.suffix(2);
      auto zone_it = op.operator_zones.find(apex.canonical_text());
      if (zone_it != op.operator_zones.end()) {
        (void)zone_it->second->add(make_rr(op.csync_ns_host, dns::RRType::kA,
                                           3600, a_of(csync_address)));
      }
    }

    // Delegate operator zones in their TLDs, with glue (in-bailiwick NSes).
    for (auto& [key, zone] : op.operator_zones) {
      const dns::Name& apex = zone->origin();
      const std::string tld_label(apex.labels().back());
      auto tld_it = tlds.find(tld_label);
      if (tld_it == tlds.end()) continue;  // profile error; skip
      dns::Zone& tld_zone = *tld_it->second.zone;
      for (const auto& ns : op.ns_hosts) {
        (void)tld_zone.add(make_rr(apex, dns::RRType::kNS, 86400,
                                   dns::NsRdata{ns}));
        if (ns.is_under(apex)) {
          if (const auto* a = zone->find_rrset(ns, dns::RRType::kA)) {
            for (const auto& rr : a->to_records()) (void)tld_zone.add(rr);
          }
          if (const auto* aaaa = zone->find_rrset(ns, dns::RRType::kAAAA)) {
            for (const auto& rr : aaaa->to_records()) (void)tld_zone.add(rr);
          }
        }
      }
      // DS for the operator zone (signal chains need it) — added now from
      // the pre-generated keys; the zone is signed with them later.
      auto ds = dnssec::make_ds(
          apex, dnssec::make_dnskey(op.operator_zone_keys.at(key).ksk), 2);
      (void)tld_zone.add(make_rr(apex, dns::RRType::kDS, 86400,
                                 dns::Rdata{std::move(ds).take()}));
    }

    eco.servers.push_back(op.server);
    if (op.alt_server != nullptr) eco.servers.push_back(op.alt_server);
    for (const auto& d : profile.ns_domains) {
      eco.ns_domain_to_operator[ascii_lower(d)] = profile.name;
    }
  }

  // Parking target for the zone-cut pathology: desc.io -> parking servers.
  bool have_parking = false;
  for (const OperatorPlan& op_plan : plan.operators) {
    if (op_plan.profile.name == "ParkingNamefind") have_parking = true;
  }
  if (config.inject_pathologies && have_parking) {
    auto io_it = tlds.find("io");
    if (io_it != tlds.end()) {
      dns::Name desc = name_of("desc.io.");
      dns::Name parking_ns = name_of("ns1.namefind.com.");
      (void)io_it->second.zone->add(
          make_rr(desc, dns::RRType::kNS, 86400, dns::NsRdata{parking_ns}));
      // ns1.namefind.com has glue via ParkingNamefind's operator zone under
      // .com (set up like every operator above). Nothing else needed: the
      // parking server answers every name under desc.io identically.
    }
  }

  // ---- customer zone population -------------------------------------------
  for (std::size_t op_index = 0; op_index < plan.operators.size();
       ++op_index) {
    const OperatorPlan& op_plan = plan.operators[op_index];
    const OperatorProfile& profile = op_plan.profile;
    if (op_plan.n == 0) continue;
    OperatorRuntime& op = operators[op_index];
    OperatorRuntime* plan_partner =
        op_plan.partner >= 0
            ? &operators[static_cast<std::size_t>(op_plan.partner)]
            : nullptr;

    auto tld_it = tlds.find(op_plan.tld);
    if (tld_it == tlds.end()) continue;  // plan resolves to an existing TLD
    dns::Zone& tld_zone = *tld_it->second.zone;

    for (std::uint64_t i = op_plan.skip_below; i < op_plan.n; ++i) {
      // The hyphen separates slug from index: without it, slug "longtail1" +
      // index 60 would collide with slug "longtail16" + index 0. The name
      // below is already canonical (lowercase LDH), so the shard test needs
      // no dns::Name construction — skipped zones cost a hash, not memory.
      std::string canonical =
          op_plan.slug + "-" + std::to_string(i) + "." + op_plan.tld + ".";
      if (shard_count > 1 &&
          shard_of_canonical(canonical, shard_count) != shard_index) {
        continue;
      }
      dns::Name zone_name = name_of(canonical);
      ZoneTruth truth = planned_truth(op_plan, i);
      // All randomness in this zone's materialization comes from a fork
      // keyed by the zone name: byte-identical no matter which shard world
      // builds it (Rng::fork ignores stream position).
      Rng zrng = op.rng.fork("zone:" + canonical);

      // ---- materialize the zone ----
      OperatorRuntime* partner = truth.multi_operator ? plan_partner : nullptr;
      if (partner == nullptr) truth.multi_operator = false;
      if (truth.multi_operator) {
        truth.secondary_operator =
            plan.operators[static_cast<std::size_t>(op_plan.partner)]
                .profile.name;
      }

      std::vector<dns::Name> ns_set;
      ns_set.push_back(op.ns_hosts[0]);
      if (truth.signal_zone_cut) {
        ns_set.push_back(name_of("ns1.desc.io."));  // the parking typo
      } else if (truth.multi_operator) {
        ns_set.push_back(partner->ns_hosts[0]);
      } else if (truth.cds_inconsistent) {
        // Same-operator divergence via the operator's alias nameserver.
        ns_set.push_back(op.alt_ns_host);
      } else if (truth.csync) {
        ns_set.push_back(op.csync_ns_host);
      } else {
        ns_set.push_back(op.ns_hosts[1]);
      }

      // The delegation NS set the TLD carries; for CSYNC migrations it lags
      // behind the child's apex NS set.
      std::vector<dns::Name> delegation_ns = ns_set;
      if (truth.csync) delegation_ns = {op.ns_hosts[0], op.ns_hosts[1]};

      auto zone = std::make_shared<dns::Zone>(zone_name);
      (void)zone->add(make_rr(
          zone_name, dns::RRType::kSOA, 3600,
          dns::SoaRdata{ns_set[0], name_of("hostmaster." + zone_name.to_text()),
                        1, 7200, 3600, 1209600, 300}));
      for (const auto& ns : ns_set) {
        (void)zone->add(
            make_rr(zone_name, dns::RRType::kNS, 3600, dns::NsRdata{ns}));
      }
      const std::uint64_t apex_value =
          op_plan.apex_base + (i - op_plan.skip_below);
      (void)zone->add(make_rr(
          zone_name, dns::RRType::kA, 300,
          dns::ARdata{{198, 18, static_cast<std::uint8_t>(apex_value >> 8),
                       static_cast<std::uint8_t>(apex_value)}}));
      if (truth.csync) {
        // "Synchronize NS immediately" (RFC 7477 §2.1.1.1 flags).
        (void)zone->add(make_rr(
            zone_name, dns::RRType::kCSYNC, 300,
            dns::CsyncRdata{1, 0x0001,
                            dns::TypeBitmap({dns::RRType::kNS})}));
      }

      const bool signed_zone = truth.state == ZoneState::kSecured ||
                               truth.state == ZoneState::kIsland ||
                               (truth.state == ZoneState::kInvalid &&
                                profile.secured > 0);
      // Key-lifecycle snapshot material: keys (with extra published /
      // co-signing members), scenario CDS, and the parent DS override.
      // materialize_rollover's first draw is ZoneKeys::generate(zrng), the
      // same first draw plain zones make, so zone bytes stay a pure
      // function of (seed, name) either way.
      std::optional<kasp::RolloverMaterial> rollover;
      if (truth.rollover != kasp::RolloverScenario::kNone) {
        auto material =
            kasp::materialize_rollover(truth.rollover, zone_name, zrng);
        if (material.ok()) rollover = std::move(material).take();
      }

      std::optional<dnssec::ZoneKeys> keys;
      if (signed_zone) {
        if (rollover.has_value()) {
          keys = std::move(rollover->keys);
        } else {
          keys = dnssec::ZoneKeys::generate(zrng);
        }
      }

      // In-zone CDS/CDNSKEY.
      std::vector<dns::Rdata> cds_rdatas;
      std::vector<dns::Rdata> cdnskey_rdatas;
      if (rollover.has_value() && !rollover->cds.empty()) {
        for (const auto& cds : rollover->cds) {
          cds_rdatas.push_back(dns::Rdata{cds});
        }
        for (const auto& key : rollover->cdnskey) {
          cdnskey_rdatas.push_back(dns::Rdata{key});
        }
        for (const auto& rd : cds_rdatas) {
          (void)zone->add(make_rr(zone_name, dns::RRType::kCDS, 300, rd));
        }
        for (const auto& rd : cdnskey_rdatas) {
          (void)zone->add(make_rr(zone_name, dns::RRType::kCDNSKEY, 300, rd));
        }
      } else if (truth.cds) {
        if (truth.cds_delete) {
          cds_rdatas.push_back(dns::Rdata{dnssec::cds_delete_sentinel()});
          cdnskey_rdatas.push_back(
              dns::Rdata{dnssec::cdnskey_delete_sentinel()});
        } else if (truth.cds_no_match || !signed_zone) {
          // CDS referencing a key that is not (or cannot be) in the zone.
          auto stray = dnssec::ZoneKeys::generate(zrng);
          auto records =
              dnssec::make_child_sync_records(zone_name, stray.ksk).take();
          for (auto& cds : records.cds) cds_rdatas.push_back(dns::Rdata{cds});
          for (auto& key : records.cdnskey) {
            cdnskey_rdatas.push_back(dns::Rdata{key});
          }
        } else {
          auto records =
              dnssec::make_child_sync_records(zone_name, keys->ksk).take();
          for (auto& cds : records.cds) cds_rdatas.push_back(dns::Rdata{cds});
          for (auto& key : records.cdnskey) {
            cdnskey_rdatas.push_back(dns::Rdata{key});
          }
        }
        for (const auto& rd : cds_rdatas) {
          (void)zone->add(make_rr(zone_name, dns::RRType::kCDS, 300, rd));
        }
        for (const auto& rd : cdnskey_rdatas) {
          (void)zone->add(make_rr(zone_name, dns::RRType::kCDNSKEY, 300, rd));
        }
      }

      if (signed_zone) {
        const bool expired = truth.state == ZoneState::kInvalid;
        dnssec::SigningPolicy policy = zone_policy(config, expired);
        // ~40 % of signed zones use NSEC3 (hashed denial), the rest NSEC —
        // both widely deployed; the scanner must handle either.
        if (i % 5 < 2) policy.denial = dnssec::DenialMode::kNsec3;
        (void)dnssec::sign_zone(*zone, *keys, policy);
        eco.zones_signed++;
        if (rollover.has_value() && rollover->stale_zsk.has_value()) {
          // Re-sign the data RRsets with the retired (absent) ZSK: the
          // DNSKEY RRset and its KSK signature stay intact, so the breakage
          // is a key mismatch below the apex, never an expiry.
          (void)kasp::apply_stale_rrsigs(*zone, *rollover->stale_zsk, policy);
        }
        if (truth.cds_bad_rrsig) {
          // Corrupt the RRSIG over the CDS set.
          auto sigs = zone->signatures_covering(zone_name, dns::RRType::kCDS);
          zone->remove_signatures(zone_name, dns::RRType::kCDS);
          for (auto sig : sigs) {
            auto& rrsig = std::get<dns::RrsigRdata>(sig.rdata);
            if (!rrsig.signature.empty()) rrsig.signature[7] ^= 0x20;
            (void)zone->add(sig);
          }
        }
      }

      // Partner copy for multi-operator / divergent setups.
      if (truth.cds_inconsistent) {
        auto divergent = std::make_shared<dns::Zone>(*zone);
        if (truth.cds) {
          // The other operator serves stale CDS (pre-rollover key).
          divergent->remove_rrset(zone_name, dns::RRType::kCDS);
          divergent->remove_rrset(zone_name, dns::RRType::kCDNSKEY);
          auto stale = dnssec::ZoneKeys::generate(zrng);
          auto records =
              dnssec::make_child_sync_records(zone_name, stale.ksk).take();
          for (const auto& cds : records.cds) {
            (void)divergent->add(
                make_rr(zone_name, dns::RRType::kCDS, 300, dns::Rdata{cds}));
          }
          for (const auto& key : records.cdnskey) {
            (void)divergent->add(make_rr(zone_name, dns::RRType::kCDNSKEY,
                                         300, dns::Rdata{key}));
          }
          if (signed_zone) {
            const dnssec::SigningPolicy policy = zone_policy(config);
            dns::RRset cds_set =
                *divergent->find_rrset(zone_name, dns::RRType::kCDS);
            divergent->remove_signatures(zone_name, dns::RRType::kCDS);
            (void)divergent->add(
                dnssec::sign_rrset(cds_set, keys->zsk, zone_name, policy));
            dns::RRset cdnskey_set =
                *divergent->find_rrset(zone_name, dns::RRType::kCDNSKEY);
            divergent->remove_signatures(zone_name, dns::RRType::kCDNSKEY);
            (void)divergent->add(dnssec::sign_rrset(cdnskey_set, keys->zsk,
                                                    zone_name, policy));
          }
        }
        if (truth.multi_operator && partner != nullptr) {
          partner->server->add_zone(divergent);
        } else if (op.alt_server != nullptr) {
          op.alt_server->add_zone(divergent);
        }
      } else if (truth.multi_operator && partner != nullptr) {
        partner->server->add_zone(zone);
      }

      op.server->add_zone(zone);

      // TLD delegation (+ DS for secured / invalid).
      for (const auto& ns : delegation_ns) {
        (void)tld_zone.add(
            make_rr(zone_name, dns::RRType::kNS, 86400, dns::NsRdata{ns}));
      }
      if (rollover.has_value() && !rollover->parent_ds.empty()) {
        // Scenario-controlled DS set: double-DS mid-roll, or the premature
        // swap to a not-yet-published successor.
        for (const auto& ds : rollover->parent_ds) {
          (void)tld_zone.add(
              make_rr(zone_name, dns::RRType::kDS, 86400, dns::Rdata{ds}));
        }
      } else if (truth.state == ZoneState::kSecured ||
                 truth.state == ZoneState::kInvalid) {
        dns::DsRdata ds;
        if (signed_zone) {
          ds = dnssec::make_ds(zone_name, dnssec::make_dnskey(keys->ksk), 2)
                   .take();
        } else {
          // Errant DS: no keys below (the no-DNSSEC operators' "invalid").
          ds.key_tag = static_cast<std::uint16_t>(zrng.next_u64());
          ds.algorithm = 15;
          ds.digest_type = 2;
          ds.digest = zrng.bytes(32);
        }
        (void)tld_zone.add(
            make_rr(zone_name, dns::RRType::kDS, 86400, dns::Rdata{ds}));
      }

      // Signal records into the operator zone(s).
      if (truth.signal) {
        std::vector<dns::Rdata> signal_cds = cds_rdatas;
        std::vector<dns::Rdata> signal_cdnskey = cdnskey_rdatas;
        if (signal_cds.empty() && keys.has_value()) {
          auto records =
              dnssec::make_child_sync_records(zone_name, keys->ksk).take();
          for (auto& cds : records.cds) signal_cds.push_back(dns::Rdata{cds});
          for (auto& key : records.cdnskey) {
            signal_cdnskey.push_back(dns::Rdata{key});
          }
        }
        if (signal_cds.empty()) {
          // Unsigned zone with signal RRs (§4.4): synthesize from a stray key.
          auto stray = dnssec::ZoneKeys::generate(zrng);
          auto records =
              dnssec::make_child_sync_records(zone_name, stray.ksk).take();
          for (auto& cds : records.cds) signal_cds.push_back(dns::Rdata{cds});
          for (auto& key : records.cdnskey) {
            signal_cdnskey.push_back(dns::Rdata{key});
          }
        }
        // Stale records for a diverging second signaling tree (§4.4's
        // 32 inconsistent signal zones).
        std::vector<dns::Rdata> stale_cds;
        std::vector<dns::Rdata> stale_cdnskey;
        if (truth.signal_stale_one_ns) {
          auto stale = dnssec::ZoneKeys::generate(zrng);
          auto records =
              dnssec::make_child_sync_records(zone_name, stale.ksk).take();
          for (auto& cds : records.cds) stale_cds.push_back(dns::Rdata{cds});
          for (auto& key : records.cdnskey) {
            stale_cdnskey.push_back(dns::Rdata{key});
          }
        }
        bool first_ns = true;
        for (const auto& ns : op.ns_hosts) {
          const bool skip = truth.signal_missing_one_ns && !first_ns;
          const bool use_stale = truth.signal_stale_one_ns && !first_ns;
          const auto& cds_set = use_stale ? stale_cds : signal_cds;
          const auto& cdnskey_set = use_stale ? stale_cdnskey : signal_cdnskey;
          first_ns = false;
          if (skip) continue;
          auto signal_name_result = [&]() -> Result<dns::Name> {
            std::vector<std::string> labels;
            labels.push_back("_dsboot");
            for (std::string_view l : zone_name.labels()) labels.emplace_back(l);
            labels.push_back("_signal");
            for (std::string_view l : ns.labels()) labels.emplace_back(l);
            return dns::Name::from_labels(std::move(labels));
          }();
          if (!signal_name_result.ok()) continue;
          dns::Name signal_name = std::move(signal_name_result).take();
          dns::Name apex = ns.suffix(2);
          auto zone_it = op.operator_zones.find(apex.canonical_text());
          if (zone_it == op.operator_zones.end()) continue;
          for (const auto& rd : cds_set) {
            (void)zone_it->second->add(
                make_rr(signal_name, dns::RRType::kCDS, 300, rd));
          }
          for (const auto& rd : cdnskey_set) {
            (void)zone_it->second->add(
                make_rr(signal_name, dns::RRType::kCDNSKEY, 300, rd));
          }
        }
      }

      eco.scan_targets.push_back(zone_name);
      eco.truth.emplace(zone_name.canonical_text(), std::move(truth));
      ++eco.zones_total;
    }
  }

  // ---- sign operator zones (signal RRs are now in place) ------------------
  for (auto& op : operators) {
    for (auto& [key, zone] : op.operator_zones) {
      dnssec::SigningPolicy policy = zone_policy(config);
      policy.generate_nsec = false;
      (void)dnssec::sign_zone(*zone, op.operator_zone_keys.at(key), policy);
      op.server->add_zone(zone);
      if (op.alt_server != nullptr) op.alt_server->add_zone(zone);
    }
  }

  // ---- sign TLDs and root, attach infrastructure servers ------------------
  for (auto& [label, tld] : tlds) {
    dnssec::SigningPolicy policy = zone_policy(config);
    policy.generate_nsec = false;
    (void)dnssec::sign_zone(*tld.zone, tld.keys, policy);
    tld.server->add_zone(tld.zone);
    for (const auto& address : tld.addresses) {
      tld.server->attach(network, address);
    }
    eco.servers.push_back(tld.server);
    eco.registries.insert_or_assign(
        label + ".", TldHandle{tld.zone, tld.keys, tld.server, policy});
  }
  {
    dnssec::SigningPolicy policy = zone_policy(config);
    (void)dnssec::sign_zone(*root_zone, root_keys, policy);
    root_server->add_zone(root_zone);
    for (const auto& address : root_addresses) {
      root_server->attach(network, address);
    }
    eco.servers.push_back(root_server);
  }

  eco.hints.servers = root_addresses;
  eco.hints.trust_anchor = {
      dnssec::make_ds(dns::Name::root(), dnssec::make_dnskey(root_keys.ksk), 2)
          .take()};

  // White-label alias from the paper's methodology section: seized.gov NSes
  // are rebranded Cloudflare.
  eco.ns_domain_to_operator["seized.gov"] = "Cloudflare";
  eco.ns_domain_to_operator["namefind.com"] = "ParkingNamefind";

  return eco;
}

}  // namespace dnsboot::ecosystem
