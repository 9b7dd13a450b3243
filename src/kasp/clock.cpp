#include "kasp/clock.hpp"

#include <algorithm>

namespace dnsboot::kasp {

PolicyClock::PolicyClock(net::SimNetwork& network,
                         resolver::QueryEngine& engine,
                         resolver::DelegationResolver& resolver,
                         ecosystem::Ecosystem& eco, KaspOptions options)
    : network_(network),
      engine_(engine),
      resolver_(resolver),
      eco_(eco),
      options_(options),
      rng_(options.seed) {
  policy_.inception = eco_.now - 3600;
  policy_.expiration = eco_.now + 90 * 86400;

  for (const auto& server : eco_.servers) {
    for (const auto& [origin, zone] : server->zones()) {
      zone_server_.emplace(origin, server);
    }
  }

  // Script the schedule: clean unsigned zones a registry covers are eligible,
  // every draw from the per-zone fork.
  const net::SimTime start = options_.start;
  if (options_.horizon <= start + 2 * options_.ds_latency) return;
  const net::SimTime pub_span = (options_.horizon - start) * 2 / 5;
  const net::SimTime settle = net::SimTime{3600} * net::kSecond;

  for (const auto& [canonical, truth] : eco_.truth) {
    if (truth.state != ecosystem::ZoneState::kUnsigned || truth.cds ||
        truth.signal || truth.legacy_servers) {
      continue;
    }
    auto zone_name = dns::Name::from_text(canonical);
    if (!zone_name.ok()) continue;
    const dns::Name zone = std::move(zone_name).take();
    const std::string tld_text = zone.parent().canonical_text();
    if (eco_.registries.find(tld_text) == eco_.registries.end()) continue;
    if (zone_server_.find(canonical) == zone_server_.end()) continue;

    Rng zrng = rng_.fork("kasp:" + canonical);
    if (!zrng.chance(options_.participate_fraction)) continue;

    const KeyPolicy pol = jitter_policy(options_.base_policy, zrng);
    const net::SimTime t_pub =
        start + (pub_span > 0 ? zrng.next_below(pub_span) : 0);
    const net::SimTime t_ds = t_pub + options_.ds_latency +
                              zrng.next_below(options_.ds_latency + 1);
    steps_.push_back({t_pub, KaspStep::Kind::kBootstrapSign, zone});
    steps_.push_back({t_ds, KaspStep::Kind::kBootstrapDs, zone});

    // The activation instant R for the zone's one post-bootstrap scenario:
    // uniformly placed so that every pre-step (R - lead) lands after the DS
    // settles and every post-step (R + tail) lands before the horizon. Zones
    // whose window cannot fit the scenario stay in steady state — a KASP
    // clock never schedules a rollover it cannot complete.
    auto place = [&](net::SimTime lead,
                     net::SimTime tail) -> std::optional<net::SimTime> {
      const net::SimTime earliest = t_ds + settle + lead;
      if (options_.horizon <= earliest + tail) return std::nullopt;
      const net::SimTime span = options_.horizon - tail - earliest;
      return earliest + zrng.next_below(span);
    };

    const double draw = zrng.next_double();
    double lo = 0.0;
    auto in_band = [&](double fraction) {
      const bool hit = draw >= lo && draw < lo + fraction;
      lo += fraction;
      return hit;
    };

    if (in_band(options_.zsk_roll_fraction)) {
      const ZskTiming zt = zsk_timing(pol);
      const net::SimTime lead = zt.publish_before * net::kSecond;
      const net::SimTime tail = zt.remove_after * net::kSecond;
      if (auto r = place(lead, tail)) {
        steps_.push_back({*r - lead, KaspStep::Kind::kZskPublish, zone});
        steps_.push_back({*r, KaspStep::Kind::kZskActivate, zone});
        steps_.push_back({*r + tail, KaspStep::Kind::kZskRemove, zone});
      }
    } else if (in_band(options_.ksk_roll_fraction)) {
      const KskTiming kt = ksk_timing(pol);
      const net::SimTime lead = kt.publish_before * net::kSecond;
      const net::SimTime submit = kt.ds_submit_before * net::kSecond;
      const net::SimTime tail = kt.retire_after * net::kSecond;
      if (auto r = place(lead, tail)) {
        steps_.push_back({*r - lead, KaspStep::Kind::kKskPublish, zone});
        steps_.push_back({*r - submit, KaspStep::Kind::kKskSubmitDs, zone});
        steps_.push_back({*r, KaspStep::Kind::kKskActivate, zone});
        steps_.push_back({*r + tail, KaspStep::Kind::kKskRemove, zone});
      }
    } else if (in_band(options_.algorithm_roll_fraction)) {
      const KskTiming kt = ksk_timing(pol);
      const net::SimTime lead = kt.publish_before * net::kSecond;
      const net::SimTime submit = kt.ds_submit_before * net::kSecond;
      const net::SimTime tail = kt.retire_after * net::kSecond;
      if (auto r = place(lead, tail)) {
        steps_.push_back({*r - lead, KaspStep::Kind::kAlgPublish, zone});
        steps_.push_back({*r - submit, KaspStep::Kind::kAlgSubmitDs, zone});
        steps_.push_back({*r, KaspStep::Kind::kAlgActivate, zone});
        steps_.push_back({*r + tail, KaspStep::Kind::kAlgRemove, zone});
      }
    } else if (in_band(options_.premature_ds_fraction)) {
      if (auto r = place(0, options_.repair_delay)) {
        steps_.push_back({*r, KaspStep::Kind::kBreakPrematureDs, zone});
        steps_.push_back({*r + options_.repair_delay,
                          KaspStep::Kind::kRepairPrematureDs, zone});
      }
    } else if (in_band(options_.stale_rrsig_fraction)) {
      if (auto r = place(0, options_.repair_delay)) {
        steps_.push_back({*r, KaspStep::Kind::kBreakStaleRrsig, zone});
        steps_.push_back({*r + options_.repair_delay,
                          KaspStep::Kind::kRepairStaleRrsig, zone});
      }
    } else if (in_band(options_.cds_stray_fraction)) {
      if (auto r = place(0, options_.repair_delay)) {
        steps_.push_back({*r, KaspStep::Kind::kPublishStrayCds, zone});
        steps_.push_back({*r + options_.repair_delay,
                          KaspStep::Kind::kClearStrayCds, zone});
      }
    } else if (in_band(options_.algorithm_broken_fraction)) {
      if (auto r = place(0, options_.repair_delay)) {
        steps_.push_back({*r, KaspStep::Kind::kPublishForeignKey, zone});
        steps_.push_back({*r + options_.repair_delay,
                          KaspStep::Kind::kDropForeignKey, zone});
      }
    } else if (in_band(options_.unsign_fraction)) {
      if (auto r = place(0, options_.ds_latency)) {
        steps_.push_back({*r, KaspStep::Kind::kPublishDelete, zone});
        steps_.push_back(
            {*r + options_.ds_latency, KaspStep::Kind::kRemoveDs, zone});
      }
    }
  }

  fire_order_.resize(steps_.size());
  for (std::size_t i = 0; i < fire_order_.size(); ++i) fire_order_[i] = i;
  std::stable_sort(fire_order_.begin(), fire_order_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return steps_[a].at < steps_[b].at;
                   });
}

std::vector<net::SimTime> PolicyClock::step_times() const {
  std::vector<net::SimTime> times;
  times.reserve(fire_order_.size());
  for (std::size_t index : fire_order_) {
    if (times.empty() || times.back() != steps_[index].at) {
      times.push_back(steps_[index].at);
    }
  }
  return times;
}

void PolicyClock::advance(net::SimTime now) {
  while (next_fire_ < fire_order_.size() &&
         steps_[fire_order_[next_fire_]].at <= now) {
    apply(steps_[fire_order_[next_fire_]]);
    ++next_fire_;
  }
}

PolicyClock::ZoneRollState& PolicyClock::state_for(
    const std::string& canonical) {
  auto it = states_.find(canonical);
  if (it == states_.end()) {
    Rng kr = rng_.fork("kasp-keys:" + canonical + ":0");
    it = states_
             .emplace(canonical, ZoneRollState{dnssec::ZoneKeys::generate(kr),
                                               std::nullopt, std::nullopt,
                                               std::nullopt, 0})
             .first;
  }
  return it->second;
}

crypto::KeyPair PolicyClock::next_key(const std::string& canonical,
                                      ZoneRollState& state,
                                      std::uint16_t flags) {
  Rng kr = rng_.fork("kasp-keys:" + canonical + ":" +
                     std::to_string(++state.generation));
  return crypto::KeyPair::generate(kr, flags);
}

std::shared_ptr<dns::Zone> PolicyClock::mutable_zone(const dns::Name& zone) {
  auto it = zone_server_.find(zone.canonical_text());
  if (it == zone_server_.end()) return nullptr;
  auto zone_const = it->second->zone_for(zone);
  if (zone_const == nullptr) return nullptr;
  return std::const_pointer_cast<dns::Zone>(
      std::shared_ptr<const dns::Zone>(zone_const));
}

Result<registry::CdsProcessor*> PolicyClock::processor_for(
    const dns::Name& tld) {
  const std::string& text = tld.canonical_text();
  auto it = processors_.find(text);
  if (it != processors_.end()) return it->second.get();
  auto handle = eco_.registries.find(text);
  if (handle == eco_.registries.end()) {
    return Error{"kasp.registry", "no registry handle for " + text};
  }
  registry::RegistryConfig config;
  config.tld = tld;
  config.now = eco_.now;
  auto processor = std::make_unique<registry::CdsProcessor>(
      network_, engine_, resolver_, handle->second, config);
  registry::CdsProcessor* raw = processor.get();
  processors_.emplace(text, std::move(processor));
  return raw;
}

void PolicyClock::publish_child_sync(
    dns::Zone& zone, const dns::Name& zone_name,
    const std::vector<const crypto::KeyPair*>& ksks) {
  zone.remove_rrset(zone_name, dns::RRType::kCDS);
  zone.remove_rrset(zone_name, dns::RRType::kCDNSKEY);
  for (const crypto::KeyPair* ksk : ksks) {
    auto sync = dnssec::make_child_sync_records(zone_name, *ksk);
    if (!sync.ok()) continue;
    for (const auto& cds : sync->cds) {
      (void)zone.add(dns::ResourceRecord{zone_name, dns::RRType::kCDS,
                                         dns::RRClass::kIN, 300,
                                         dns::Rdata{cds}});
    }
    for (const auto& key : sync->cdnskey) {
      (void)zone.add(dns::ResourceRecord{zone_name, dns::RRType::kCDNSKEY,
                                         dns::RRClass::kIN, 300,
                                         dns::Rdata{key}});
    }
  }
}

bool PolicyClock::install_ds(const dns::Name& zone_name,
                             const std::vector<const crypto::KeyPair*>& ksks) {
  auto processor = processor_for(zone_name.parent());
  if (!processor.ok()) return false;
  std::vector<dns::DsRdata> ds_set;
  for (const crypto::KeyPair* ksk : ksks) {
    auto ds = dnssec::make_ds(zone_name, dnssec::make_dnskey(*ksk), 2);
    if (!ds.ok()) return false;
    ds_set.push_back(std::move(ds).take());
  }
  return (*processor)->install_ds(zone_name, ds_set).ok();
}

bool PolicyClock::resign(dns::Zone& zone, const ZoneRollState& state) {
  return dnssec::sign_zone(zone, state.keys, policy_).ok();
}

void PolicyClock::apply(const KaspStep& step) {
  const std::string& canonical = step.zone.canonical_text();
  std::shared_ptr<dns::Zone> zone = mutable_zone(step.zone);
  if (zone == nullptr) {
    ++failed_;
    return;
  }
  ZoneRollState& state = state_for(canonical);
  bool ok = true;

  switch (step.kind) {
    case KaspStep::Kind::kBootstrapSign: {
      publish_child_sync(*zone, step.zone, {&state.keys.ksk});
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kBootstrapDs: {
      ok = install_ds(step.zone, {&state.keys.ksk});
      break;
    }

    case KaspStep::Kind::kZskPublish: {
      state.successor_zsk = next_key(canonical, state, crypto::kZskFlags);
      state.keys.extra_zsks = {*state.successor_zsk};
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kZskActivate: {
      if (!state.successor_zsk.has_value()) {
        ok = false;
        break;
      }
      crypto::KeyPair retired = state.keys.zsk;
      state.keys.zsk = *state.successor_zsk;
      state.successor_zsk.reset();
      // The predecessor lingers published for Iret (its RRSIGs may still be
      // cached even though this simulation re-signs atomically).
      state.keys.extra_zsks = {retired};
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kZskRemove: {
      state.keys.extra_zsks.clear();
      ok = resign(*zone, state);
      break;
    }

    case KaspStep::Kind::kKskPublish: {
      state.successor_ksk = next_key(canonical, state, crypto::kKskFlags);
      state.keys.extra_ksks = {*state.successor_ksk};
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kKskSubmitDs: {
      if (!state.successor_ksk.has_value()) {
        ok = false;
        break;
      }
      publish_child_sync(*zone, step.zone,
                         {&state.keys.ksk, &*state.successor_ksk});
      ok = resign(*zone, state);
      ok = install_ds(step.zone, {&state.keys.ksk, &*state.successor_ksk}) &&
           ok;
      break;
    }
    case KaspStep::Kind::kKskActivate: {
      if (!state.successor_ksk.has_value()) {
        ok = false;
        break;
      }
      crypto::KeyPair retired = state.keys.ksk;
      state.keys.ksk = *state.successor_ksk;
      state.successor_ksk.reset();
      state.keys.extra_ksks = {retired};
      publish_child_sync(*zone, step.zone, {&state.keys.ksk});
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kKskRemove: {
      state.keys.extra_ksks.clear();
      ok = resign(*zone, state);
      ok = install_ds(step.zone, {&state.keys.ksk}) && ok;
      break;
    }

    case KaspStep::Kind::kAlgPublish: {
      state.successor_ksk = next_key(canonical, state, crypto::kKskFlags);
      state.successor_zsk = next_key(canonical, state, crypto::kZskFlags);
      state.keys.extra_ksks = {*state.successor_ksk};
      state.keys.co_zsks = {*state.successor_zsk};
      publish_child_sync(*zone, step.zone,
                         {&state.keys.ksk, &*state.successor_ksk});
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kAlgSubmitDs: {
      if (!state.successor_ksk.has_value()) {
        ok = false;
        break;
      }
      ok = install_ds(step.zone, {&state.keys.ksk, &*state.successor_ksk});
      break;
    }
    case KaspStep::Kind::kAlgActivate: {
      if (!state.successor_ksk.has_value() ||
          !state.successor_zsk.has_value()) {
        ok = false;
        break;
      }
      crypto::KeyPair retired_ksk = state.keys.ksk;
      crypto::KeyPair retired_zsk = state.keys.zsk;
      state.keys.ksk = *state.successor_ksk;
      state.keys.zsk = *state.successor_zsk;
      state.successor_ksk.reset();
      state.successor_zsk.reset();
      state.keys.extra_ksks = {retired_ksk};
      state.keys.co_zsks = {retired_zsk};
      publish_child_sync(*zone, step.zone, {&state.keys.ksk});
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kAlgRemove: {
      state.keys.extra_ksks.clear();
      state.keys.co_zsks.clear();
      ok = resign(*zone, state);
      ok = install_ds(step.zone, {&state.keys.ksk}) && ok;
      break;
    }

    case KaspStep::Kind::kBreakPrematureDs: {
      // The registry swapped to the successor's DS, but the successor DNSKEY
      // was never published: bogus until kRepairPrematureDs.
      state.successor_ksk = next_key(canonical, state, crypto::kKskFlags);
      publish_child_sync(*zone, step.zone,
                         {&state.keys.ksk, &*state.successor_ksk});
      ok = resign(*zone, state);
      ok = install_ds(step.zone, {&*state.successor_ksk}) && ok;
      break;
    }
    case KaspStep::Kind::kRepairPrematureDs: {
      if (!state.successor_ksk.has_value()) {
        ok = false;
        break;
      }
      crypto::KeyPair retired = state.keys.ksk;
      state.keys.ksk = *state.successor_ksk;
      state.successor_ksk.reset();
      state.keys.extra_ksks = {retired};
      publish_child_sync(*zone, step.zone, {&state.keys.ksk});
      ok = resign(*zone, state);
      break;
    }

    case KaspStep::Kind::kBreakStaleRrsig: {
      state.retired_zsk = state.keys.zsk;
      state.keys.zsk = next_key(canonical, state, crypto::kZskFlags);
      ok = resign(*zone, state);
      ok = apply_stale_rrsigs(*zone, *state.retired_zsk, policy_).ok() && ok;
      break;
    }
    case KaspStep::Kind::kRepairStaleRrsig: {
      state.retired_zsk.reset();
      ok = resign(*zone, state);
      break;
    }

    case KaspStep::Kind::kPublishStrayCds: {
      crypto::KeyPair stray = next_key(canonical, state, crypto::kKskFlags);
      publish_child_sync(*zone, step.zone, {&state.keys.ksk, &stray});
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kClearStrayCds: {
      publish_child_sync(*zone, step.zone, {&state.keys.ksk});
      ok = resign(*zone, state);
      break;
    }

    case KaspStep::Kind::kPublishForeignKey: {
      Rng fr = rng_.fork("kasp-foreign:" + canonical);
      state.keys.extra_dnskeys = {foreign_algorithm_dnskey(fr)};
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kDropForeignKey: {
      state.keys.extra_dnskeys.clear();
      ok = resign(*zone, state);
      break;
    }

    case KaspStep::Kind::kPublishDelete: {
      zone->remove_rrset(step.zone, dns::RRType::kCDS);
      zone->remove_rrset(step.zone, dns::RRType::kCDNSKEY);
      (void)zone->add(dns::ResourceRecord{
          step.zone, dns::RRType::kCDS, dns::RRClass::kIN, 300,
          dns::Rdata{dnssec::cds_delete_sentinel()}});
      (void)zone->add(dns::ResourceRecord{
          step.zone, dns::RRType::kCDNSKEY, dns::RRClass::kIN, 300,
          dns::Rdata{dnssec::cdnskey_delete_sentinel()}});
      ok = resign(*zone, state);
      break;
    }
    case KaspStep::Kind::kRemoveDs: {
      auto processor = processor_for(step.zone.parent());
      ok = processor.ok() && (*processor)->remove_ds(step.zone).ok();
      break;
    }
  }

  if (!ok) ++failed_;
  ++applied_;
}

}  // namespace dnsboot::kasp
