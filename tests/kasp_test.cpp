// KASP key-lifecycle engine tests: the RFC 7583 timing math against a golden
// table, the deterministic per-zone policy jitter, the PolicyClock's scripted
// schedule (well-ordered per zone, reproducible across rebuilds), and the
// monitor end-to-end over a KASP-managed world: every transition journaled,
// runs byte-identical, a restart over a torn journal converging, a *clean*
// pre-publication or double-DS rollover never classified broken at any probe
// instant, and every botched scenario journaled as broken and later repaired.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "ecosystem/builder.hpp"
#include "kasp/clock.hpp"
#include "kasp/policy.hpp"
#include "lint/crosscheck.hpp"
#include "lint/ecosystem_lint.hpp"
#include "longitudinal/monitor.hpp"
#include "net/simnet.hpp"

namespace dnsboot::kasp {
namespace {

// ---------------------------------------------------------------------------
// RFC 7583 timing math: golden table.

TEST(KaspTimingTest, GoldenDefaultPolicy) {
  const KeyPolicy p;  // the defaults documented in policy.hpp
  // Ipub = Dprp + TTLkey (RFC 7583 §3.2.1).
  EXPECT_EQ(zsk_ipub(p), 300u + 3600u);
  // Iret = Dprp + TTLsig with Dsgn = 0 (atomic re-sign) and TTLsig bounded
  // by the max zone TTL (RFC 7583 §2.3).
  EXPECT_EQ(zsk_iret(p), 300u + 86400u);
  // DregDS = Dreg + DprpP + TTLds (RFC 7583 §3.3.2).
  EXPECT_EQ(ksk_dreg_ds(p), 6u * 3600u + 3600u + 3600u);
  // Iret(KSK) = DprpP + TTLds.
  EXPECT_EQ(ksk_iret(p), 3600u + 3600u);

  const ZskTiming z = zsk_timing(p);
  EXPECT_EQ(z.publish_before, zsk_ipub(p) + p.publish_safety);
  EXPECT_EQ(z.retire_after, zsk_iret(p) + p.retire_safety);
  EXPECT_EQ(z.remove_after, z.retire_after);

  const KskTiming k = ksk_timing(p);
  EXPECT_EQ(k.ds_submit_before, ksk_dreg_ds(p) + p.publish_safety);
  // The successor DNSKEY must have been visible (Ipub) before the CDS for it
  // goes out — publish strictly precedes DS submission.
  EXPECT_EQ(k.publish_before,
            k.ds_submit_before + zsk_ipub(p) + p.publish_safety);
  EXPECT_EQ(k.retire_after, ksk_iret(p) + p.retire_safety);
}

TEST(KaspTimingTest, GoldenFastPolicy) {
  // A "fast" operator: short TTLs, quick registrar, no safety margins — the
  // table rows reduce to the bare RFC 7583 sums.
  KeyPolicy p;
  p.dnskey_ttl = 7200;
  p.max_zone_ttl = 3600;
  p.ds_ttl = 300;
  p.zone_propagation = 600;
  p.parent_propagation = 1800;
  p.registrar_delay = 3600;
  p.publish_safety = 0;
  p.retire_safety = 0;

  EXPECT_EQ(zsk_ipub(p), 7800u);
  EXPECT_EQ(zsk_iret(p), 4200u);
  EXPECT_EQ(ksk_dreg_ds(p), 5700u);
  EXPECT_EQ(ksk_iret(p), 2100u);

  const ZskTiming z = zsk_timing(p);
  EXPECT_EQ(z.publish_before, 7800u);
  EXPECT_EQ(z.retire_after, 4200u);

  const KskTiming k = ksk_timing(p);
  EXPECT_EQ(k.ds_submit_before, 5700u);
  EXPECT_EQ(k.publish_before, 5700u + 7800u);
  EXPECT_EQ(k.retire_after, 2100u);
}

TEST(KaspTimingTest, OrderingInvariants) {
  // Whatever the policy, the rollover offsets must keep the RFC 7583 order:
  // publish before DS submission before activation; retirement after.
  for (std::uint64_t ttl : {60u, 3600u, 86400u, 172800u}) {
    KeyPolicy p;
    p.dnskey_ttl = ttl;
    p.max_zone_ttl = ttl;
    p.ds_ttl = ttl;
    const KskTiming k = ksk_timing(p);
    EXPECT_GT(k.publish_before, k.ds_submit_before) << "ttl=" << ttl;
    EXPECT_GT(k.ds_submit_before, 0u) << "ttl=" << ttl;
    const ZskTiming z = zsk_timing(p);
    EXPECT_GT(z.publish_before, 0u) << "ttl=" << ttl;
    EXPECT_GE(z.remove_after, z.retire_after) << "ttl=" << ttl;
  }
}

TEST(KaspTimingTest, JitterIsDeterministicPerFork) {
  const KeyPolicy base;
  Rng root(1234);
  Rng a = root.fork("kasp/example.ch.");
  Rng b = root.fork("kasp/example.ch.");
  const KeyPolicy pa = jitter_policy(base, a);
  const KeyPolicy pb = jitter_policy(base, b);
  EXPECT_EQ(pa.zsk_lifetime, pb.zsk_lifetime);
  EXPECT_EQ(pa.ksk_lifetime, pb.ksk_lifetime);
  EXPECT_EQ(pa.zone_propagation, pb.zone_propagation);
  EXPECT_EQ(pa.parent_propagation, pb.parent_propagation);
  EXPECT_EQ(pa.registrar_delay, pb.registrar_delay);

  // Bounds: lifetimes jittered by ±25%, delays by ±50%, never zero.
  EXPECT_GE(pa.zsk_lifetime, base.zsk_lifetime * 3 / 4);
  EXPECT_LE(pa.zsk_lifetime, base.zsk_lifetime * 5 / 4 + 1);
  EXPECT_GE(pa.zone_propagation, base.zone_propagation / 2);
  EXPECT_LE(pa.zone_propagation, base.zone_propagation * 3 / 2 + 1);
  EXPECT_GT(pa.registrar_delay, 0u);

  // Different zones draw different policies (the population must not roll
  // in lockstep). Check a handful — at least one must differ.
  bool any_differs = false;
  for (const char* zone : {"a.ch.", "b.ch.", "c.ch.", "d.ch."}) {
    Rng fork = root.fork(std::string("kasp/") + zone);
    const KeyPolicy other = jitter_policy(base, fork);
    if (other.zsk_lifetime != pa.zsk_lifetime) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

// ---------------------------------------------------------------------------
// PolicyClock schedule: deterministic, well-ordered per zone.

ecosystem::OperatorProfile tiny_operator() {
  ecosystem::OperatorProfile p;
  p.name = "KaspOp";
  p.ns_domains = {"kaspop.net"};
  p.publishes_signal = true;
  p.customer_tld = "ch";
  p.domains = 10;
  return p;
}

ecosystem::EcosystemConfig tiny_config() {
  ecosystem::EcosystemConfig config;
  config.scale = 1.0;
  config.operators = {tiny_operator()};
  config.inject_pathologies = false;
  return config;
}

KaspOptions clean_roll_options(net::SimTime horizon) {
  KaspOptions o;
  o.seed = 7;
  o.horizon = horizon;
  o.participate_fraction = 1.0;
  // Every managed zone performs a *clean* rollover: ZSK pre-publication,
  // KSK double-DS, or algorithm double-signature. No botched scenarios.
  o.zsk_roll_fraction = 0.5;
  o.ksk_roll_fraction = 0.3;
  o.algorithm_roll_fraction = 0.2;
  o.premature_ds_fraction = 0;
  o.stale_rrsig_fraction = 0;
  o.cds_stray_fraction = 0;
  o.algorithm_broken_fraction = 0;
  o.unsign_fraction = 0;
  return o;
}

std::vector<KaspStep> script_schedule(std::uint64_t seed) {
  net::SimNetwork network(seed ^ 0xd15b007);
  ecosystem::EcosystemConfig config = tiny_config();
  config.seed = seed;
  ecosystem::EcosystemBuilder builder(network, config);
  ecosystem::Ecosystem eco = builder.build();
  resolver::QueryEngine engine(network, net::IpAddress::v4({192, 0, 2, 252}),
                               {});
  resolver::DelegationResolver resolver(engine, eco.hints);
  PolicyClock clock(network, engine, resolver, eco,
                    clean_roll_options(net::SimTime{14} * 86400 *
                                       net::kSecond));
  return clock.steps();
}

TEST(PolicyClockTest, ScheduleIsDeterministic) {
  const std::vector<KaspStep> a = script_schedule(42);
  const std::vector<KaspStep> b = script_schedule(42);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << "step " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "step " << i;
    EXPECT_EQ(a[i].zone.canonical_text(), b[i].zone.canonical_text())
        << "step " << i;
  }
}

TEST(PolicyClockTest, PerZoneStepsKeepRolloverOrder) {
  const std::vector<KaspStep> steps = script_schedule(7);
  ASSERT_GT(steps.size(), 0u);

  std::map<std::string, std::map<KaspStep::Kind, net::SimTime>> per_zone;
  for (const KaspStep& step : steps) {
    per_zone[step.zone.canonical_text()][step.kind] = step.at;
  }

  using Kind = KaspStep::Kind;
  std::size_t zsk_rolls = 0, ksk_rolls = 0, alg_rolls = 0;
  for (const auto& [zone, at] : per_zone) {
    // Every managed zone bootstraps: sign/CDS strictly before DS install.
    ASSERT_TRUE(at.count(Kind::kBootstrapSign)) << zone;
    ASSERT_TRUE(at.count(Kind::kBootstrapDs)) << zone;
    EXPECT_LT(at.at(Kind::kBootstrapSign), at.at(Kind::kBootstrapDs)) << zone;

    if (at.count(Kind::kZskPublish)) {
      ++zsk_rolls;
      // Pre-publication: publish < activate < remove (RFC 7583 §3.2.1).
      ASSERT_TRUE(at.count(Kind::kZskActivate)) << zone;
      ASSERT_TRUE(at.count(Kind::kZskRemove)) << zone;
      EXPECT_LT(at.at(Kind::kZskPublish), at.at(Kind::kZskActivate)) << zone;
      EXPECT_LT(at.at(Kind::kZskActivate), at.at(Kind::kZskRemove)) << zone;
      EXPECT_LT(at.at(Kind::kBootstrapDs), at.at(Kind::kZskPublish)) << zone;
    }
    if (at.count(Kind::kKskPublish)) {
      ++ksk_rolls;
      // Double-DS: publish < submit-DS < activate < remove (§3.3.2).
      ASSERT_TRUE(at.count(Kind::kKskSubmitDs)) << zone;
      ASSERT_TRUE(at.count(Kind::kKskActivate)) << zone;
      ASSERT_TRUE(at.count(Kind::kKskRemove)) << zone;
      EXPECT_LT(at.at(Kind::kKskPublish), at.at(Kind::kKskSubmitDs)) << zone;
      EXPECT_LT(at.at(Kind::kKskSubmitDs), at.at(Kind::kKskActivate)) << zone;
      EXPECT_LT(at.at(Kind::kKskActivate), at.at(Kind::kKskRemove)) << zone;
    }
    if (at.count(Kind::kAlgPublish)) {
      ++alg_rolls;
      ASSERT_TRUE(at.count(Kind::kAlgSubmitDs)) << zone;
      ASSERT_TRUE(at.count(Kind::kAlgActivate)) << zone;
      ASSERT_TRUE(at.count(Kind::kAlgRemove)) << zone;
      EXPECT_LT(at.at(Kind::kAlgPublish), at.at(Kind::kAlgSubmitDs)) << zone;
      EXPECT_LT(at.at(Kind::kAlgSubmitDs), at.at(Kind::kAlgActivate)) << zone;
      EXPECT_LT(at.at(Kind::kAlgActivate), at.at(Kind::kAlgRemove)) << zone;
    }
    // No botched steps anywhere — the options zeroed those fractions.
    EXPECT_FALSE(at.count(Kind::kBreakPrematureDs)) << zone;
    EXPECT_FALSE(at.count(Kind::kBreakStaleRrsig)) << zone;
    EXPECT_FALSE(at.count(Kind::kPublishStrayCds)) << zone;
    EXPECT_FALSE(at.count(Kind::kPublishForeignKey)) << zone;
    EXPECT_FALSE(at.count(Kind::kPublishDelete)) << zone;
  }
  // The 10-zone population at these fractions must exercise all three
  // clean rollover methods.
  EXPECT_GT(zsk_rolls, 0u);
  EXPECT_GT(ksk_rolls, 0u);
  EXPECT_GT(alg_rolls, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: the monitor over a KASP-managed world.

std::string make_temp_dir() {
  char tmpl[] = "/tmp/dnsboot_kasp_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct KaspRun {
  std::string journal;
  std::string json;
  std::string csv;
  std::string history;
  std::size_t kinds = 0;
  std::uint64_t transitions = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t replayed = 0;
  std::uint64_t appended = 0;
  std::uint64_t motion_applied = 0;
  std::uint64_t motion_failed = 0;
  std::size_t planned = 0;
};

KaspRun run_kasp_monitor(const std::string& state_dir,
                         const KaspOptions& kasp_options) {
  net::SimNetwork network(42);
  ecosystem::EcosystemConfig config = tiny_config();
  ecosystem::EcosystemBuilder builder(network, config);
  ecosystem::Ecosystem eco = builder.build();

  resolver::QueryEngine engine(network, net::IpAddress::v4({192, 0, 2, 252}),
                               {});
  resolver::DelegationResolver resolver(engine, eco.hints);
  PolicyClock clock(network, engine, resolver, eco, kasp_options);

  longitudinal::MonitorOptions options;
  options.seed = 7;
  options.horizon = kasp_options.horizon + net::SimTime{2} * 86400 *
                                               net::kSecond;
  options.initial_spread = net::SimTime{1800} * net::kSecond;
  options.stable_probes = 2;
  options.state_dir = state_dir;
  options.snapshot_every = net::SimTime{86400} * net::kSecond;
  longitudinal::Monitor monitor(network, eco, options, &clock);

  Status started = monitor.start();
  EXPECT_TRUE(started.ok()) << (started.ok() ? ""
                                             : started.error().to_string());
  monitor.run();
  EXPECT_EQ(clock.failed(), 0u);

  KaspRun run;
  run.journal = read_file(state_dir + "/journal.log");
  run.json = monitor.reporter().to_json();
  run.csv = monitor.reporter().to_csv();
  run.history = monitor.history().serialize();
  run.kinds = monitor.reporter().distinct_kinds();
  run.transitions = monitor.reporter().transitions();
  run.mismatches = monitor.journal_mismatches();
  run.replayed = monitor.journal_replayed();
  run.appended = monitor.journal_appended();
  run.motion_applied = clock.applied();
  run.motion_failed = clock.failed();
  run.planned = clock.planned_steps();
  return run;
}

// Every managed zone bootstraps, then draws from the full scenario ladder at
// its default weights: clean rolls, botched rolls and their repairs, and
// delete-sentinel unsigning.
KaspOptions mixed_options() {
  KaspOptions o;
  o.seed = 7;
  o.horizon = net::SimTime{10} * 86400 * net::kSecond;
  o.participate_fraction = 1.0;
  return o;
}

TEST(KaspMonitorTest, EndToEndObservesBootstrapMotion) {
  const std::string dir = make_temp_dir();
  KaspRun run = run_kasp_monitor(dir, mixed_options());
  EXPECT_GT(run.planned, 10u);
  EXPECT_EQ(run.motion_applied, run.planned);
  // The monitored world produced several distinct transition kinds, and
  // every one was journaled.
  EXPECT_GE(run.kinds, 3u);
  EXPECT_GT(run.transitions, 10u);
  EXPECT_EQ(run.mismatches, 0u);
  EXPECT_EQ(run.appended, run.transitions);
  EXPECT_NE(run.json.find("insecure->cds_published"), std::string::npos);
  EXPECT_NE(run.json.find("cds_published->ds_bootstrapped"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

// The acceptance-criteria property: a clean, correctly-timed rollover — the
// operator following RFC 7583 to the letter — must never be classified
// broken, at any probe instant across the whole window.
TEST(KaspMonitorTest, CleanRolloversAreNeverClassifiedBroken) {
  const std::string dir = make_temp_dir();
  KaspRun run = run_kasp_monitor(
      dir, clean_roll_options(net::SimTime{14} * 86400 * net::kSecond));

  EXPECT_GT(run.planned, 0u);
  EXPECT_EQ(run.motion_applied, run.planned);
  EXPECT_EQ(run.motion_failed, 0u);
  EXPECT_EQ(run.mismatches, 0u);
  EXPECT_GT(run.transitions, 10u);

  // Every zone bootstraps…
  EXPECT_NE(run.json.find("insecure->cds_published"), std::string::npos);
  EXPECT_NE(run.json.find("cds_published->ds_bootstrapped"),
            std::string::npos);
  // …and no probe, at any instant during publish/activate/retire windows,
  // may classify the chain as broken: no transition in or out of the broken
  // phase, no journaled broken record, and every adoption-curve sample
  // counts zero zones in the broken phase (the curve always enumerates the
  // phase name, so check the values, not the key's absence).
  EXPECT_EQ(run.json.find("->broken_rollover"), std::string::npos);
  EXPECT_EQ(run.json.find("broken_rollover->"), std::string::npos);
  EXPECT_EQ(run.journal.find("broken_rollover"), std::string::npos);
  const std::string key = "\"broken_rollover\": ";
  std::size_t at = 0, samples = 0;
  while ((at = run.json.find(key, at)) != std::string::npos) {
    at += key.size();
    ++samples;
    ASSERT_LT(at, run.json.size());
    EXPECT_EQ(run.json[at], '0') << "nonzero broken count at offset " << at;
  }
  EXPECT_GT(samples, 0u);
  std::filesystem::remove_all(dir);
}

TEST(KaspMonitorTest, BotchedRolloversAreJournaledBrokenThenRepaired) {
  KaspOptions o;
  o.seed = 7;
  o.horizon = net::SimTime{14} * 86400 * net::kSecond;
  o.participate_fraction = 1.0;
  // Every managed zone botches its rollover one way or the other.
  o.zsk_roll_fraction = 0;
  o.ksk_roll_fraction = 0;
  o.algorithm_roll_fraction = 0;
  o.premature_ds_fraction = 0.5;
  o.stale_rrsig_fraction = 0.5;
  o.cds_stray_fraction = 0;
  o.algorithm_broken_fraction = 0;
  o.unsign_fraction = 0;

  const std::string dir = make_temp_dir();
  KaspRun run = run_kasp_monitor(dir, o);

  EXPECT_EQ(run.motion_failed, 0u);
  EXPECT_EQ(run.mismatches, 0u);
  // The violation is observed — and so is the operator's repair.
  EXPECT_NE(run.json.find("->broken_rollover"), std::string::npos);
  EXPECT_NE(run.json.find("broken_rollover->"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(KaspMonitorTest, RunsAreByteIdentical) {
  const std::string dir_a = make_temp_dir();
  const std::string dir_b = make_temp_dir();
  const KaspOptions o =
      clean_roll_options(net::SimTime{10} * 86400 * net::kSecond);
  KaspRun a = run_kasp_monitor(dir_a, o);
  KaspRun b = run_kasp_monitor(dir_b, o);
  EXPECT_FALSE(a.journal.empty());
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.history, b.history);
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

// The monitor's own determinism under its default motion: the full scenario
// ladder, botched rolls and unsigning included, replays byte for byte.
TEST(MonitorTest, RunsAreDeterministic) {
  const std::string dir_a = make_temp_dir();
  const std::string dir_b = make_temp_dir();
  KaspRun a = run_kasp_monitor(dir_a, mixed_options());
  KaspRun b = run_kasp_monitor(dir_b, mixed_options());
  EXPECT_FALSE(a.journal.empty());
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.history, b.history);
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

// Crash recovery: a restart over a torn journal re-simulates from t=0,
// byte-verifies the surviving prefix, and converges to the uninterrupted
// run's journal, report and history.
TEST(KaspMonitorTest, RestartOverTruncatedJournalConverges) {
  const std::string dir_full = make_temp_dir();
  KaspRun full = run_kasp_monitor(dir_full, mixed_options());
  ASSERT_GT(full.transitions, 10u);

  // Keep the header plus half the records, cutting the last kept line in
  // the middle (a torn write).
  const std::string dir_crash = make_temp_dir();
  {
    std::ofstream out(dir_crash + "/journal.log", std::ios::binary);
    out << full.journal.substr(0, full.journal.size() / 2);
  }
  KaspRun resumed = run_kasp_monitor(dir_crash, mixed_options());
  EXPECT_EQ(resumed.mismatches, 0u);
  EXPECT_GT(resumed.replayed, 0u);
  EXPECT_GT(resumed.appended, 0u);
  EXPECT_EQ(resumed.journal, full.journal);
  EXPECT_EQ(resumed.json, full.json);
  EXPECT_EQ(resumed.history, full.history);

  // The snapshot written by the resumed run compacts to the same state.
  longitudinal::HistoryStore from_snapshot;
  auto meta = longitudinal::read_snapshot_file(
      dir_crash + "/snapshot.dnsboot", &from_snapshot);
  ASSERT_TRUE(meta.ok());
  std::filesystem::remove_all(dir_full);
  std::filesystem::remove_all(dir_crash);
}

// ---------------------------------------------------------------------------
// Pipeline spot check: the rollover lint world's ground truth is caught by
// the L107–L110 rules, and the in-flight (correct) rollover snapshots stay
// clean — the same contract `dnsboot-lint --self-check` enforces.

TEST(KaspLintTest, RolloverWorldCrossChecks) {
  net::SimNetwork network(11 ^ 0x5011);
  ecosystem::EcosystemConfig config = lint::rollover_world_config(11);
  ecosystem::EcosystemBuilder builder(network, config);
  ecosystem::Ecosystem eco = builder.build();

  auto view = lint::collect_view(eco.servers, eco.now);
  auto report = lint::lint_ecosystem(view);
  auto check = lint::cross_check(eco, report);

  std::size_t roll_classes = 0;
  for (const lint::CrossCheckClass& cls : check.classes) {
    if (cls.name.rfind("roll-", 0) != 0) continue;
    ++roll_classes;
    EXPECT_GT(cls.injected.size(), 0u) << cls.name;
    EXPECT_TRUE(cls.missed.empty()) << cls.name;
  }
  EXPECT_EQ(roll_classes, 4u);

  // Mid-rollover snapshots model *correct* operator behavior: flagging one
  // would make the linter (and the scanner's key_state classifier) cry wolf
  // on every real-world rollover in flight.
  std::set<std::string> mid_zones;
  for (const auto& [zone, truth] : eco.truth) {
    if (truth.rollover == RolloverScenario::kMidZskPrepublish ||
        truth.rollover == RolloverScenario::kMidKskDoubleDs) {
      mid_zones.insert(zone);
    }
  }
  EXPECT_GT(mid_zones.size(), 0u);
  for (const lint::Finding& finding : report.findings()) {
    EXPECT_EQ(mid_zones.count(finding.zone.canonical_text()), 0u)
        << finding.zone.canonical_text() << ": " << finding.detail;
  }
}

}  // namespace
}  // namespace dnsboot::kasp
