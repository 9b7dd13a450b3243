// Tests for src/longitudinal/: the phase state machine, EWMA cadence
// statistics, the re-probe scheduler, journal/snapshot persistence (including
// strict integer fields) and the incremental reporter. The Monitor
// end-to-end, driven by the KASP policy clock, lives in kasp_test.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "base/strings.hpp"
#include "cli.hpp"
#include "longitudinal/journal.hpp"
#include "longitudinal/report.hpp"
#include "longitudinal/scheduler.hpp"

namespace dnsboot::longitudinal {
namespace {

dns::Name name_of(const std::string& text) {
  auto result = dns::Name::from_text(text);
  EXPECT_TRUE(result.ok()) << text;
  return std::move(result).take();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/dnsboot_longitudinal_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

// ---- phase machine -------------------------------------------------------

TEST(ZonePhaseTest, StringRoundTrip) {
  for (int i = 0; i < kZonePhaseCount; ++i) {
    const auto phase = static_cast<ZonePhase>(i);
    auto back = phase_from_string(to_string(phase));
    ASSERT_TRUE(back.has_value()) << to_string(phase);
    EXPECT_EQ(*back, phase);
  }
  EXPECT_FALSE(phase_from_string("no_such_phase").has_value());
}

ProbeFinding finding_insecure() {
  ProbeFinding f;
  f.reachable = true;
  f.dnssec = dnssec::ZoneDnssecStatus::kUnsigned;
  return f;
}

ProbeFinding finding_island_with_cds() {
  ProbeFinding f;
  f.reachable = true;
  f.dnssec = dnssec::ZoneDnssecStatus::kSecureIsland;
  f.cds_present = true;
  f.cds_digest = "abc";
  return f;
}

ProbeFinding finding_bootstrapped() {
  ProbeFinding f;
  f.reachable = true;
  f.ds_present = true;
  f.dnssec = dnssec::ZoneDnssecStatus::kSecure;
  f.ds_digest = "ddd";
  return f;
}

ProbeFinding finding_broken() {
  ProbeFinding f;
  f.reachable = true;
  f.ds_present = true;
  f.dnssec = dnssec::ZoneDnssecStatus::kBogus;
  f.ds_digest = "ddd";
  return f;
}

TEST(ZonePhaseTest, BootstrapWalk) {
  EXPECT_EQ(next_phase(ZonePhase::kUnknown, finding_insecure(), 0, 3),
            ZonePhase::kInsecure);
  EXPECT_EQ(next_phase(ZonePhase::kInsecure, finding_island_with_cds(), 0, 3),
            ZonePhase::kCdsPublished);
  EXPECT_EQ(next_phase(ZonePhase::kCdsPublished, finding_bootstrapped(), 0, 3),
            ZonePhase::kDsBootstrapped);
  // Graduation needs stable_run + 1 >= stable_probes.
  EXPECT_EQ(
      next_phase(ZonePhase::kDsBootstrapped, finding_bootstrapped(), 1, 3),
      ZonePhase::kDsBootstrapped);
  EXPECT_EQ(
      next_phase(ZonePhase::kDsBootstrapped, finding_bootstrapped(), 2, 3),
      ZonePhase::kMaintained);
  EXPECT_EQ(next_phase(ZonePhase::kMaintained, finding_bootstrapped(), 9, 3),
            ZonePhase::kMaintained);
}

TEST(ZonePhaseTest, BreakageAndDeletion) {
  EXPECT_EQ(next_phase(ZonePhase::kMaintained, finding_broken(), 5, 3),
            ZonePhase::kBrokenRollover);
  // Repair: the chain validates again.
  EXPECT_EQ(next_phase(ZonePhase::kBrokenRollover, finding_bootstrapped(), 0,
                       3),
            ZonePhase::kDsBootstrapped);
  // DS withdrawn after having been bootstrapped -> unsigned_deleted, which
  // absorbs further no-DS probes.
  EXPECT_EQ(next_phase(ZonePhase::kMaintained, finding_insecure(), 5, 3),
            ZonePhase::kUnsignedDeleted);
  EXPECT_EQ(next_phase(ZonePhase::kUnsignedDeleted, finding_insecure(), 0, 3),
            ZonePhase::kUnsignedDeleted);
  // But an unbootstrapped zone that never had a DS just stays insecure.
  EXPECT_EQ(next_phase(ZonePhase::kInsecure, finding_insecure(), 0, 3),
            ZonePhase::kInsecure);
}

TEST(ZonePhaseTest, UnreachableKeepsPhase) {
  ProbeFinding down;
  down.reachable = false;
  for (int i = 0; i < kZonePhaseCount; ++i) {
    const auto phase = static_cast<ZonePhase>(i);
    EXPECT_EQ(next_phase(phase, down, 0, 3), phase);
  }
}

TEST(ZonePhaseTest, DsSetDigestIsOrderIndependent) {
  dns::DsRdata a{1234, 13, 2, {0xde, 0xad}};
  dns::DsRdata b{4321, 13, 2, {0xbe, 0xef}};
  EXPECT_EQ(ds_set_digest({a, b}), ds_set_digest({b, a}));
  EXPECT_NE(ds_set_digest({a}), ds_set_digest({b}));
  EXPECT_EQ(ds_set_digest({}), "");
  EXPECT_EQ(ds_set_digest({a}).size(), 16u);
}

// ---- EWMA ----------------------------------------------------------------

TEST(EwmaTest, NormalizedEstimates) {
  ZoneEwma ewma;
  EXPECT_EQ(ewma.reliability(0), 0.0);  // no mass yet
  ewma.update(0.0, true, false);        // first probe: age 0 => no mass
  ewma.update(3600.0, true, false);
  ewma.update(3600.0, true, true);
  EXPECT_NEAR(ewma.reliability(0), 1.0, 1e-9);
  EXPECT_GT(ewma.volatility(0), 0.0);
  EXPECT_LT(ewma.volatility(0), 1.0);
  EXPECT_GT(ewma.weight(0), 0.0);
}

TEST(EwmaTest, FailuresDragReliabilityDown) {
  ZoneEwma ewma;
  for (int i = 0; i < 10; ++i) ewma.update(3600.0, false, false);
  EXPECT_NEAR(ewma.reliability(0), 0.0, 1e-9);
  EXPECT_GT(ewma.weight(0), 0.5);  // plenty of confidence mass
  // A long quiet gap decays the short window far more than the weekly one.
  ZoneEwma decayed = ewma;
  decayed.update(24.0 * 3600, true, false);
  EXPECT_GT(decayed.reliability(0), 0.9);  // 2h window: old mass nearly gone
  // 1w window: the failure mass decays much more slowly.
  EXPECT_LT(decayed.reliability(3), decayed.reliability(0) - 0.1);
}

// ---- scheduler -----------------------------------------------------------

ZoneHistory history_in_phase(ZonePhase phase) {
  ZoneHistory h;
  h.phase = phase;
  h.probes = 5;
  return h;
}

TEST(SchedulerTest, HotPhasesProbeFast) {
  CadenceOptions cadence;
  ReprobeScheduler scheduler(cadence, 1);
  const dns::Name zone = name_of("example.com.");
  const net::SimTime hot =
      scheduler.next_interval(zone, history_in_phase(ZonePhase::kCdsPublished));
  const net::SimTime base =
      scheduler.next_interval(zone, history_in_phase(ZonePhase::kInsecure));
  EXPECT_LT(hot, base);
  // Jitter is bounded: within +-10% of the tier.
  EXPECT_GE(hot, cadence.hot_interval * 9 / 10);
  EXPECT_LE(hot, cadence.hot_interval * 11 / 10);
}

TEST(SchedulerTest, QuietZonesDecayTowardWeekly) {
  CadenceOptions cadence;
  cadence.jitter = 0.0;
  ReprobeScheduler scheduler(cadence, 1);
  const dns::Name zone = name_of("example.com.");
  ZoneHistory h = history_in_phase(ZonePhase::kMaintained);
  h.quiet_run = 0;
  const net::SimTime fresh = scheduler.next_interval(zone, h);
  h.quiet_run = 5;
  const net::SimTime quiet = scheduler.next_interval(zone, h);
  h.quiet_run = 100;
  const net::SimTime capped = scheduler.next_interval(zone, h);
  EXPECT_EQ(fresh, cadence.base_interval);
  EXPECT_GT(quiet, fresh);
  EXPECT_EQ(capped, cadence.max_interval);
}

TEST(SchedulerTest, UnreliableZonesBackOff) {
  CadenceOptions cadence;
  cadence.jitter = 0.0;
  ReprobeScheduler scheduler(cadence, 1);
  const dns::Name zone = name_of("example.com.");
  ZoneHistory h = history_in_phase(ZonePhase::kCdsPublished);
  for (int i = 0; i < 10; ++i) h.ewma.update(3600.0, false, false);
  const net::SimTime interval = scheduler.next_interval(zone, h);
  EXPECT_GE(interval, cadence.unreliable_floor);
}

TEST(SchedulerTest, DeterministicPerSeedAndZone) {
  CadenceOptions cadence;
  ReprobeScheduler a(cadence, 7);
  ReprobeScheduler b(cadence, 7);
  ReprobeScheduler c(cadence, 8);
  const dns::Name zone = name_of("example.com.");
  ZoneHistory h = history_in_phase(ZonePhase::kInsecure);
  EXPECT_EQ(a.next_interval(zone, h), b.next_interval(zone, h));
  EXPECT_NE(a.next_interval(zone, h), c.next_interval(zone, h));
  EXPECT_EQ(a.initial_offset(zone, net::kSecond * 3600),
            b.initial_offset(zone, net::kSecond * 3600));
}

// ---- journal codec -------------------------------------------------------

Transition sample_transition() {
  Transition t;
  t.seq = 42;
  t.at = 123456789;
  t.zone = name_of("sub.example.ch.");
  t.from = ZonePhase::kInsecure;
  t.to = ZonePhase::kCdsPublished;
  t.cds_changed = true;
  t.cds_digest = "00112233aabbccdd";
  t.ds_changed = false;
  t.operator_name = "Cloudflare";
  return t;
}

TEST(JournalCodecTest, EncodeDecodeRoundTrip) {
  const Transition t = sample_transition();
  auto decoded = Journal::decode(Journal::encode(t));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(*decoded, t);
  EXPECT_EQ(Journal::encode(*decoded), Journal::encode(t));
}

TEST(JournalCodecTest, EmptyOperatorAndAbsentDigest) {
  Transition t = sample_transition();
  t.operator_name.clear();
  t.cds_digest.clear();  // changed-to-absent
  auto decoded = Journal::decode(Journal::encode(t));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, t);
}

TEST(JournalCodecTest, CorruptionIsDetected) {
  std::string line = Journal::encode(sample_transition());
  line[10] = line[10] == 'x' ? 'y' : 'x';
  EXPECT_FALSE(Journal::decode(line).ok());
  EXPECT_FALSE(Journal::decode("T\tgarbage").ok());
  EXPECT_FALSE(Journal::decode("").ok());
}

// ---- journal file --------------------------------------------------------

TEST(JournalFileTest, AppendRecoverRoundTrip) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/journal.log";
  {
    auto journal = Journal::open(path, "tag one");
    ASSERT_TRUE(journal.ok()) << journal.error().to_string();
    Transition t = sample_transition();
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      t.seq = seq;
      ASSERT_TRUE(journal->append(t).ok());
    }
    EXPECT_EQ(journal->appended(), 5u);
  }
  auto recovered = Journal::recover(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->existed);
  EXPECT_EQ(recovered->world_tag, "tag one");
  EXPECT_EQ(recovered->lines.size(), 5u);
  EXPECT_EQ(recovered->transitions.size(), 5u);
  EXPECT_EQ(recovered->truncated_bytes, 0u);
  EXPECT_EQ(recovered->transitions[2].seq, 3u);

  // Re-opening with a different tag is refused.
  EXPECT_FALSE(Journal::open(path, "other tag").ok());
  // Missing file is not an error.
  auto missing = Journal::recover(dir + "/nope.log");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->existed);
  std::filesystem::remove_all(dir);
}

TEST(JournalFileTest, TornTailIsTruncated) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/journal.log";
  {
    auto journal = Journal::open(path, "tag");
    ASSERT_TRUE(journal.ok());
    Transition t = sample_transition();
    t.seq = 1;
    ASSERT_TRUE(journal->append(t).ok());
  }
  const std::string intact = read_file(path);
  {
    // A SIGKILL mid-write leaves a partial last line (no newline).
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "T\t2\t999\tpartial";
  }
  auto recovered = Journal::recover(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->lines.size(), 1u);
  EXPECT_GT(recovered->truncated_bytes, 0u);
  EXPECT_EQ(read_file(path), intact);  // truncated back in place
  std::filesystem::remove_all(dir);
}

TEST(JournalFileTest, EveryTruncationPointRecoversAValidPrefix) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/journal.log";
  {
    auto journal = Journal::open(path, "tag");
    ASSERT_TRUE(journal.ok());
    Transition t = sample_transition();
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      t.seq = seq;
      ASSERT_TRUE(journal->append(t).ok());
    }
  }
  const std::string full = read_file(path);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string torn = dir + "/torn.log";
    {
      std::ofstream out(torn, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    auto recovered = Journal::recover(torn);
    ASSERT_TRUE(recovered.ok()) << "cut at " << cut;
    // Whatever survived decodes cleanly and seqs are the dense prefix.
    for (std::size_t i = 0; i < recovered->transitions.size(); ++i) {
      EXPECT_EQ(recovered->transitions[i].seq, i + 1) << "cut at " << cut;
    }
    // Recovery is idempotent: a second pass truncates nothing further.
    auto again = Journal::recover(torn);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->truncated_bytes, 0u) << "cut at " << cut;
    EXPECT_EQ(again->lines.size(), recovered->lines.size());
  }
  std::filesystem::remove_all(dir);
}

// ---- history store + snapshots ------------------------------------------

HistoryStore store_with_walk() {
  HistoryStore store;
  const dns::Name zone = name_of("walk.example.ch.");
  const dns::Name other = name_of("other.example.ch.");
  net::SimTime at = 1000000;
  store.record_probe(zone, at, finding_insecure(), 2);
  store.record_probe(other, at, finding_insecure(), 2);
  at += 3600 * net::kSecond;
  store.record_probe(zone, at, finding_island_with_cds(), 2);
  at += 3600 * net::kSecond;
  store.record_probe(zone, at, finding_bootstrapped(), 2);
  at += 3600 * net::kSecond;
  ProbeFinding down;
  store.record_probe(other, at, down, 2);
  return store;
}

TEST(HistoryStoreTest, RecordsTransitionsAndDeltas) {
  HistoryStore store;
  const dns::Name zone = name_of("walk.example.ch.");
  auto first = store.record_probe(zone, 1000, finding_insecure(), 2);
  ASSERT_TRUE(first.transition.has_value());
  EXPECT_EQ(first.transition->seq, 1u);
  EXPECT_EQ(first.transition->from, ZonePhase::kUnknown);
  EXPECT_EQ(first.transition->to, ZonePhase::kInsecure);

  auto same = store.record_probe(zone, 2000, finding_insecure(), 2);
  EXPECT_FALSE(same.transition.has_value());  // nothing changed, no record

  auto cds = store.record_probe(zone, 3000, finding_island_with_cds(), 2);
  ASSERT_TRUE(cds.transition.has_value());
  EXPECT_EQ(cds.transition->seq, 2u);
  EXPECT_TRUE(cds.transition->cds_changed);
  EXPECT_EQ(cds.transition->cds_digest, "abc");

  // Digest-only change: same phase, new CDS content — still journaled.
  ProbeFinding rolled = finding_island_with_cds();
  rolled.cds_digest = "def";
  auto roll = store.record_probe(zone, 4000, rolled, 2);
  ASSERT_TRUE(roll.transition.has_value());
  EXPECT_EQ(roll.transition->from, roll.transition->to);
  EXPECT_TRUE(roll.transition->cds_changed);

  const ZoneHistory* h = store.find(zone);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->probes, 4u);
  EXPECT_EQ(h->transitions, 3u);
  EXPECT_EQ(h->phase, ZonePhase::kCdsPublished);
  EXPECT_GT(h->cds_first_seen, 0u);
}

TEST(HistoryStoreTest, UnreachableProbesOnlyTouchStats) {
  HistoryStore store;
  const dns::Name zone = name_of("down.example.ch.");
  store.record_probe(zone, 1000, finding_bootstrapped(), 2);
  ProbeFinding down;
  auto outcome = store.record_probe(zone, 2000, down, 2);
  EXPECT_FALSE(outcome.transition.has_value());
  const ZoneHistory* h = store.find(zone);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->phase, ZonePhase::kDsBootstrapped);
  EXPECT_EQ(h->failures, 1u);
}

TEST(SnapshotTest, SerializeRestoreIsByteIdentical) {
  HistoryStore store = store_with_walk();
  const std::string body = store.serialize();
  HistoryStore restored;
  ASSERT_TRUE(restored.restore(body).ok());
  EXPECT_EQ(restored.serialize(), body);
  EXPECT_EQ(restored.zones().size(), store.zones().size());
  EXPECT_EQ(restored.phase_counts(), store.phase_counts());
}

TEST(SnapshotTest, EncodeDecodeFileRoundTrip) {
  HistoryStore store = store_with_walk();
  SnapshotMeta meta;
  meta.world_tag = "tag";
  meta.seq = store.next_seq() - 1;
  meta.at = 99;
  const std::string text = encode_snapshot(meta, store);

  HistoryStore decoded;
  auto meta2 = decode_snapshot(text, &decoded);
  ASSERT_TRUE(meta2.ok()) << meta2.error().to_string();
  EXPECT_EQ(meta2->world_tag, "tag");
  EXPECT_EQ(meta2->seq, meta.seq);
  EXPECT_EQ(decoded.next_seq(), meta.seq + 1);
  // Compaction round-trip: re-encoding reproduces the bytes exactly.
  EXPECT_EQ(encode_snapshot(*meta2, decoded), text);

  // Corruption anywhere in the body is caught by the trailing crc.
  std::string corrupt = text;
  corrupt[text.size() / 2] ^= 1;
  EXPECT_FALSE(decode_snapshot(corrupt, nullptr).ok());
  EXPECT_FALSE(decode_snapshot(text.substr(0, text.size() / 2), nullptr).ok());

  const std::string dir = make_temp_dir();
  const std::string path = dir + "/snapshot.dnsboot";
  ASSERT_TRUE(write_snapshot_file(path, meta, store).ok());
  HistoryStore from_file;
  auto meta3 = read_snapshot_file(path, &from_file);
  ASSERT_TRUE(meta3.ok());
  EXPECT_EQ(from_file.serialize(), store.serialize());
  std::filesystem::remove_all(dir);
}

// ---- strict integer fields ----------------------------------------------

// Spellings strtoull reads as numbers ("-1" wraps to 2^64-1, out-of-range
// saturates). The encoders never write them, so every decoder must refuse.
const char* const kBadIntegers[] = {"-1", "+7", " 7", "18446744073709551616"};

// The codecs' crc: FNV-1a over the preceding bytes as 16 hex digits.
// Re-sealing an edited record makes the field parser the only line of
// defense.
std::string crc_hex(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

std::string sealed_record(std::vector<std::string> fields) {
  fields.back().clear();  // the crc field, recomputed over the rest
  const std::string payload = join(fields, "\t");
  return payload + crc_hex(payload);
}

std::string sealed_snapshot(const std::vector<std::string>& header,
                            const std::string& body) {
  const std::string text = join(header, "\t") + "\n" + body + "end\t";
  return text + crc_hex(text) + "\n";
}

TEST(StrictFieldTest, JournalDecodeRejectsNonDigitIntegers) {
  const std::vector<std::string> fields =
      split(Journal::encode(sample_transition()), '\t');
  ASSERT_TRUE(Journal::decode(sealed_record(fields)).ok());
  for (std::size_t field : {1u, 2u}) {  // seq, at
    for (const char* bad : kBadIntegers) {
      std::vector<std::string> edited = fields;
      edited[field] = bad;
      EXPECT_FALSE(Journal::decode(sealed_record(edited)).ok())
          << "field " << field << " = '" << bad << "'";
    }
  }
}

TEST(StrictFieldTest, SnapshotHeaderRejectsNonDigitIntegers) {
  SnapshotMeta meta;
  meta.world_tag = "tag";
  meta.seq = 4;
  meta.at = 99;
  const std::string text = encode_snapshot(meta, store_with_walk());
  const std::size_t header_end = text.find('\n');
  const std::string body =
      text.substr(header_end + 1, text.rfind("end\t") - header_end - 1);
  const std::vector<std::string> header =
      split(text.substr(0, header_end), '\t');
  ASSERT_EQ(sealed_snapshot(header, body), text);
  for (std::size_t field : {2u, 3u}) {  // seq, at
    for (const char* bad : kBadIntegers) {
      std::vector<std::string> edited = header;
      edited[field] = bad;
      EXPECT_FALSE(decode_snapshot(sealed_snapshot(edited, body), nullptr).ok())
          << "field " << field << " = '" << bad << "'";
    }
  }
}

TEST(StrictFieldTest, HistoryRestoreRejectsNonDigitIntegers) {
  const std::string body = store_with_walk().serialize();
  const std::vector<std::string> fields =
      split(body.substr(0, body.find('\n')), '\t');
  HistoryStore intact;
  ASSERT_TRUE(intact.restore(join(fields, "\t") + "\n").ok());
  for (std::size_t field : {2u, 6u}) {  // phase_since (u64), probes (u32)
    for (const char* bad : kBadIntegers) {
      std::vector<std::string> edited = fields;
      edited[field] = bad;
      HistoryStore store;
      EXPECT_FALSE(store.restore(join(edited, "\t") + "\n").ok())
          << "field " << field << " = '" << bad << "'";
    }
  }
}

// ---- reporter ------------------------------------------------------------

TEST(ReporterTest, FoldsCurveKindsAndLatency) {
  AdoptionReporter reporter;
  Transition t;
  t.zone = name_of("a.example.ch.");
  t.seq = 1;
  t.at = 1000000;
  t.from = ZonePhase::kUnknown;
  t.to = ZonePhase::kCdsPublished;
  t.operator_name = "OpA";
  reporter.on_transition(t);
  t.seq = 2;
  t.at += 7200 * net::kSecond;  // 2h to bootstrap
  t.from = ZonePhase::kCdsPublished;
  t.to = ZonePhase::kDsBootstrapped;
  reporter.on_transition(t);

  EXPECT_EQ(reporter.transitions(), 2u);
  EXPECT_EQ(reporter.distinct_kinds(), 2u);
  ASSERT_EQ(reporter.curve().size(), 2u);
  EXPECT_EQ(reporter.curve()
                .back()
                .counts[static_cast<int>(ZonePhase::kDsBootstrapped)],
            1u);
  EXPECT_EQ(
      reporter.curve().back().counts[static_cast<int>(ZonePhase::kCdsPublished)],
      0u);

  const std::string json = reporter.to_json();
  EXPECT_NE(json.find("\"cds_published->ds_bootstrapped\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"OpA\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 2.000"), std::string::npos);

  const std::string csv = reporter.to_csv();
  EXPECT_EQ(csv.rfind("at_usec,unknown,insecure,cds_published", 0), 0u);
}

// ---- duration flags ------------------------------------------------------

TEST(DurationFlagTest, ParseDurationUnits) {
  std::uint64_t usec = 0;
  EXPECT_TRUE(cli::parse_duration("500ms", cli::kUsecPerSecond, &usec));
  EXPECT_EQ(usec, 500000u);
  EXPECT_TRUE(cli::parse_duration("90s", cli::kUsecPerSecond, &usec));
  EXPECT_EQ(usec, 90u * cli::kUsecPerSecond);
  EXPECT_TRUE(cli::parse_duration("15m", cli::kUsecPerSecond, &usec));
  EXPECT_EQ(usec, 15u * cli::kUsecPerMinute);
  EXPECT_TRUE(cli::parse_duration("1.5h", cli::kUsecPerSecond, &usec));
  EXPECT_EQ(usec, 90u * cli::kUsecPerMinute);
  EXPECT_TRUE(cli::parse_duration("30d", cli::kUsecPerSecond, &usec));
  EXPECT_EQ(usec, 30u * cli::kUsecPerDay);
  // Bare numbers take the flag's default unit.
  EXPECT_TRUE(cli::parse_duration("30", cli::kUsecPerDay, &usec));
  EXPECT_EQ(usec, 30u * cli::kUsecPerDay);
  EXPECT_TRUE(cli::parse_duration("0", cli::kUsecPerDay, &usec));
  EXPECT_EQ(usec, 0u);

  EXPECT_FALSE(cli::parse_duration("", cli::kUsecPerSecond, &usec));
  EXPECT_FALSE(cli::parse_duration("abc", cli::kUsecPerSecond, &usec));
  EXPECT_FALSE(cli::parse_duration("5w", cli::kUsecPerSecond, &usec));
  EXPECT_FALSE(cli::parse_duration("-5s", cli::kUsecPerSecond, &usec));
  EXPECT_FALSE(cli::parse_duration("1e300d", cli::kUsecPerSecond, &usec));
}

TEST(DurationFlagTest, FlagParserDuration) {
  std::uint64_t sim = 0;
  std::uint64_t snap = 0;
  cli::FlagParser parser("test");
  parser.duration("--sim-days", &sim, cli::kUsecPerDay, "window");
  parser.duration("--snapshot-every", &snap, cli::kUsecPerMinute, "cadence");
  const char* argv[] = {"prog", "--sim-days", "30", "--snapshot-every", "15m"};
  ASSERT_TRUE(parser.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(sim, 30u * cli::kUsecPerDay);
  EXPECT_EQ(snap, 15u * cli::kUsecPerMinute);

  const char* bad[] = {"prog", "--sim-days", "soon"};
  cli::FlagParser parser2("test");
  parser2.duration("--sim-days", &sim, cli::kUsecPerDay, "window");
  EXPECT_FALSE(parser2.parse(3, const_cast<char**>(bad)));
}

}  // namespace
}  // namespace dnsboot::longitudinal
