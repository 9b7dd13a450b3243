// Monitor — the continuous longitudinal measurement service.
//
// Where dnsboot-survey scans a population once, the monitor keeps re-probing
// it: each zone gets its own cadence from ReprobeScheduler (hot while a
// bootstrap transition is in flight, decaying toward the weekly tier once
// quiet), due zones are coalesced into batches, each batch runs the regular
// Scanner + analyze_zone pipeline, and every probe folds into the
// HistoryStore. Changes become journal Transitions which feed the
// AdoptionReporter (incremental adoption curve / latency reports) and the
// dnsboot_monitor_* metrics family.
//
// Crash safety: an acknowledged transition is one Journal::append returned
// for. On restart the monitor re-simulates the identical world from sim time
// zero (the world-motion schedule and probe jitter are pure functions of the
// seed); regenerated transitions whose seq falls inside the recovered
// journal are verified byte-for-byte against it and not re-appended, later
// ones are appended as usual. A killed-and-restarted run therefore converges
// to the same journal bytes and the same reports as an uninterrupted one —
// scripts/monitor_smoke.sh diffs exactly that.
//
// DNSSEC validation time is pinned to the world's build time (eco.now):
// simulated days measure probe cadence and transition latency, not RRSIG
// aging — otherwise every builder-signed zone would expire mid-window and
// drown the signal.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/trust.hpp"
#include "analysis/zone_report.hpp"
#include "ecosystem/builder.hpp"
#include "longitudinal/journal.hpp"
#include "longitudinal/report.hpp"
#include "longitudinal/scheduler.hpp"
#include "longitudinal/world_motion.hpp"
#include "scanner/scanner.hpp"

namespace dnsboot::longitudinal {

struct MonitorOptions {
  std::uint64_t seed = 1;
  // Absolute sim-time horizon: no probe is scheduled at or beyond it, so
  // run() terminates once the last pre-horizon work drains.
  net::SimTime horizon = net::SimTime{30} * 86400 * net::kSecond;
  // Due zones are coalesced for this long before a batch scan starts.
  net::SimTime batch_window = net::SimTime{30} * net::kSecond;
  // First probes are spread uniformly over this window.
  net::SimTime initial_spread = net::SimTime{3600} * net::kSecond;
  // Consecutive unchanged bootstrapped probes before kMaintained.
  std::uint32_t stable_probes = 3;
  // Snapshot cadence (0 = disabled; requires state_dir).
  net::SimTime snapshot_every = 0;
  // Journal/snapshot directory ("" = in-memory only, nothing persisted).
  std::string state_dir;

  CadenceOptions cadence;
  scanner::ScannerOptions scanner;  // per-batch seed is derived, not this one
};

class Monitor {
 public:
  // `motion` is the generator of world mutations the monitor observes
  // (kasp::PolicyClock). The monitor arms it in
  // start() and mixes its name into the world tag; nullptr = a static world.
  // The motion must outlive the monitor.
  Monitor(net::Transport& network, ecosystem::Ecosystem& eco,
          MonitorOptions options, WorldMotion* motion = nullptr);

  // Recover + open the journal, arm the world motion, seed the initial probe
  // schedule, arm the snapshot timer. Call once, then run().
  Status start();

  // Drive the network until every scheduled probe before the horizon has
  // completed (sim mode: returns when the event queue drains).
  void run() { network_.run(); }

  const HistoryStore& history() const { return history_; }
  const AdoptionReporter& reporter() const { return reporter_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const std::string& world_tag() const { return world_tag_; }

  std::uint64_t probes_completed() const { return probes_completed_; }
  std::uint64_t batches_run() const { return batches_run_; }
  std::uint64_t journal_replayed() const { return journal_replayed_; }
  std::uint64_t journal_appended() const { return journal_appended_; }
  std::uint64_t journal_mismatches() const { return journal_mismatches_; }
  std::uint64_t snapshots_written() const { return snapshots_written_; }

  // Write a compacted snapshot now (also used by the periodic timer).
  Status write_snapshot();
  std::string snapshot_path() const;

 private:
  struct Batch {
    std::uint64_t seq = 0;
    std::vector<dns::Name> zones;
    std::unique_ptr<scanner::Scanner> scanner;
    std::vector<scanner::ZoneObservation> observations;
  };

  void schedule_zone(const dns::Name& zone, net::SimTime delay);
  void zone_due(const dns::Name& zone);
  void flush_batch();
  void finish_batch(std::uint64_t seq);
  void fold_observation(const scanner::ZoneObservation& obs,
                        const analysis::TrustContext& trust);
  void handle_transition(const Transition& transition);
  void arm_snapshot_timer();
  void refresh_gauges();

  net::Transport& network_;
  ecosystem::Ecosystem& eco_;
  MonitorOptions options_;
  WorldMotion* motion_;
  Rng rng_;
  std::string world_tag_;

  resolver::QueryEngine engine_;
  resolver::DelegationResolver resolver_;
  analysis::OperatorIdentifier operators_;

  obs::MetricsRegistry metrics_;
  // Gauges refresh_gauges() sets after every batch, looked up once.
  std::array<obs::Gauge*, kZonePhaseCount> phase_gauges_{};
  obs::Gauge& history_arena_gauge_{
      metrics_.gauge("dnsboot_monitor_history_arena_bytes")};
  HistoryStore history_;
  AdoptionReporter reporter_{&metrics_};
  ReprobeScheduler scheduler_;

  std::optional<Journal> journal_;
  std::vector<std::string> recovered_lines_;  // seq i+1 -> verbatim line

  // Batch coalescing state. pending_ is sorted+deduped at flush time.
  std::vector<dns::Name> pending_;
  bool flush_scheduled_ = false;
  std::uint64_t batch_seq_ = 0;
  std::map<std::uint64_t, std::shared_ptr<Batch>> active_batches_;

  // Infrastructure hand-off across batches: each batch's Scanner adopts
  // this read-only snapshot instead of re-capturing root/TLD state. Null
  // until the first batch finishes.
  std::shared_ptr<const scanner::InfrastructureSnapshot> infra_;
  // Cached trust context: rebuilding it re-validates every TLD chain
  // (crypto), so it is only redone when the snapshot actually grows.
  std::optional<analysis::TrustContext> trust_;
  std::size_t trust_tld_count_ = 0;

  std::uint64_t probes_completed_ = 0;
  std::uint64_t batches_run_ = 0;
  std::uint64_t journal_replayed_ = 0;
  std::uint64_t journal_appended_ = 0;
  std::uint64_t journal_mismatches_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t zones_retired_ = 0;
};

}  // namespace dnsboot::longitudinal
