// Scanner — YoDNS-style orchestration (paper §3): resolve each zone's
// delegation, query *every* authoritative nameserver for the DNSSEC-relevant
// RRsets, probe the RFC 9615 signaling names, and emit raw ZoneObservations.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "scanner/observation.hpp"

namespace dnsboot::scanner {

struct ScannerOptions {
  // Probe the RFC 9615 signaling names.
  bool scan_signal_zones = true;

  // Cloudflare pool sampling (§3): scan most zones with a large endpoint
  // set at one IPv4 + one IPv6 endpoint only (thresholds in scanner.cpp).
  bool enable_pool_sampling = true;

  // Bounded end-of-scan requeue: zones whose observation carries transient
  // failures are rescanned (after the main queue drains) up to this many
  // total passes, and the best observation per zone is delivered once.
  // 1 = no requeue (the seed behavior).
  int max_scan_attempts = 1;

  std::uint64_t seed = 0x5ca11ab1e;

  // Pre-captured infrastructure hand-off (continuous monitoring): when set,
  // the snapshot is adopted and the root-DNSKEY / already-covered TLD
  // captures are skipped — a re-probe batch reuses the previous batch's
  // infrastructure instead of re-fetching it. TLDs absent from the snapshot
  // are still captured on demand. Shared and read-only, so overlapping
  // batches adopt one snapshot without copying it.
  std::shared_ptr<const InfrastructureSnapshot> infrastructure;

  // Optional zone-lifecycle tracing (obs/trace.hpp): every started zone
  // scan is a sampling candidate; sampled ones record a "zone" span from
  // scan start to delivery with the outcome class. Not owned.
  obs::Tracer* tracer = nullptr;
};

// Registry-backed counter view (obs/stats.hpp): fields read like the old
// plain-uint64 struct but live in the scanner's MetricsRegistry as
// dnsboot_scanner_* counters; shard merging is MetricsRegistry::merge.
using ScannerStats = obs::ScannerStats;

class Scanner {
 public:
  using ZoneCallback = std::function<void(ZoneObservation)>;

  Scanner(net::Transport& network, resolver::QueryEngine& engine,
          resolver::DelegationResolver& resolver, ScannerOptions options);

  // Enqueue zones for scanning. Observations are delivered via `on_zone`
  // as they complete. Call run() afterwards to drive the simulation.
  void scan(std::vector<dns::Name> zones, ZoneCallback on_zone);

  // Drive the simulated network until all scheduled work completes.
  void run();

  const ScannerStats& stats() const { return stats_; }
  // The adopted snapshot plus this scan's captures: the adopted snapshot
  // itself when the scan captured no TLD. Moves the captures out, so only
  // for a scanner whose scan is over.
  std::shared_ptr<const InfrastructureSnapshot> take_infrastructure();
  // The scanner's dnsboot_scanner_* counters and per-zone scan-duration
  // histogram; run_survey merges this into the survey-wide registry.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct ZoneTask;
  struct SignalTask;

  void start_next_zones();
  void start_zone(const dns::Name& zone, int attempt);
  void zone_finished(std::shared_ptr<ZoneTask> task);
  void finalize_completeness(ZoneObservation& obs) const;
  void deliver_zone(ZoneObservation obs);
  void apply_pool_sampling(ZoneObservation& obs);
  void probe_endpoints(std::shared_ptr<ZoneTask> task);
  void start_signal_probes(std::shared_ptr<ZoneTask> task);
  void run_signal_task(std::shared_ptr<ZoneTask> task,
                       std::shared_ptr<SignalTask> signal);
  void capture_tld(const dns::Name& tld);
  void capture_root_dnskey();

  RRsetProbe make_probe_result(const dns::Name& ns,
                               const net::IpAddress& endpoint,
                               const dns::Name& qname, dns::RRType qtype,
                               const Result<dns::Message>& response);

  net::Transport& network_;
  resolver::QueryEngine& engine_;
  resolver::DelegationResolver& resolver_;
  ScannerOptions options_;
  Rng rng_;
  // Liveness token: async callbacks hold a weak reference and become no-ops
  // once the Scanner is destroyed (callbacks can outlive it inside the
  // engine/resolver queues).
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);

  // (zone, attempt) pairs; requeue_ collects rescans until the main queue
  // drains, bounding the extra passes to max_scan_attempts - 1 per zone.
  std::deque<std::pair<dns::Name, int>> queue_;
  std::deque<std::pair<dns::Name, int>> requeue_;
  // Best observation so far for zones held back for a rescan (keyed by the
  // zone Name's cached canonical text); delivery is keep-better and
  // exactly-once. None of these tables is ever iterated, so hashed lookup
  // is safe for determinism.
  std::unordered_map<std::string, ZoneObservation> pending_best_;
  std::size_t active_zones_ = 0;
  ZoneCallback on_zone_;
  // Registry before its views (members initialize in declaration order).
  obs::MetricsRegistry metrics_;
  ScannerStats stats_{metrics_};
  obs::Histogram& zone_histogram_{
      metrics_.histogram("dnsboot_scanner_zone_usec")};
  // What this scan captured beyond options_.infrastructure: the root
  // DNSKEY when nothing was adopted, and TLDs the adopted snapshot lacks.
  InfrastructureSnapshot captured_;
  std::unordered_map<std::string, bool> tld_capture_started_;
  bool root_capture_started_ = false;

  // Cache of operator-zone delegations for signal probing (one operator
  // hosts many zones; resolving its zone once is the YoDNS dependency-tree
  // reuse).
  std::unordered_map<std::string, std::shared_ptr<Result<resolver::Delegation>>>
      operator_delegations_;
  std::unordered_map<
      std::string,
      std::vector<std::function<void(const Result<resolver::Delegation>&)>>>
      operator_waiters_;
};

// The RFC 9615 signaling name for (child, ns):
//   _dsboot.<child-labels>._signal.<ns-labels>
// Fails when the result would exceed the 255-octet name limit — one of the
// standard's documented bootstrapping gaps (§2 "DS Bootstrapping Limitations").
Result<dns::Name> signaling_name(const dns::Name& child, const dns::Name& ns);

// The registrable domain (direct child of a public suffix) that contains
// `host`, under the simulation's single-label-TLD model.
dns::Name registrable_domain_of(const dns::Name& host);

}  // namespace dnsboot::scanner
