// Metrics core — a lock-cheap registry of counters, gauges and fixed-bucket
// latency histograms, the one place every subsystem's operational counters
// live (DESIGN.md §11).
//
// Concurrency contract (what makes it lock-cheap):
//   * Metric *creation* (counter()/gauge()/histogram(), which may mutate the
//     name maps) is single-threaded setup work. Every instrumented component
//     creates all of its metrics in its constructor and keeps raw handles;
//     hot paths never touch a map.
//   * Metric *updates* are relaxed atomics — safe from the owning thread
//     while any other thread snapshots (copies / merges / exposes) the
//     registry, which is how dnsboot-serve scrapes live workers.
//   * There are no locks anywhere; the registry never blocks a hot path.
//
// Determinism contract: all maps are ordered by full metric name, merge() is
// name-keyed addition, and the JSON/Prometheus expositions walk the maps in
// order — so per-shard registries merged in shard order produce byte-
// identical output for every thread count (the same guarantee the survey
// reports already have, DESIGN.md §9).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#if defined(DNSBOOT_VERIFY)
#include "base/verify.hpp"
#endif

namespace dnsboot::obs {

// Monotonically increasing event count. Single-writer: add() is a relaxed
// load+store (a plain add in codegen — no `lock` prefix on the hot path),
// which is exactly as cheap as the raw uint64_t fields it replaces and
// still torn-read-free for a concurrent scrape thread. Each counter has one
// owning writer (a component on its own thread); cross-thread aggregation
// happens by merging registry copies, never by concurrent add().
//
// Under DNSBOOT_VERIFY that contract is enforced: the first add() tags the
// counter with its writer thread and any later add() from another thread
// fails (verify.hpp), unless the owning component declared an ownership
// handoff via verify_reset_writer() at a point with a happens-before edge.
class Counter {
 public:
  Counter() = default;
  // Copies are snapshots: they take the value, not the writer claim.
  Counter(const Counter& other) : value_(other.get()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.get(), std::memory_order_relaxed);
#if defined(DNSBOOT_VERIFY)
    writer_.reset();
#endif
    return *this;
  }

  void add(std::uint64_t n) {
#if defined(DNSBOOT_VERIFY)
    writer_.on_write(this);
#endif
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }

  // Release the single-writer claim at a documented handoff seam (no-op
  // without DNSBOOT_VERIFY). See MetricsRegistry::verify_reset_writers().
  void verify_reset_writer() {
#if defined(DNSBOOT_VERIFY)
    writer_.reset();
#endif
  }

 private:
  std::atomic<std::uint64_t> value_{0};
#if defined(DNSBOOT_VERIFY)
  verify::SingleWriter writer_;
#endif
};

// Point-in-time value (uptime, worker count, queue depth). Set-style.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other) : value_(other.get()) {}
  Gauge& operator=(const Gauge& other) {
    value_.store(other.get(), std::memory_order_relaxed);
    return *this;
  }

  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram over unsigned values (latencies in microseconds).
// Buckets are inclusive upper bounds plus an implicit +Inf bucket; p50/p99
// are estimated by linear interpolation inside the covering bucket, which
// is deterministic and plenty for scan telemetry.
class Histogram {
 public:
  // The default latency ladder: 100µs .. 10s, roughly 1-2.5-5 per decade.
  static const std::vector<std::uint64_t>& default_latency_bounds_usec();

  explicit Histogram(std::vector<std::uint64_t> bounds =
                         default_latency_bounds_usec());
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void observe(std::uint64_t value);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  // Per-bucket (non-cumulative) count; index bounds_.size() is +Inf.
  std::uint64_t bucket_count(std::size_t index) const {
    return counts_[index].get();
  }
  std::uint64_t count() const { return count_.get(); }
  std::uint64_t sum() const { return sum_.get(); }

  // Estimated quantile, q in [0, 1]. 0 when empty.
  double quantile(double q) const;

  // Bucket-wise addition. Requires identical bounds (all dnsboot histograms
  // of one name share them); mismatched bounds fold count/sum only.
  void merge(const Histogram& other);

  // Handoff seam for the DNSBOOT_VERIFY single-writer check (no-op without).
  void verify_reset_writers();

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<Counter> counts_;  // bounds_.size() + 1 (the +Inf bucket)
  Counter count_;
  Counter sum_;
};

// The registry: named metrics, ordered maps, deterministic merge and
// exposition. Copyable (a copy is a consistent-enough snapshot: each value
// is read atomically; cross-counter skew is acceptable for telemetry).
class MetricsRegistry {
 public:
  // Get-or-create. The returned reference is stable for the registry's
  // lifetime (node-based maps). Setup-time only; see the header comment.
  Counter& counter(std::string_view name);
  // Labeled family member: stored under `name{key="value"}` so the flat key
  // IS the Prometheus exposition sample name.
  Counter& counter(std::string_view name, std::string_view label_key,
                   std::string_view label_value);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds =
                           Histogram::default_latency_bounds_usec());

  // Optional # HELP text, keyed by base metric name.
  void set_help(std::string_view name, std::string_view help);

  // Name-keyed addition of counters, histograms and gauges. A gauge that
  // reaches a merge is a per-component amount (one server's cached bytes),
  // so the merged value is the total across components.
  void merge(const MetricsRegistry& other);

  // Reads. counter_value() returns 0 for unknown names (absent == never
  // incremented), which keeps assertions on merged registries total.
  std::uint64_t counter_value(std::string_view name) const;
  bool has_counter(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // Prometheus text exposition format (version 0.0.4): # HELP/# TYPE per
  // base name, histogram as cumulative _bucket/_sum/_count samples.
  std::string to_prometheus() const;
  // One-line JSON dump: {"counters":{...},"gauges":{...},"histograms":{...}}
  // with keys in map (name) order — byte-stable across merges of the same
  // data in the same order.
  std::string to_json() const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Release every counter's single-writer claim (DNSBOOT_VERIFY only,
  // otherwise a no-op). Call exactly at ownership-handoff seams — points
  // with a real happens-before edge between the old and new writer thread,
  // like WireTransport::run_forever() entry after setup on a builder
  // thread. Anywhere else this call would mask genuine races.
  void verify_reset_writers();

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

}  // namespace dnsboot::obs
