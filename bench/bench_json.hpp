// Machine-readable bench output. Every survey-style bench writes a
// BENCH_<name>.json next to its human-readable tables so the repo's perf
// trajectory can be tracked (and gated in CI) without log scraping.
//
// The builder is append-only and supports flat fields plus one level of
// array-of-objects nesting — all the bench schema needs. Keys are emitted in
// insertion order so diffs between runs stay line-stable. The peak-RSS
// helpers below feed the benches' memory fields.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace dnsboot::bench {

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    stack_.push_back(false);
    add("bench", name_);
  }

  BenchJson& add(const std::string& key, const std::string& value) {
    member(key);
    out_ += quote(value);
    return *this;
  }
  BenchJson& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  BenchJson& add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    member(key);
    out_ += buf;
    return *this;
  }
  BenchJson& add(const std::string& key, std::uint64_t value) {
    member(key);
    out_ += std::to_string(value);
    return *this;
  }
  BenchJson& add(const std::string& key, int value) {
    return add(key, static_cast<std::uint64_t>(value));
  }
  BenchJson& add(const std::string& key, bool value) {
    member(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  // Latency summary from an obs::Histogram as a nested object:
  // "key": {"count": N, "sum": S, "p50": X, "p99": Y}. The registry is the
  // one source of latency truth (DESIGN.md §11); benches just pick which
  // histograms belong in their BENCH_*.json.
  BenchJson& add_histogram(const std::string& key, const obs::Histogram& h) {
    member(key);
    out_ += '{';
    stack_.push_back(false);
    add("count", h.count());
    add("sum", h.sum());
    add("p50", h.quantile(0.50));
    add("p99", h.quantile(0.99));
    out_ += '}';
    stack_.pop_back();
    return *this;
  }

  BenchJson& begin_array(const std::string& key) {
    member(key);
    out_ += '[';
    stack_.push_back(false);
    return *this;
  }
  BenchJson& end_array() {
    out_ += ']';
    stack_.pop_back();
    return *this;
  }
  BenchJson& begin_object() {
    comma();
    out_ += '{';
    stack_.push_back(false);
    return *this;
  }
  BenchJson& end_object() {
    out_ += '}';
    stack_.pop_back();
    return *this;
  }

  std::string to_json() const { return "{" + out_ + "}\n"; }
  std::string default_path() const { return "BENCH_" + name_ + ".json"; }

  // Write to `path` (default BENCH_<name>.json in the working directory)
  // and report where it went. Returns false on I/O failure.
  bool write(const std::string& path = "") const {
    const std::string target = path.empty() ? default_path() : path;
    std::ofstream file(target, std::ios::binary);
    if (!file) return false;
    file << to_json();
    if (!file) return false;
    std::printf("wrote %s\n", target.c_str());
    return true;
  }

 private:
  void comma() {
    if (stack_.back()) out_ += ", ";
    stack_.back() = true;
  }
  void member(const std::string& key) {
    comma();
    out_ += quote(key);
    out_ += ": ";
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::string name_;
  std::string out_;
  std::vector<bool> stack_;  // need-comma flag per nesting level
};

// Reset the kernel's peak-RSS watermark to the current RSS. Returns false
// when /proc/self/clear_refs is unavailable (non-Linux, restricted
// container); callers then report peak-since-process-start instead.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
}

// Peak RSS (VmHWM) in bytes from /proc/self/status; 0 when unreadable.
inline std::uint64_t read_peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace dnsboot::bench
