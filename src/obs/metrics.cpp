#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>

namespace dnsboot::obs {

namespace {

// %.6g without locale surprises; integers print without a trailing ".0" so
// counters read naturally in both expositions.
std::string format_double(double v) {
  char buffer[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  }
  return buffer;
}

// `name{rcode="0"}` -> base `name`; exposition groups family members under
// one # TYPE header keyed by the base.
std::string_view base_name(std::string_view key) {
  auto brace = key.find('{');
  return brace == std::string_view::npos ? key : key.substr(0, brace);
}

void append_json_key(std::string* out, std::string_view key) {
  out->push_back('"');
  for (char c : key) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

const std::vector<std::uint64_t>& Histogram::default_latency_bounds_usec() {
  static const std::vector<std::uint64_t> bounds = {
      100,     250,     500,      1000,     2500,     5000,    10000,
      25000,   50000,   100000,   250000,   500000,   1000000, 2500000,
      5000000, 10000000};
  return bounds;
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

Histogram::Histogram(const Histogram& other)
    : bounds_(other.bounds_),
      counts_(other.counts_),
      count_(other.count_),
      sum_(other.sum_) {}

Histogram& Histogram::operator=(const Histogram& other) {
  bounds_ = other.bounds_;
  counts_ = other.counts_;
  count_ = other.count_;
  sum_ = other.sum_;
  return *this;
}

void Histogram::observe(std::uint64_t value) {
  std::size_t index = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      index = i;
      break;
    }
  }
  counts_[index].add(1);
  count_.add(1);
  sum_.add(value);
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket = counts_[i].get();
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      // Linear interpolation inside the covering bucket. The +Inf bucket has
      // no upper edge; report its lower edge (the best bounded estimate).
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
      if (i == bounds_.size()) return lower;
      const double upper = static_cast<double>(bounds_[i]);
      const double into =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * into;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(bounds_.empty() ? 0 : bounds_.back());
}

void Histogram::merge(const Histogram& other) {
  count_.add(other.count());
  sum_.add(other.sum());
  if (bounds_ == other.bounds_) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i].add(other.counts_[i].get());
    }
  } else if (!counts_.empty()) {
    // Mismatched ladders can't be folded bucket-wise; keep the totals honest
    // by dumping the other side into +Inf.
    counts_.back().add(other.count());
  }
}

void Histogram::verify_reset_writers() {
  for (Counter& c : counts_) c.verify_reset_writer();
  count_.verify_reset_writer();
  sum_.verify_reset_writer();
}

void MetricsRegistry::verify_reset_writers() {
  for (auto& [name, counter] : counters_) {
    (void)name;
    counter.verify_reset_writer();
  }
  for (auto& [name, histogram] : histograms_) {
    (void)name;
    histogram.verify_reset_writers();
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter()).first;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view label_key,
                                  std::string_view label_value) {
  std::string key;
  key.reserve(name.size() + label_key.size() + label_value.size() + 5);
  key.append(name);
  key.push_back('{');
  key.append(label_key);
  key.append("=\"");
  key.append(label_value);
  key.append("\"}");
  return counter(key);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge()).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::uint64_t> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(std::move(bounds)))
             .first;
  }
  return it->second;
}

void MetricsRegistry::set_help(std::string_view name, std::string_view help) {
  help_[std::string(name)] = std::string(help);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counter(name).add(value.get());
  }
  for (const auto& [name, value] : other.gauges_) {
    Gauge& total = gauge(name);
    total.set(total.get() + value.get());
  }
  for (const auto& [name, value] : other.histograms_) {
    histogram(name, value.bounds()).merge(value);
  }
  for (const auto& [name, text] : other.help_) {
    help_.emplace(name, text);
  }
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.get();
}

bool MetricsRegistry::has_counter(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::to_prometheus() const {
  std::string out;
  out.reserve(4096);
  auto emit_headers = [&](std::string_view base, const char* type) {
    auto help = help_.find(base);
    if (help != help_.end()) {
      out.append("# HELP ").append(base).append(" ").append(help->second);
      out.push_back('\n');
    }
    out.append("# TYPE ").append(base).append(" ").append(type);
    out.push_back('\n');
  };

  std::string_view last_base;
  for (const auto& [key, value] : counters_) {
    std::string_view base = base_name(key);
    if (base != last_base) {
      emit_headers(base, "counter");
      last_base = base;
    }
    out.append(key).push_back(' ');
    out.append(std::to_string(value.get()));
    out.push_back('\n');
  }
  for (const auto& [key, value] : gauges_) {
    emit_headers(key, "gauge");
    out.append(key).push_back(' ');
    out.append(format_double(value.get()));
    out.push_back('\n');
  }
  for (const auto& [key, value] : histograms_) {
    emit_headers(key, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < value.bounds().size(); ++i) {
      cumulative += value.bucket_count(i);
      out.append(key).append("_bucket{le=\"");
      out.append(std::to_string(value.bounds()[i]));
      out.append("\"} ").append(std::to_string(cumulative));
      out.push_back('\n');
    }
    cumulative += value.bucket_count(value.bounds().size());
    out.append(key).append("_bucket{le=\"+Inf\"} ");
    out.append(std::to_string(cumulative));
    out.push_back('\n');
    out.append(key).append("_sum ").append(std::to_string(value.sum()));
    out.push_back('\n');
    out.append(key).append("_count ").append(std::to_string(value.count()));
    out.push_back('\n');
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::string out;
  out.reserve(4096);
  out.append("{\"counters\":{");
  bool first = true;
  for (const auto& [key, value] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    append_json_key(&out, key);
    out.push_back(':');
    out.append(std::to_string(value.get()));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [key, value] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    append_json_key(&out, key);
    out.push_back(':');
    out.append(format_double(value.get()));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [key, value] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    append_json_key(&out, key);
    out.append(":{\"count\":").append(std::to_string(value.count()));
    out.append(",\"sum\":").append(std::to_string(value.sum()));
    out.append(",\"p50\":").append(format_double(value.quantile(0.5)));
    out.append(",\"p99\":").append(format_double(value.quantile(0.99)));
    out.append(",\"buckets\":[");
    for (std::size_t i = 0; i < value.bounds().size(); ++i) {
      if (i != 0) out.push_back(',');
      out.push_back('[');
      out.append(std::to_string(value.bounds()[i]));
      out.push_back(',');
      out.append(std::to_string(value.bucket_count(i)));
      out.push_back(']');
    }
    if (!value.bounds().empty()) out.push_back(',');
    out.append("[-1,");
    out.append(std::to_string(value.bucket_count(value.bounds().size())));
    out.append("]]}");
  }
  out.append("}}");
  return out;
}

}  // namespace dnsboot::obs
