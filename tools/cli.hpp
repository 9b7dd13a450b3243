// Shared command-line flag parser for the dnsboot tools and benches. One
// declaration per flag binds a --name to a typed target variable; parse()
// consumes argv, validates, and on any
// problem prints the offending flag plus an auto-generated usage block to
// stderr — the caller exits 2. `--help` prints the same block to stdout.
//
// Header-only on purpose: the tools are single translation units and this
// stays out of the libraries.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace dnsboot::cli {

inline constexpr std::uint64_t kUsecPerMilli = 1'000;
inline constexpr std::uint64_t kUsecPerSecond = 1'000'000;
inline constexpr std::uint64_t kUsecPerMinute = 60 * kUsecPerSecond;
inline constexpr std::uint64_t kUsecPerHour = 3'600 * kUsecPerSecond;
inline constexpr std::uint64_t kUsecPerDay = 86'400 * kUsecPerSecond;

// Parse a human duration — "500ms", "90s", "15m", "2h", "30d", or a bare
// number taken as `default_unit_usec` — into microseconds. Fractions work
// ("1.5h"); negatives, junk suffixes, and overflow are rejected.
inline bool parse_duration(const std::string& text,
                           std::uint64_t default_unit_usec,
                           std::uint64_t* out_usec) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0) return false;
  const std::string suffix(end);
  std::uint64_t unit = default_unit_usec;
  if (suffix == "ms") {
    unit = kUsecPerMilli;
  } else if (suffix == "s") {
    unit = kUsecPerSecond;
  } else if (suffix == "m") {
    unit = kUsecPerMinute;
  } else if (suffix == "h") {
    unit = kUsecPerHour;
  } else if (suffix == "d") {
    unit = kUsecPerDay;
  } else if (!suffix.empty()) {
    return false;
  }
  const double usec = value * static_cast<double>(unit);
  if (usec > 9.0e18) return false;  // stays representable in uint64
  *out_usec = static_cast<std::uint64_t>(usec);
  return true;
}

// Parse a comma-separated list of counts — "1,4,8" — into *out. Every item
// must be digits only and at least `min`; an empty item, a sign, a suffix
// or overflow rejects the whole list and leaves *out untouched.
inline bool parse_counts(const std::string& text, std::size_t min,
                         std::vector<std::size_t>* out) {
  std::vector<std::size_t> counts;
  for (std::size_t start = 0;;) {
    const std::size_t comma = text.find(',', start);
    const std::string item = text.substr(start, comma - start);
    if (item.empty() || !std::isdigit(static_cast<unsigned char>(item[0]))) {
      return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || v < min) return false;
    counts.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  *out = std::move(counts);
  return true;
}

class FlagParser {
 public:
  explicit FlagParser(std::string summary) : summary_(std::move(summary)) {}

  // --name (no value): stores `value` into *target when present.
  FlagParser& flag(const std::string& name, bool* target,
                   const std::string& help, bool value = true) {
    entries_.push_back({name, "", help,
                        [target, value](const std::string&) {
                          *target = value;
                          return true;
                        }});
    return *this;
  }

  FlagParser& value(const std::string& name, std::string* target,
                    const std::string& metavar, const std::string& help) {
    entries_.push_back({name, metavar, help,
                        [target](const std::string& text) {
                          *target = text;
                          return true;
                        }});
    return *this;
  }

  // --name VALUE drawn from a fixed set (e.g. --chaos off|mild|hostile).
  FlagParser& choice(const std::string& name, std::string* target,
                     std::vector<std::string> choices,
                     const std::string& help) {
    std::string metavar;
    for (const std::string& c : choices) {
      if (!metavar.empty()) metavar += '|';
      metavar += c;
    }
    entries_.push_back({name, metavar, help,
                        [target, choices = std::move(choices)](
                            const std::string& text) {
                          for (const std::string& c : choices) {
                            if (text == c) {
                              *target = text;
                              return true;
                            }
                          }
                          return false;
                        }});
    return *this;
  }

  // Numeric flags. `min` is inclusive; values that fail to parse or fall
  // below it are rejected with the usage block.
  FlagParser& value(const std::string& name, double* target,
                    const std::string& help, double min) {
    entries_.push_back({name, "N", help,
                        [target, min](const std::string& text) {
                          char* end = nullptr;
                          double v = std::strtod(text.c_str(), &end);
                          if (end == text.c_str() || *end != '\0' || v < min) {
                            return false;
                          }
                          *target = v;
                          return true;
                        }});
    return *this;
  }

  FlagParser& value(const std::string& name, std::uint64_t* target,
                    const std::string& help, std::uint64_t min = 0) {
    entries_.push_back({name, "N", help,
                        [target, min](const std::string& text) {
                          char* end = nullptr;
                          std::uint64_t v =
                              std::strtoull(text.c_str(), &end, 10);
                          if (end == text.c_str() || *end != '\0' || v < min) {
                            return false;
                          }
                          *target = v;
                          return true;
                        }});
    return *this;
  }

  FlagParser& value(const std::string& name, std::uint32_t* target,
                    const std::string& help, std::uint32_t min = 0) {
    entries_.push_back({name, "N", help,
                        [target, min](const std::string& text) {
                          char* end = nullptr;
                          std::uint64_t v =
                              std::strtoull(text.c_str(), &end, 10);
                          if (end == text.c_str() || *end != '\0' || v < min ||
                              v > UINT32_MAX) {
                            return false;
                          }
                          *target = static_cast<std::uint32_t>(v);
                          return true;
                        }});
    return *this;
  }

  FlagParser& value(const std::string& name, int* target,
                    const std::string& help, int min) {
    entries_.push_back({name, "N", help,
                        [target, min](const std::string& text) {
                          char* end = nullptr;
                          long v = std::strtol(text.c_str(), &end, 10);
                          if (end == text.c_str() || *end != '\0' || v < min ||
                              v > INT32_MAX) {
                            return false;
                          }
                          *target = static_cast<int>(v);
                          return true;
                        }});
    return *this;
  }

  // --name N,N,...: a comma-separated list of counts (e.g. --threads 1,4,8)
  // replacing *target; see parse_counts.
  FlagParser& value(const std::string& name, std::vector<std::size_t>* target,
                    const std::string& help, std::size_t min) {
    entries_.push_back({name, "LIST", help,
                        [target, min](const std::string& text) {
                          return parse_counts(text, min, target);
                        }});
    return *this;
  }

  // --name DUR: human duration into *target_usec (microseconds). Bare
  // numbers are taken as `default_unit_usec`, so "--sim-days 30" and
  // "--snapshot-every 15m" both read naturally.
  FlagParser& duration(const std::string& name, std::uint64_t* target_usec,
                       std::uint64_t default_unit_usec,
                       const std::string& help) {
    entries_.push_back(
        {name, "DUR", help,
         [target_usec, default_unit_usec](const std::string& text) {
           return parse_duration(text, default_unit_usec, target_usec);
         }});
    return *this;
  }

  // Accept bare (non ``--``) arguments into *target, e.g. the file list of
  // dnsboot-audit. Without this, a bare argument is a usage error.
  FlagParser& positionals(std::vector<std::string>* target,
                          const std::string& metavar,
                          const std::string& help) {
    positionals_ = target;
    positional_metavar_ = metavar;
    positional_help_ = help;
    return *this;
  }

  // Returns false on any parse problem (after printing the usage block to
  // stderr); the conventional caller response is `return 2`. A bare
  // `--help`/`-h` prints usage to stdout and sets help_requested().
  bool parse(int argc, char** argv) {
    program_ = argc > 0 ? argv[0] : "dnsboot";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        help_requested_ = true;
        print_usage(stdout);
        return true;
      }
      if (positionals_ != nullptr && arg.rfind("--", 0) != 0) {
        positionals_->push_back(arg);
        continue;
      }
      const Entry* entry = nullptr;
      for (const Entry& candidate : entries_) {
        if (candidate.name == arg) {
          entry = &candidate;
          break;
        }
      }
      if (entry == nullptr) {
        std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
        print_usage(stderr);
        return false;
      }
      std::string text;
      if (!entry->metavar.empty()) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s requires a value\n", arg.c_str());
          print_usage(stderr);
          return false;
        }
        text = argv[++i];
      }
      if (!entry->set(text)) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", arg.c_str(),
                     text.c_str());
        print_usage(stderr);
        return false;
      }
    }
    return true;
  }

  bool help_requested() const { return help_requested_; }

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: %s [flags]%s%s\n%s\n\n", program_.c_str(),
                 positionals_ != nullptr ? " " : "",
                 positionals_ != nullptr ? positional_metavar_.c_str() : "",
                 summary_.c_str());
    if (positionals_ != nullptr) {
      std::fprintf(out, "  %s  %s\n\n", positional_metavar_.c_str(),
                   positional_help_.c_str());
    }
    std::fprintf(out, "flags:\n");
    std::size_t width = 0;
    for (const Entry& entry : entries_) {
      std::size_t w = entry.name.size() +
                      (entry.metavar.empty() ? 0 : entry.metavar.size() + 1);
      if (w > width) width = w;
    }
    for (const Entry& entry : entries_) {
      std::string left = entry.name;
      if (!entry.metavar.empty()) {
        left += ' ';
        left += entry.metavar;
      }
      std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), left.c_str(),
                   entry.help.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    std::string metavar;  // empty for presence flags
    std::string help;
    std::function<bool(const std::string&)> set;
  };

  std::string summary_;
  std::string program_;
  std::vector<Entry> entries_;
  std::vector<std::string>* positionals_ = nullptr;
  std::string positional_metavar_;
  std::string positional_help_;
  bool help_requested_ = false;
};

// The output surface every tool shares (DESIGN.md §11): one struct, one
// flag-declaration helper, so `--json`, `--metrics-json`, `--trace` and
// `--quiet` mean the same thing in dnsboot-survey, dnsboot-serve and
// dnsboot-lint instead of each main growing its own variants.
struct OutputOptions {
  std::string json_path;          // --json FILE: the tool's primary report
  std::string metrics_json_path;  // --metrics-json FILE: registry dump
  std::string trace_path;         // --trace FILE: sampled spans as JSONL
  bool quiet = false;             // --quiet: suppress progress output
};

// Which of the shared flags a tool exposes (dnsboot-serve has no report
// JSON; only dnsboot-survey traces) and the tool-specific help strings.
struct OutputFlagSet {
  bool with_json = true;
  bool with_trace = false;
  std::string json_help = "write the report as JSON";
  std::string quiet_help = "suppress progress output";
};

inline void add_output_flags(FlagParser& parser, OutputOptions* out,
                             const OutputFlagSet& set = {}) {
  if (set.with_json) {
    parser.value("--json", &out->json_path, "FILE", set.json_help);
  }
  parser.value("--metrics-json", &out->metrics_json_path, "FILE",
               "write the metrics registry as one-line JSON");
  if (set.with_trace) {
    parser.value("--trace", &out->trace_path, "FILE",
                 "write sampled trace spans as JSONL");
  }
  parser.flag("--quiet", &out->quiet, set.quiet_help);
}

// Shared "write whole file or complain" helper for the tools' outputs.
inline bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace dnsboot::cli
