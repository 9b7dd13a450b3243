// Rule registry for dnsboot-audit, the concurrency/determinism source
// auditor (DESIGN.md §12). Mirrors the shape of src/lint's registry: every
// check is a registered rule with a stable code (A0xx), a kebab-case name,
// a severity and a one-line rationale, so reporters, tests and the CI gate
// all speak the same vocabulary.
//
// The audited contract is the repo's own: survey output must be
// byte-identical at any thread count (ROADMAP north star), every shared
// mutable field names its lock (GUARDED_BY -> clang -Wthread-safety), and
// relaxed atomic *writes* are legal only in the blessed single-writer
// counter pattern (obs/metrics.hpp) or under an explicit, per-line waiver
// ("// audit-allow: A004 <reason>").
#pragma once

#include <string_view>
#include <vector>

namespace dnsboot::audit {

enum class Severity {
  kWarning,  // suspicious; build does not have to stop
  kError,    // contract violation; dnsboot-audit exits non-zero
};

std::string_view to_string(Severity severity);

enum class RuleId {
  kUnorderedSerialization,  // A001: unordered iteration in a serializer
  kBannedNondeterminism,    // A002: wall clock / PRNG / pointer-keyed order
  kRawMutexMember,          // A003: raw std::mutex member or unguarded Mutex
  kRelaxedAtomicWrite,      // A004: relaxed store/RMW outside blessed seams
  kVolatileQualifier,       // A005: volatile used as a concurrency tool
  kThreadDetach,            // A006: detached thread escapes join discipline
  kFullWorldCopy,           // A007: by-value Ecosystem/Zone copy outside
                            //       the blessed builder/plan files
};

struct RuleInfo {
  RuleId id;
  std::string_view code;       // "A001"
  std::string_view name;       // "unordered-serialization"
  Severity severity;
  std::string_view rationale;  // one line: why this breaks the contract
};

// Every registered rule, in code order.
const std::vector<RuleInfo>& all_rules();

// Metadata for one rule (the registry is total over RuleId).
const RuleInfo& rule_info(RuleId id);

}  // namespace dnsboot::audit
