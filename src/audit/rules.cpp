#include "audit/rules.hpp"

namespace dnsboot::audit {

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> rules = {
      {RuleId::kUnorderedSerialization, "A001", "unordered-serialization",
       Severity::kError,
       "iterating an unordered container inside a serializer makes report "
       "bytes depend on hash order, breaking run-to-run identity"},
      {RuleId::kBannedNondeterminism, "A002", "banned-nondeterminism",
       Severity::kError,
       "wall-clock and PRNG calls (time, rand, random_device, system_clock) "
       "and pointer-keyed ordered containers vary across runs; only seeded "
       "state and monotonic clocks are allowed"},
      {RuleId::kRawMutexMember, "A003", "raw-mutex-member", Severity::kError,
       "a raw std::mutex member carries no capability annotation, so clang "
       "-Wthread-safety cannot check it; use base::Mutex and GUARDED_BY"},
      {RuleId::kRelaxedAtomicWrite, "A004", "relaxed-atomic-write",
       Severity::kError,
       "a relaxed store/RMW is sound only in the single-writer counter "
       "pattern (obs/metrics.hpp) or with a per-site audit-allow waiver"},
      {RuleId::kVolatileQualifier, "A005", "volatile-qualifier",
       Severity::kError,
       "volatile is not a synchronization primitive; std::atomic expresses "
       "the intent and is checkable (sig_atomic_t handlers exempt)"},
      {RuleId::kThreadDetach, "A006", "thread-detach", Severity::kError,
       "a detached thread outlives scoped ownership and races shutdown; "
       "every thread in this codebase is joined"},
      {RuleId::kFullWorldCopy, "A007", "full-world-copy", Severity::kError,
       "a by-value Ecosystem/Zone duplicates an entire zone population; "
       "outside the builder/plan layer pass const& (or build the shard "
       "slice in place) so the pre-streaming full-world-copy pattern "
       "cannot return"},
  };
  return rules;
}

const RuleInfo& rule_info(RuleId id) {
  for (const RuleInfo& rule : all_rules()) {
    if (rule.id == id) return rule;
  }
  return all_rules().front();  // unreachable: the registry is total
}

}  // namespace dnsboot::audit
