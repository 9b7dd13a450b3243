#include "resolver/query_engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>
#include <type_traits>

namespace dnsboot::resolver {

namespace {

// Birthday-attack detection: after this many rejected response candidates
// attributed to one pending question, the engine abandons the UDP race and
// re-queries over TCP (which an off-path attacker cannot join), marking the
// server under_attack.
constexpr int kForgeryAbortThreshold = 8;
// A server whose responses hit this many wrong-destination-port rejections
// is marked under_attack even without a per-query abort.
constexpr int kPortMismatchMarkThreshold = 4;

}  // namespace

QueryEngineOptions resilient_query_options() {
  QueryEngineOptions options;
  options.attempts = 4;
  options.timeout_multiplier = 2.0;
  options.backoff_base = 50 * net::kMillisecond;
  options.backoff_cap = 2 * net::kSecond;
  options.retry_budget_ratio = 1.5;
  options.health.enable_circuit_breaker = true;
  options.health.enable_servfail_cache = true;
  return options;
}

QueryEngine::QueryEngine(net::Transport& network,
                         net::IpAddress local_address,
                         QueryEngineOptions options)
    : network_(network),
      local_address_(local_address),
      options_(options),
      health_(options.health),
      rng_(options.seed) {
  network_.bind(local_address_,
                [this](const net::Datagram& dgram) { handle_datagram(dgram); });
}

std::uint16_t QueryEngine::allocate_id() {
  if (options_.randomize_ids) {
    // Random 16-bit IDs (RFC 5452 §9.2): an off-path spoofer has to win a
    // 1-in-65535 lottery per candidate. A few draws before the sequential
    // fallback: the scanner bounds concurrency well below 65k, so a
    // collision is already rare at the first draw.
    for (int tries = 0; tries < 64; ++tries) {
      auto id = static_cast<std::uint16_t>(rng_.next_below(0x10000));
      if (id != 0 && pending_.find(id) == pending_.end()) return id;
    }
  }
  for (int tries = 0; tries < 0x10000; ++tries) {
    std::uint16_t id = next_id_++;
    if (id != 0 && pending_.find(id) == pending_.end()) return id;
  }
  return 0;  // exhausted (callers treat as overload)
}

std::size_t QueryEngine::QuestionKeyHash::operator()(
    const QuestionKey& key) const noexcept {
  std::size_t h = net::IpAddressHash{}(key.server);
  h ^= std::hash<std::string_view>{}(key.qname.canonical_text()) +
       0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= (static_cast<std::size_t>(key.qtype) + 0x9e3779b97f4a7c15ull) +
       (h << 6) + (h >> 2);
  return h;
}

void QueryEngine::index_question(std::uint16_t id, const Pending& p) {
  pending_by_question_.emplace(QuestionKey{p.server, p.qname, p.qtype}, id);
}

void QueryEngine::unindex_question(std::uint16_t id, const Pending& p) {
  auto it = pending_by_question_.find(QuestionKey{p.server, p.qname, p.qtype});
  if (it != pending_by_question_.end() && it->second == id) {
    pending_by_question_.erase(it);
  }
}

void QueryEngine::mark_under_attack(const net::IpAddress& server) {
  if (under_attack_.insert(server).second) ++defense_.servers_marked;
}

void QueryEngine::count_forged_candidate(std::uint16_t id, Pending& p) {
  ++defense_.forged_rejected;
  ++p.forged_candidates;
  if (p.forgery_aborted || p.forged_candidates < kForgeryAbortThreshold) {
    return;
  }
  // Birthday attack in progress: someone is sweeping candidates at this
  // exact question. Stop racing the attacker on UDP — re-issue over TCP,
  // which an off-path spoofer cannot join (RFC 5452 §9.3).
  p.forgery_aborted = true;
  mark_under_attack(p.server);
  ++defense_.forgery_aborts;
  if (!p.use_tcp) {
    network_.cancel(p.timeout_timer);
    p.use_tcp = true;
    ++p.attempts_left;  // the defensive re-query is not a lost attempt
    send_attempt(id);
  }
}

void QueryEngine::note_forged_candidate(const net::Datagram& dgram,
                                        const dns::Message& message) {
  // A rejected response naming a question we do have in flight (from the
  // address we asked) is a spoof-sweep candidate against that query.
  if (message.questions.size() != 1) return;
  auto it = pending_by_question_.find(QuestionKey{
      dgram.source, message.questions[0].name, message.questions[0].type});
  if (it == pending_by_question_.end()) return;
  auto entry = pending_.find(it->second);
  if (entry == pending_.end()) return;
  count_forged_candidate(entry->first, entry->second);
}

net::SimTime QueryEngine::attempt_timeout(int attempt) const {
  double t = static_cast<double>(options_.timeout) *
             std::pow(options_.timeout_multiplier, attempt);
  t = std::min(t, static_cast<double>(options_.timeout_cap));
  return std::max<net::SimTime>(1, static_cast<net::SimTime>(t));
}

net::SimTime QueryEngine::next_backoff(Pending& p) {
  if (options_.backoff_base == 0) return 0;
  // Decorrelated jitter: delay = min(cap, uniform(base, 3 * prev)).
  net::SimTime prev = std::max(p.prev_backoff, options_.backoff_base);
  net::SimTime upper = 3 * prev;
  net::SimTime delay = options_.backoff_base;
  if (upper > options_.backoff_base) {
    delay += rng_.next_below(upper - options_.backoff_base);
  }
  delay = std::min(delay, options_.backoff_cap);
  p.prev_backoff = delay;
  return delay;
}

bool QueryEngine::retry_budget_available() const {
  if (options_.retry_budget_ratio <= 0) return true;
  std::uint64_t budget = std::max<std::uint64_t>(
      options_.retry_budget_floor,
      static_cast<std::uint64_t>(options_.retry_budget_ratio *
                                 static_cast<double>(stats_.queries)));
  return stats_.retries < budget;
}

void QueryEngine::query(const net::IpAddress& server, const dns::Name& qname,
                        dns::RRType qtype, Callback callback) {
  ++stats_.queries;
  // Fail-fast paths deliver their error through a zero-delay event rather
  // than synchronously: a caller that issues the next query from its error
  // callback would otherwise recurse once per fast-failing query.
  auto fail = [this](Callback cb, Error error) {
    network_.schedule(0, [cb = std::move(cb), error = std::move(error)] {
      cb(std::move(error));
    });
  };
  // RFC 9520: repeated identical questions against a SERVFAILing server are
  // answered from the negative cache without touching the wire.
  if (health_.servfail_cached(server, qname, qtype, network_.now())) {
    ++stats_.servfail_cache_hits;
    fail(std::move(callback),
         Error{"query.servfail_cached",
               "server recently answered SERVFAIL for this question"});
    return;
  }
  // Open circuit: fail fast instead of burning attempts on a dead server.
  if (!health_.allow(server, network_.now())) {
    ++stats_.fail_fast;
    fail(std::move(callback),
         Error{"query.circuit_open",
               "server circuit breaker is open (consecutive failures)"});
    return;
  }
  std::uint16_t id = allocate_id();
  if (id == 0) {
    fail(std::move(callback), Error{"query.overload", "no free query ids"});
    return;
  }
  Pending pending;
  pending.server = server;
  pending.qname = qname;
  pending.qtype = qtype;
  pending.callback = std::move(callback);
  pending.attempts_left = options_.attempts;
  pending.issued_at = network_.now();
  pending.traced = options_.tracer != nullptr && options_.tracer->sample();
  // One randomized source port per logical query (kept across retries so a
  // late authentic answer to an earlier attempt still matches): another 14
  // bits an off-path attacker must guess. Only drawn on transports that
  // model ports; the kernel does this for the wire.
  if (network_.models_ports()) {
    pending.sport =
        static_cast<std::uint16_t>(49152 + rng_.next_below(16384));
  }
  auto [entry, inserted] = pending_.emplace(id, std::move(pending));
  index_question(id, entry->second);
  send_attempt(id);
}

void QueryEngine::send_attempt(std::uint16_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;

  // Backoff applies between attempts, never before the first.
  net::SimTime backoff = p.attempt > 0 ? next_backoff(p) : 0;
  net::SimTime timeout = attempt_timeout(p.attempt);
  ++p.attempt;
  --p.attempts_left;

  // Pace sends per destination: the next slot is 1/qps after the previous.
  net::SimTime interval =
      static_cast<net::SimTime>(1e6 / options_.per_server_qps);
  net::SimTime& next_free = next_free_[p.server];
  net::SimTime send_at = std::max(network_.now() + backoff, next_free);
  next_free = send_at + interval;
  net::SimTime delay = send_at - network_.now();

  // Each scheduled send keeps its own question and writes the query bytes
  // when it fires. A retry, TCP fallback or forgery-abort resend can wait
  // behind pacing next to an earlier send of the same query, and a stale
  // send can outlive its query and meet a fresh one that reused the id, so
  // the bytes come from this send's capture, never from the pending entry.
  // The capture fits std::function's inline buffer: scheduling allocates
  // nothing, and a send whose query was answered while queued encodes
  // nothing.
  auto send = [this, qname = p.qname, qtype = p.qtype, id] {
    auto entry = pending_.find(id);
    if (entry == pending_.end()) return;  // answered while queued
    ++stats_.sends;
    entry->second.sent = true;
    entry->second.sent_at = network_.now();
    net::Datagram dgram;
    dgram.source = local_address_;
    dgram.destination = entry->second.server;
    dgram.payload = dns::encode_query(id, qname, qtype);
    dgram.tcp = entry->second.use_tcp;
    if (entry->second.sport != 0) {
      dgram.source_port = entry->second.sport;
      dgram.destination_port = 53;
    }
    network_.send(std::move(dgram));
  };
  static_assert(sizeof(send) <= 16 &&
                    std::is_trivially_copyable_v<decltype(send)>,
                "a queued send must fit std::function's inline buffer");
  network_.schedule(delay, send);
  p.timeout_timer = network_.schedule(delay + timeout,
                                      [this, id] { handle_timeout(id); });
}

void QueryEngine::finish(std::uint16_t id, Result<dns::Message> result) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  network_.cancel(it->second.timeout_timer);
  if (it->second.traced) {
    // One span per sampled logical query: issue → final callback, covering
    // every retry and the TCP fallback in between.
    obs::TraceSpan span;
    span.kind = "query";
    span.name = it->second.qname.to_text() + " " +
                dns::to_string(it->second.qtype);
    span.detail = it->second.server.to_text();
    span.start_usec = it->second.issued_at;
    span.end_usec = network_.now();
    span.attempts = static_cast<std::uint64_t>(it->second.attempt);
    span.status = result.ok() ? (it->second.use_tcp ? "ok_tcp" : "ok")
                              : result.error().code;
    options_.tracer->record(std::move(span));
  }
  Callback callback = std::move(it->second.callback);
  unindex_question(id, it->second);
  pending_.erase(it);
  callback(std::move(result));
}

void QueryEngine::handle_timeout(std::uint16_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  health_.record_failure(it->second.server, network_.now());
  if (it->second.attempts_left > 0) {
    if (retry_budget_available()) {
      ++stats_.retries;
      send_attempt(id);
      return;
    }
    ++stats_.budget_denied;
  }
  ++stats_.timeouts;
  finish(id, Error{"query.timeout", "no response after all attempts"});
}

void QueryEngine::handle_datagram(const net::Datagram& dgram) {
  auto message = dns::Message::decode(dgram.payload);
  if (!message.ok()) {
    ++stats_.mismatched;
    ++defense_.malformed_rejected;
    return;
  }
  if (!message->header.qr) {
    ++stats_.mismatched;
    return;
  }
  auto it = pending_.find(message->header.id);
  if (it == pending_.end()) {
    ++stats_.mismatched;
    // No pending ID — but if the question is one we have in flight, this is
    // a wrong-ID candidate from a spoof sweep; count it against that query.
    note_forged_candidate(dgram, *message);
    return;
  }
  // Guard against spoofed/crossed answers: source and question must match.
  // With a wrapped ID space this tuple check is what keeps a stale duplicate
  // from completing an unrelated fresh query that reused the ID.
  Pending& p = it->second;
  if (dgram.source != p.server || message->questions.size() != 1 ||
      !(message->questions[0].name == p.qname) ||
      message->questions[0].type != p.qtype) {
    ++stats_.mismatched;
    note_forged_candidate(dgram, *message);
    return;
  }
  // Source-port check (RFC 5452 §4.5): the answer must come back to the
  // port the query left from. Enforceable only when the transport models
  // ports; the kernel does this for real sockets, so 0 skips the check.
  if (dgram.destination_port != 0 && p.sport != 0 &&
      dgram.destination_port != p.sport) {
    ++stats_.mismatched;
    ++defense_.port_rejected;
    if (++port_mismatches_[p.server] >= kPortMismatchMarkThreshold) {
      mark_under_attack(p.server);
    }
    count_forged_candidate(it->first, p);
    return;
  }
  // Every check above passed, but no send of this query has fired yet: it
  // is still queued behind pacing, so the answer is forged by construction.
  if (!p.sent) {
    ++stats_.mismatched;
    count_forged_candidate(it->first, p);
    return;
  }
  if (message->header.tc) {
    if (!p.use_tcp) {
      // Truncated UDP answer: retry the same query over TCP (RFC 1035
      // §4.2.2).
      ++stats_.tcp_fallbacks;
      network_.cancel(p.timeout_timer);
      p.use_tcp = true;
      ++p.attempts_left;  // the TCP retry is not a lost attempt
      send_attempt(message->header.id);
      return;
    }
    if (!dgram.tcp) {
      // A duplicate of the truncated UDP answer arriving after the TCP
      // fallback started; completing the query with it would hand the
      // caller an empty message.
      ++stats_.mismatched;
      return;
    }
    // A TCP answer that is still truncated can never resolve: fail the
    // query instead of looping.
    ++stats_.truncation_loops;
    health_.record_failure(p.server, network_.now());
    finish(message->header.id,
           Error{"query.truncation_loop", "TCP response still truncated"});
    return;
  }
  ++stats_.responses;
  // Ground-truth accounting, never a gate: a crafted datagram that got this
  // far beat every defense. The adversarial acceptance criterion is that
  // this counter stays 0 under the off-path preset.
  if (dgram.injected) ++defense_.accepted_forgeries;
  net::SimTime rtt =
      network_.now() >= p.sent_at ? network_.now() - p.sent_at : 0;
  rtt_histogram_.observe(rtt);
  if (message->header.rcode == dns::Rcode::kServFail) {
    // SERVFAIL is an answer to the caller but a failure signal for health
    // tracking (RFC 9520).
    health_.record_servfail(p.server, p.qname, p.qtype, network_.now());
    health_.record_failure(p.server, network_.now());
  } else {
    health_.record_success(p.server);
  }
  finish(message->header.id, std::move(message).take());
}

}  // namespace dnsboot::resolver
