// Property tests for the interned-name table (dns::NamePool + dns::Name,
// DESIGN.md §14): presentation/wire round-trips, RFC 4034 §6.1 ordering
// against a naive reference comparator, pointer-compare equality across
// spellings, and cross-thread interning determinism (the sharded survey
// executor interns the same population from every worker thread and relies
// on one canonical entry per spelling).
#include "dns/name_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "base/bytes.hpp"
#include "base/rng.hpp"
#include "dns/name.hpp"
#include "obs/metrics.hpp"

namespace dnsboot::dns {
namespace {

using Labels = std::vector<std::string>;

// Naive RFC 4034 §6.1 comparator over raw label sequences: compare the
// reversed label lists, each label as a case-folded octet string. This is
// the specification the pool's order keys must reproduce via plain memcmp.
int reference_compare(const Labels& a, const Labels& b) {
  auto fold = [](unsigned char c) -> unsigned char {
    return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c - 'A' + 'a')
                                : c;
  };
  std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 1; i <= common; ++i) {
    const std::string& la = a[a.size() - i];
    const std::string& lb = b[b.size() - i];
    std::size_t n = std::min(la.size(), lb.size());
    for (std::size_t j = 0; j < n; ++j) {
      unsigned char ca = fold(static_cast<unsigned char>(la[j]));
      unsigned char cb = fold(static_cast<unsigned char>(lb[j]));
      if (ca != cb) return ca < cb ? -1 : 1;
    }
    if (la.size() != lb.size()) return la.size() < lb.size() ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

// Deterministic label generator biased toward the bytes the order-key
// escaping has to get right: 0x00 and 0x01 (escaped in the key so the
// label separator sorts below every label byte), case pairs, '.', '\\'.
std::string random_label(dnsboot::Rng& rng) {
  static const char kAlphabet[] = {
      'a', 'z', 'A', 'Z', 'm', 'M', '0', '9', '-', '_',
      '\x00', '\x01', '\x02', '.', '\\', '\x7f', '\xff'};
  std::size_t len = 1 + static_cast<std::size_t>(rng.next_below(12));
  std::string label;
  label.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    label.push_back(kAlphabet[rng.next_below(sizeof(kAlphabet))]);
  }
  return label;
}

Labels random_labels(dnsboot::Rng& rng) {
  std::size_t count = 1 + static_cast<std::size_t>(rng.next_below(4));
  Labels labels;
  for (std::size_t i = 0; i < count; ++i) {
    labels.push_back(random_label(rng));
  }
  return labels;
}

Name must_build(const Labels& labels) {
  auto result = Name::from_labels(labels);
  EXPECT_TRUE(result.ok());
  return *result;
}

TEST(NamePoolTest, PresentationAndWireRoundTrip) {
  dnsboot::Rng rng(0x5eed0001);
  for (int i = 0; i < 200; ++i) {
    Name name = must_build(random_labels(rng));

    // Presentation round-trip: to_text is absolute and re-parses to the
    // same interned identity.
    auto reparsed = Name::from_text(name.to_text());
    ASSERT_TRUE(reparsed.ok()) << name.to_text();
    EXPECT_EQ(name, *reparsed) << name.to_text();
    EXPECT_EQ((name <=> *reparsed), std::strong_ordering::equal);

    // Wire round-trip through the codec layer.
    ByteWriter writer;
    name.encode(writer);
    ByteReader reader{writer.data()};
    auto decoded = Name::decode(reader);
    ASSERT_TRUE(decoded.ok()) << name.to_text();
    EXPECT_EQ(name, *decoded) << name.to_text();

    // canonical_text() returns a pool-cached reference: the same spelling
    // must hand back the same object, not a fresh string.
    EXPECT_EQ(&name.canonical_text(), &reparsed->canonical_text());
  }
}

TEST(NamePoolTest, EqualityIsCaseInsensitiveIdentity) {
  Name lower = *Name::from_text("www.example.com.");
  Name mixed = *Name::from_text("WwW.ExAmPlE.CoM.");
  Name other = *Name::from_text("www.example.org.");

  EXPECT_EQ(lower, mixed);
  EXPECT_EQ((lower <=> mixed), std::strong_ordering::equal);
  EXPECT_NE(lower, other);
  // Case variants share one canonical entry, so the cached canonical text
  // is literally the same object.
  EXPECT_EQ(&lower.canonical_text(), &mixed.canonical_text());
  EXPECT_EQ(lower.canonical_text(), "www.example.com.");
}

TEST(NamePoolTest, OrderingMatchesReferenceComparator) {
  dnsboot::Rng rng(0x5eed0002);
  std::vector<Labels> labels;
  std::vector<Name> names;
  for (int i = 0; i < 120; ++i) {
    labels.push_back(random_labels(rng));
    names.push_back(must_build(labels.back()));
  }
  // Root and ancestors exercise the prefix/parent edge: a parent sorts
  // before every name under it.
  labels.push_back({});
  names.push_back(Name::root());
  labels.push_back({"example", "com"});
  names.push_back(must_build(labels.back()));
  labels.push_back({"a", "example", "com"});
  names.push_back(must_build(labels.back()));

  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = 0; j < names.size(); ++j) {
      int expected = reference_compare(labels[i], labels[j]);
      auto got = names[i] <=> names[j];
      EXPECT_EQ(got < 0, expected < 0)
          << names[i].to_text() << " vs " << names[j].to_text();
      EXPECT_EQ(got == 0, expected == 0)
          << names[i].to_text() << " vs " << names[j].to_text();
      EXPECT_EQ(names[i] == names[j], expected == 0);
    }
  }
}

TEST(NamePoolTest, OrderKeyMemcmpEqualsReferenceOrder) {
  // make_order_key is the memcmp-able encoding itself; check it directly
  // on flat wire forms with the bytes its escaping exists for.
  auto flat = [](const Labels& labels) {
    std::string out;
    for (const std::string& label : labels) {
      out.push_back(static_cast<char>(label.size()));
      out += label;
    }
    return out;
  };
  std::vector<Labels> cases = {
      {},                               // root
      {{"com"}},                        //
      {{"example"}, {"com"}},           //
      {{"EXAMPLE"}, {"com"}},           // case-folds equal to the above
      {{"a"}, {"example"}, {"com"}},    // child sorts after parent
      {{std::string("\x00", 1)}},       // escaped separator byte
      {{std::string("\x01", 1)}},       //
      {{std::string("\x00\x01", 2)}},   //
      {{std::string("\x02", 1)}},       // first unescaped byte
  };
  for (const Labels& a : cases) {
    for (const Labels& b : cases) {
      std::string ka = NamePool::make_order_key(flat(a));
      std::string kb = NamePool::make_order_key(flat(b));
      int expected = reference_compare(a, b);
      int got = ka == kb ? 0 : (ka < kb ? -1 : 1);
      EXPECT_EQ(got < 0, expected < 0);
      EXPECT_EQ(got == 0, expected == 0);
    }
  }
}

TEST(NamePoolTest, ReinterningAddsNoEntries) {
  dnsboot::Rng rng(0x5eed0003);
  std::vector<std::string> texts;
  for (int i = 0; i < 64; ++i) {
    texts.push_back(must_build(random_labels(rng)).to_text());
  }
  for (const std::string& text : texts) {
    ASSERT_TRUE(Name::from_text(text).ok());
  }
  NamePool::Stats before = NamePool::instance().stats();
  for (const std::string& text : texts) {
    ASSERT_TRUE(Name::from_text(text).ok());
  }
  NamePool::Stats after = NamePool::instance().stats();
  EXPECT_EQ(before.entries, after.entries);
  EXPECT_EQ(before.arena_bytes, after.arena_bytes);
}

TEST(NamePoolTest, PerThreadTableAnswersWithThePoolsIds) {
  // Three times as many spellings as the per-thread re-intern table has
  // slots, so re-interning them meets evicted and overwritten slots. Every
  // answer, from this thread's table or a fresh thread's, must be the id
  // the pool assigned, and re-interning must add no entries.
  auto flat_of = [](int i) {
    const std::string label = std::to_string(i);
    std::string flat(1, static_cast<char>(label.size() + 1));
    flat += 'h';
    flat += label;
    flat += "\x07" "example" "\x03" "com";
    return flat;
  };
  constexpr int kSpellings = 3 * 4096;
  std::vector<std::uint32_t> ids(kSpellings);
  for (int i = 0; i < kSpellings; ++i) {
    ids[i] = NamePool::instance().intern_flat(flat_of(i), 3);
  }
  const NamePool::Stats before = NamePool::instance().stats();
  for (int i = kSpellings; i-- > 0;) {
    ASSERT_EQ(NamePool::instance().intern_flat(flat_of(i), 3), ids[i]) << i;
  }
  std::vector<std::uint32_t> other(kSpellings);
  std::thread thread([&] {
    for (int i = 0; i < kSpellings; ++i) {
      other[i] = NamePool::instance().intern_flat(flat_of(i), 3);
    }
  });
  thread.join();
  EXPECT_EQ(other, ids);
  EXPECT_EQ(NamePool::instance().stats().entries, before.entries);
  // The root needs no table: it is id 0 everywhere.
  EXPECT_EQ(NamePool::instance().intern_flat(std::string_view(), 0), 0u);
}

TEST(NamePoolTest, GaugesStayFlatAcrossReprobes) {
  // The longitudinal monitor re-interns the same zone names on every
  // re-probe cycle; the pool gauges must show a stable population, not
  // growth. Re-export after re-interning and require identical values.
  dnsboot::Rng rng(0x5eed0005);
  std::vector<std::string> texts;
  for (int i = 0; i < 80; ++i) {
    texts.push_back(must_build(random_labels(rng)).to_text());
  }
  dnsboot::obs::MetricsRegistry registry;
  NamePool::instance().export_gauges(registry);
  const double names_before =
      registry.gauge("dnsboot_namepool_names").get();
  const double bytes_before =
      registry.gauge("dnsboot_namepool_bytes").get();
  const double live_before =
      registry.gauge("dnsboot_namepool_live_bytes").get();
  EXPECT_GT(names_before, 0.0);
  EXPECT_GT(bytes_before, 0.0);
  EXPECT_GT(live_before, 0.0);

  for (int cycle = 0; cycle < 5; ++cycle) {  // simulated re-probe rounds
    for (const std::string& text : texts) {
      ASSERT_TRUE(Name::from_text(text).ok());
    }
    NamePool::instance().export_gauges(registry);
    EXPECT_EQ(registry.gauge("dnsboot_namepool_names").get(), names_before);
    EXPECT_EQ(registry.gauge("dnsboot_namepool_bytes").get(), bytes_before);
    EXPECT_EQ(registry.gauge("dnsboot_namepool_live_bytes").get(),
              live_before);
  }
}

TEST(NamePoolTest, ReservedBytesTrackLiveBytes) {
  // Each of the 64 shard arenas starts at one 4 KiB page and doubles its
  // reservation per chunk, so the pool reserves about what its names hold
  // instead of a fixed chunk per shard.
  for (int i = 0; i < 4000; ++i) {
    const std::string text = "Host-" + std::to_string(i) + ".zone-" +
                             std::to_string(i % 97) + ".example.";
    ASSERT_TRUE(Name::from_text(text).ok()) << text;
  }
  const NamePool::Stats stats = NamePool::instance().stats();
  EXPECT_GT(stats.live_bytes, 4000u * 20);
  EXPECT_LE(stats.live_bytes, stats.arena_bytes);
  EXPECT_LE(stats.arena_bytes, 2 * stats.live_bytes + 64 * 4096);
}

TEST(NamePoolTest, LiveGaugeEqualsLiveBytes) {
  ASSERT_TRUE(Name::from_text("gauge.Example.").ok());
  dnsboot::obs::MetricsRegistry registry;
  NamePool::instance().export_gauges(registry);
  const NamePool::Stats stats = NamePool::instance().stats();
  EXPECT_EQ(registry.gauge("dnsboot_namepool_live_bytes").get(),
            static_cast<double>(stats.live_bytes));
  EXPECT_EQ(registry.gauge("dnsboot_namepool_bytes").get(),
            static_cast<double>(stats.arena_bytes));
}

TEST(NamePoolTest, CrossThreadInterningIsDeterministic) {
  // Every worker thread interns the same population, each starting at a
  // different offset so shard locks interleave differently. The pool must
  // still converge on one canonical entry per spelling: equal handles,
  // one shared canonical text object, and identical sort order.
  dnsboot::Rng rng(0x5eed0004);
  std::vector<std::string> texts;
  std::vector<Labels> labels;
  for (int i = 0; i < 150; ++i) {
    labels.push_back(random_labels(rng));
    texts.push_back(must_build(labels.back()).to_text());
  }

  constexpr int kThreads = 8;
  std::vector<std::vector<Name>> per_thread(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &texts, &per_thread] {
        std::vector<Name>& out = per_thread[t];
        out.resize(texts.size());
        for (std::size_t i = 0; i < texts.size(); ++i) {
          std::size_t pick = (i + static_cast<std::size_t>(t) * 37) %
                             texts.size();
          out[pick] = *Name::from_text(texts[pick]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (int t = 1; t < kThreads; ++t) {
    for (std::size_t i = 0; i < texts.size(); ++i) {
      EXPECT_EQ(per_thread[0][i], per_thread[t][i]);
      EXPECT_EQ(&per_thread[0][i].canonical_text(),
                &per_thread[t][i].canonical_text());
    }
  }

  // Sorting through the pooled order keys must equal the reference sort,
  // regardless of which thread's interleaving created the entries.
  std::vector<std::size_t> order(texts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::size_t> by_pool = order;
  std::sort(by_pool.begin(), by_pool.end(),
            [&](std::size_t a, std::size_t b) {
              auto cmp = per_thread[0][a] <=> per_thread[0][b];
              if (cmp != 0) return cmp < 0;
              return a < b;
            });
  std::vector<std::size_t> by_reference = order;
  std::sort(by_reference.begin(), by_reference.end(),
            [&](std::size_t a, std::size_t b) {
              int cmp = reference_compare(labels[a], labels[b]);
              if (cmp != 0) return cmp < 0;
              return a < b;
            });
  EXPECT_EQ(by_pool, by_reference);
}

}  // namespace
}  // namespace dnsboot::dns
