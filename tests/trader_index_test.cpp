// Trader secondary indexes: equivalence with the linear reference, top-k
// determinism, and index consistency under arbitrary interleavings.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "services/constraint.hpp"
#include "services/property.hpp"
#include "services/trader.hpp"
#include "trader_reference.hpp"

namespace integrade::services {
namespace {

orb::ObjectRef provider_ref(std::uint64_t i) {
  orb::ObjectRef ref;
  ref.host = i;
  ref.key = ObjectId(i);
  ref.type_id = "IDL:integrade/Lrm:1.0";
  return ref;
}

PropertySet random_props(Rng& rng) {
  PropertySet props;
  props.set("cpu_mips", cdr::Value(rng.uniform(100.0, 3000.0)));
  props.set("free_ram_mb", cdr::Value(rng.uniform_int(0, 4096)));
  props.set("shareable", cdr::Value(rng.bernoulli(0.6)));
  props.set("segment", cdr::Value(rng.uniform_int(0, 7)));
  if (rng.bernoulli(0.8)) {
    // ~20% of offers miss this property: exercises undefined-handling in
    // both constraint matching and preference scoring.
    props.set("exportable_mips", cdr::Value(rng.uniform(0.0, 3000.0)));
  }
  // A list, a null value (defined, unlike a missing name), and a string
  // only some offers have: each type's slot table meets its names in
  // whatever order offers bring them.
  cdr::ValueList platforms;
  for (const char* platform : {"linux-x86", "java", "win32"}) {
    if (rng.bernoulli(0.5)) platforms.emplace_back(platform);
  }
  props.set("platforms", cdr::Value(std::move(platforms)));
  props.set("retired", cdr::Value());
  if (rng.bernoulli(0.4)) {
    props.set("gpu", cdr::Value(rng.bernoulli(0.5) ? "gtx-1080" : "rx-480"));
  }
  return props;
}

const char* type_of(std::uint64_t i) {
  static const char* kTypes[] = {"integrade::Node", "integrade::Ckpt",
                                 "integrade::Asct"};
  return kTypes[i % 3];
}

/// Build a trader with n offers spread across three service types, plus a
/// parallel list of ids for mutation tests.
std::vector<OfferId> populate(Trader& trader, std::size_t n, Rng& rng) {
  std::vector<OfferId> ids;
  ids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ids.push_back(
        trader.export_offer(type_of(i), provider_ref(i), random_props(rng)));
  }
  return ids;
}

struct QueryCase {
  const char* constraint;
  const char* preference;
};

const QueryCase kCases[] = {
    {"true", "first"},
    {"shareable == true", "max cpu_mips"},
    {"cpu_mips > 1500", "min cpu_mips"},
    {"shareable == true and exportable_mips > 2000", "max exportable_mips"},
    {"free_ram_mb >= 1024 or segment == 3", "with shareable == true"},
    {"exist exportable_mips and cpu_mips > 500", "random"},
    {"cpu_mips > 2900", "max exportable_mips"},  // highly selective
    {"cpu_mips > 99999", "first"},               // matches nothing
    {"'java' in platforms and not ('win32' in platforms)", "max free_ram_mb"},
    {"'gtx' ~ gpu or segment * 2 + 1 > 9", "min cpu_mips - exportable_mips"},
    {"not (exist gpu) and free_ram_mb / 2 >= 500", "with 'java' in platforms"},
    {"exist retired and retired == retired", "max segment - free_ram_mb / 100"},
    {"no_such_name > 3 or shareable == true", "max no_such_name"},
    {"not (no_such_name == 1) or exist no_such_name", "first"},
};

TEST(TraderIndexTest, IndexedQueryEqualsLinearOnRandomOfferSets) {
  for (std::uint64_t seed : {1u, 7u, 99u}) {
    Rng rng(seed);
    Trader trader;
    populate(trader, 300, rng);
    ASSERT_TRUE(trader.check_invariants().is_ok());

    for (const auto& c : kCases) {
      for (const std::size_t max_matches : {std::size_t{0}, std::size_t{5}}) {
        auto constraint = Constraint::parse(c.constraint);
        auto preference = Preference::parse(c.preference);
        ASSERT_TRUE(constraint.is_ok() && preference.is_ok());
        // Seeded twins: kRandom must consume identical draws on both paths.
        Rng rng_linear(seed * 1000 + max_matches);
        Rng rng_indexed(seed * 1000 + max_matches);
        const auto expect =
            query_linear(trader, "integrade::Node", constraint.value(),
                         preference.value(), max_matches, &rng_linear);
        const auto got =
            trader.query_compiled("integrade::Node", constraint.value(),
                                  preference.value(), max_matches, &rng_indexed);
        EXPECT_EQ(got, expect) << c.constraint << " / " << c.preference
                               << " max=" << max_matches;
        // The string path (LRU-cached parse) must agree as well.
        Rng rng_string(seed * 1000 + max_matches);
        auto via_string = trader.query("integrade::Node", c.constraint,
                                       c.preference, max_matches, &rng_string);
        ASSERT_TRUE(via_string.is_ok());
        EXPECT_EQ(via_string.value(), expect);
      }
    }
  }
}

TEST(TraderIndexTest, TopKMatchesPrefixOfFullRank) {
  Rng rng(11);
  std::vector<PropertySet> sets_storage;
  for (int i = 0; i < 200; ++i) sets_storage.push_back(random_props(rng));
  std::vector<const PropertySet*> sets;
  for (const auto& s : sets_storage) sets.push_back(&s);

  for (const char* src :
       {"max cpu_mips", "min exportable_mips", "with shareable == true",
        "random", "first", ""}) {
    auto pref = Preference::parse(src);
    ASSERT_TRUE(pref.is_ok());
    for (const std::size_t k : {std::size_t{1}, std::size_t{8},
                                std::size_t{199}, std::size_t{200},
                                std::size_t{500}}) {
      Rng rng_full(321);
      Rng rng_topk(321);
      auto full = pref.value().rank(sets, &rng_full);
      auto top = pref.value().top(sets, k, &rng_topk);
      full.resize(std::min(k, full.size()));
      EXPECT_EQ(top, full) << "pref '" << src << "' k=" << k;
      // Identical Rng consumption: the next draw must agree on both streams.
      EXPECT_EQ(rng_full.next_u64(), rng_topk.next_u64());
    }
  }
}

TEST(TraderIndexTest, DuplicateScoresKeepDiscoveryOrderInTopK) {
  // All offers score identically: top-k must fall back to discovery order,
  // exactly like the stable full sort.
  std::vector<PropertySet> sets_storage;
  for (int i = 0; i < 50; ++i) {
    PropertySet p;
    p.set("cpu_mips", cdr::Value(1000.0));
    sets_storage.push_back(std::move(p));
  }
  std::vector<const PropertySet*> sets;
  for (const auto& s : sets_storage) sets.push_back(&s);
  auto pref = Preference::parse("max cpu_mips");
  ASSERT_TRUE(pref.is_ok());
  const auto top = pref.value().top(sets, 7, nullptr);
  ASSERT_EQ(top.size(), 7u);
  for (std::size_t i = 0; i < top.size(); ++i) EXPECT_EQ(top[i], i);
}

TEST(TraderIndexTest, WithdrawModifyExportInterleavingsKeepIndexesConsistent) {
  Rng rng(5150);
  Trader trader;
  std::vector<OfferId> live = populate(trader, 100, rng);
  std::uint64_t next = 100;
  // Mentions names that modify and refresh add and erase, so a slot left
  // pointing at an erased value is read (and reported under ASan).
  auto churn_constraint =
      Constraint::parse("free_ram_mb >= 1000 or exist late or cpu_mips < 500");
  auto churn_preference = Preference::parse("max free_ram_mb + late");
  ASSERT_TRUE(churn_constraint.is_ok() && churn_preference.is_ok());

  for (int step = 0; step < 2000; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.35 || live.empty()) {
      live.push_back(trader.export_offer(type_of(next), provider_ref(next),
                                         random_props(rng)));
      ++next;
    } else if (dice < 0.65) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      PropertySet replacement = random_props(rng);
      if (rng.bernoulli(0.3)) replacement.erase("free_ram_mb");
      if (rng.bernoulli(0.3)) replacement.set("late", cdr::Value(std::int64_t{7}));
      EXPECT_TRUE(trader.modify(live[pick], std::move(replacement)).is_ok());
    } else if (dice < 0.8) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const double names = rng.next_double();
      EXPECT_TRUE(trader
                      .refresh(live[pick],
                               [&](PropertySet& p) {
                                 p.set("cpu_mips",
                                       cdr::Value(rng.uniform(1, 999)));
                                 if (names < 0.25) {
                                   p.erase("free_ram_mb");
                                 } else if (names < 0.5) {
                                   p.set("late", cdr::Value(std::int64_t{3}));
                                 } else if (names < 0.6) {
                                   p.erase("late");
                                   p.set("free_ram_mb",
                                         cdr::Value(std::int64_t{2048}));
                                 }
                               })
                      .is_ok());
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      EXPECT_TRUE(trader.withdraw(live[pick]).is_ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (step % 100 == 0) {
      const Status invariants = trader.check_invariants();
      ASSERT_TRUE(invariants.is_ok()) << invariants.message();
    }
    if (step % 10 == 0) {
      ASSERT_EQ(trader.query_compiled("integrade::Node", churn_constraint.value(),
                                      churn_preference.value()),
                query_linear(trader, "integrade::Node",
                             churn_constraint.value(), churn_preference.value()))
          << "step " << step;
    }
  }
  const Status invariants = trader.check_invariants();
  EXPECT_TRUE(invariants.is_ok()) << invariants.message();
  EXPECT_EQ(trader.offer_count(), live.size());

  // After churn the indexed query still agrees with the linear reference.
  auto constraint = Constraint::parse("cpu_mips > 800");
  auto preference = Preference::parse("max cpu_mips");
  ASSERT_TRUE(constraint.is_ok() && preference.is_ok());
  EXPECT_EQ(trader.query_compiled("integrade::Node", constraint.value(),
                                  preference.value()),
            query_linear(trader, "integrade::Node", constraint.value(),
                         preference.value()));
}

TEST(TraderIndexTest, FindByProviderUsesIndexAndSurvivesWithdraw) {
  Trader trader;
  PropertySet props;
  props.set("x", cdr::Value(std::int64_t{1}));
  // Same provider exports twice under one type: lookup returns the earliest,
  // and withdrawing it falls back to the next one — the linear-scan contract.
  const OfferId first = trader.export_offer("t", provider_ref(1), props);
  const OfferId second = trader.export_offer("t", provider_ref(1), props);
  const OfferId other_type = trader.export_offer("u", provider_ref(1), props);

  const ServiceOffer* found = trader.find_by_provider("t", provider_ref(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, first);
  EXPECT_EQ(trader.find_by_provider("u", provider_ref(1))->id, other_type);
  EXPECT_EQ(trader.find_by_provider("t", provider_ref(2)), nullptr);

  ASSERT_TRUE(trader.withdraw(first).is_ok());
  found = trader.find_by_provider("t", provider_ref(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, second);
  ASSERT_TRUE(trader.withdraw(second).is_ok());
  EXPECT_EQ(trader.find_by_provider("t", provider_ref(1)), nullptr);
  EXPECT_TRUE(trader.check_invariants().is_ok());
}

TEST(TraderIndexTest, OfferCountAndOffersOfTypeUseBuckets) {
  Rng rng(2);
  Trader trader;
  auto ids = populate(trader, 90, rng);
  EXPECT_EQ(trader.offer_count(), 90u);
  EXPECT_EQ(trader.offer_count("integrade::Node"), 30u);
  EXPECT_EQ(trader.offer_count("integrade::Ckpt"), 30u);
  EXPECT_EQ(trader.offer_count("no-such-type"), 0u);

  const auto offers = trader.offers_of_type("integrade::Node");
  ASSERT_EQ(offers.size(), 30u);
  for (std::size_t i = 1; i < offers.size(); ++i) {
    EXPECT_LT(offers[i - 1]->id, offers[i]->id) << "bucket must keep id order";
  }

  for (const OfferId id : ids) ASSERT_TRUE(trader.withdraw(id).is_ok());
  EXPECT_EQ(trader.offer_count(), 0u);
  EXPECT_EQ(trader.offers_of_type("integrade::Node").size(), 0u);
  EXPECT_TRUE(trader.check_invariants().is_ok());
}

TEST(TraderIndexTest, StringQueryCacheServesRepeatsAndRejectsBadInput) {
  Rng rng(3);
  Trader trader;
  populate(trader, 60, rng);
  for (int i = 0; i < 10; ++i) {
    auto result = trader.query("integrade::Node", "cpu_mips > 100",
                               "max cpu_mips", 4, nullptr);
    ASSERT_TRUE(result.is_ok());
    EXPECT_LE(result.value().size(), 4u);
  }
  auto bad = trader.query("integrade::Node", "cpu_mips >>> 1", "first");
  EXPECT_FALSE(bad.is_ok());
  auto bad_pref = trader.query("integrade::Node", "true", "sideways cpu_mips");
  EXPECT_FALSE(bad_pref.is_ok());
}

TEST(TraderIndexTest, CapacityOneCompiledCacheSurvivesConstantEviction) {
  // Use-after-evict stress for the compiled-expression LRU. query() must
  // copy each compiled expression out of the cache before touching the
  // cache again: with capacity 1, *every* second insertion evicts the
  // previous entry, so any pointer held across the nested compile would be
  // a use-after-free that ASan flags and results would silently corrupt.
  Rng rng(99);
  Trader trader;
  populate(trader, 400, rng);
  trader.set_compiled_cache_capacity(1);
  ASSERT_EQ(trader.compiled_cache_capacity(), 1u);

  const char* constraints[] = {"cpu_mips > 500", "shareable == true",
                               "free_ram_mb >= 256", "segment == 2",
                               "exist exportable_mips"};
  const char* preferences[] = {"max cpu_mips", "min cpu_mips", "first",
                               "max exportable_mips",
                               "with free_ram_mb >= 1024"};
  for (int round = 0; round < 40; ++round) {
    for (std::size_t i = 0; i < std::size(constraints); ++i) {
      // Distinct constraint/preference per query: the preference insertion
      // always evicts the constraint just compiled in the same call.
      const std::string c = constraints[i];
      const std::string p = preferences[(i + static_cast<std::size_t>(round)) %
                                        std::size(preferences)];
      auto via_cache = trader.query("integrade::Node", c, p);
      ASSERT_TRUE(via_cache.is_ok()) << c << " / " << p;

      auto compiled_c = Constraint::parse(c);
      auto compiled_p = Preference::parse(p);
      ASSERT_TRUE(compiled_c.is_ok() && compiled_p.is_ok());
      const auto reference = query_linear(
          trader, "integrade::Node", compiled_c.value(), compiled_p.value());
      EXPECT_EQ(via_cache.value(), reference) << c << " / " << p;
    }
  }

  // Shrinking the cache dropped nothing correctness-visible: a repeat of
  // the very first query still matches the linear reference.
  auto again = trader.query("integrade::Node", constraints[0], preferences[0]);
  ASSERT_TRUE(again.is_ok());
  auto c0 = Constraint::parse(constraints[0]);
  auto p0 = Preference::parse(preferences[0]);
  EXPECT_EQ(again.value(),
            query_linear(trader, "integrade::Node", c0.value(), p0.value()));
}

}  // namespace
}  // namespace integrade::services
