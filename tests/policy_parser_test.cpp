// NCC policy configuration parser.
#include <gtest/gtest.h>

#include "ncc/policy_parser.hpp"

namespace integrade::ncc {
namespace {

TEST(PolicyParser, EmptyTextYieldsDefaults) {
  auto policy = parse_policy("");
  ASSERT_TRUE(policy.is_ok());
  const SharingPolicy defaults;
  EXPECT_EQ(policy.value().cpu_export_cap, defaults.cpu_export_cap);
  EXPECT_EQ(policy.value().idle_grace, defaults.idle_grace);
  EXPECT_EQ(policy.value().require_owner_away, defaults.require_owner_away);
}

TEST(PolicyParser, FullExample) {
  auto policy = parse_policy(R"(
# Maria's workstation
sharing        = on
mode           = partial
cpu_cap        = 30%
ram_cap        = 50%
idle_threshold = 15%
grace          = 10min
blackout       = Mon-Fri 09:00-18:00
blackout       = Sun 22:00-24:00
)");
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  const auto& p = policy.value();
  EXPECT_TRUE(p.sharing_enabled);
  EXPECT_FALSE(p.require_owner_away);
  EXPECT_DOUBLE_EQ(p.cpu_export_cap, 0.30);
  EXPECT_DOUBLE_EQ(p.ram_export_cap, 0.50);
  EXPECT_DOUBLE_EQ(p.idle_cpu_threshold, 0.15);
  EXPECT_EQ(p.idle_grace, 10 * kMinute);
  // Mon-Fri expands to 5 windows + Sunday = 6.
  ASSERT_EQ(p.blackouts.size(), 6u);
  // Monday window covers Monday 10:00 but not 08:00.
  EXPECT_TRUE(p.blackouts[0].contains(10 * kHour));
  EXPECT_FALSE(p.blackouts[0].contains(8 * kHour));
  // Friday window sits on day 4.
  EXPECT_TRUE(p.blackouts[4].contains(4 * kDay + 10 * kHour));
  // Sunday 23:00.
  EXPECT_TRUE(p.blackouts[5].contains(6 * kDay + 23 * kHour));
}

TEST(PolicyParser, DurationsInAllUnits) {
  EXPECT_EQ(parse_policy("grace = 30s").value().idle_grace, 30 * kSecond);
  EXPECT_EQ(parse_policy("grace = 2h").value().idle_grace, 2 * kHour);
  EXPECT_EQ(parse_policy("grace = 1.5min").value().idle_grace, 90 * kSecond);
}

TEST(PolicyParser, RefusesADurationThatDoesNotFitMicroseconds) {
  // 1e20 hours is about 3.6e29 us, far past SimDuration's 9.2e18.
  const auto huge = parse_policy("grace = 100000000000000000000h");
  ASSERT_FALSE(huge.is_ok());
  EXPECT_NE(huge.status().message().find("does not fit"), std::string::npos);
  EXPECT_FALSE(parse_policy("grace = 9300000000000s").is_ok());
  EXPECT_EQ(parse_policy("grace = 9200000000000s").value().idle_grace,
            9'200'000'000'000 * kSecond);
}

TEST(PolicyParser, SharingOff) {
  auto policy = parse_policy("sharing = off");
  ASSERT_TRUE(policy.is_ok());
  EXPECT_FALSE(policy.value().sharing_enabled);
}

TEST(PolicyParser, ErrorsCarryLineNumbers) {
  auto bad = parse_policy("cpu_cap = 30%\nbogus_key = 1\n");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(PolicyParser, RejectsMalformedValues) {
  EXPECT_FALSE(parse_policy("cpu_cap = 30").is_ok());       // missing %
  EXPECT_FALSE(parse_policy("cpu_cap = 130%").is_ok());     // out of range
  EXPECT_FALSE(parse_policy("grace = fast").is_ok());
  EXPECT_FALSE(parse_policy("grace = 10 fortnight").is_ok());
  EXPECT_FALSE(parse_policy("mode = sometimes").is_ok());
  EXPECT_FALSE(parse_policy("sharing = maybe").is_ok());
  EXPECT_FALSE(parse_policy("blackout = Mon").is_ok());
  EXPECT_FALSE(parse_policy("blackout = Mon 18:00-09:00").is_ok());  // backwards
  EXPECT_FALSE(parse_policy("blackout = Fri-Mon 09:00-10:00").is_ok());
  EXPECT_FALSE(parse_policy("blackout = Mon 09:15-10:00").is_ok());  // not :00/:30
  EXPECT_FALSE(parse_policy("just words").is_ok());
}

TEST(PolicyParser, BidFilterPreservedVerbatim) {
  // The expression is compiled at the LRM, not here: the parser must keep
  // the text exactly as written (case, quotes, spacing after the '=').
  auto policy = parse_policy(
      "bid_filter = bid_budget >= 2.5 and tenant != 'Freeloader'");
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  EXPECT_EQ(policy.value().bid_filter,
            "bid_budget >= 2.5 and tenant != 'Freeloader'");

  // Round-trips through format_policy.
  auto reparsed = parse_policy(format_policy(policy.value()));
  ASSERT_TRUE(reparsed.is_ok());
  EXPECT_EQ(reparsed.value().bid_filter, policy.value().bid_filter);
  // Absent by default — and absent from the formatted text.
  EXPECT_TRUE(SharingPolicy{}.bid_filter.empty());
  EXPECT_EQ(format_policy(SharingPolicy{}).find("bid_filter"),
            std::string::npos);

  // An empty value is a configuration error, reported with its line.
  auto bad = parse_policy("\nbid_filter =\n");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().to_string().find("line 2"), std::string::npos);
}

TEST(PolicyParser, FormatRoundTrips) {
  auto original = parse_policy(R"(
sharing = on
mode = strict
cpu_cap = 45%
ram_cap = 25%
idle_threshold = 10%
grace = 5min
blackout = Tue 12:00-13:30
)");
  ASSERT_TRUE(original.is_ok());
  auto reparsed = parse_policy(format_policy(original.value()));
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  const auto& a = original.value();
  const auto& b = reparsed.value();
  EXPECT_EQ(a.sharing_enabled, b.sharing_enabled);
  EXPECT_EQ(a.require_owner_away, b.require_owner_away);
  EXPECT_DOUBLE_EQ(a.cpu_export_cap, b.cpu_export_cap);
  EXPECT_DOUBLE_EQ(a.ram_export_cap, b.ram_export_cap);
  EXPECT_DOUBLE_EQ(a.idle_cpu_threshold, b.idle_cpu_threshold);
  EXPECT_EQ(a.idle_grace, b.idle_grace);
  ASSERT_EQ(a.blackouts.size(), b.blackouts.size());
  for (std::size_t i = 0; i < a.blackouts.size(); ++i) {
    EXPECT_EQ(a.blackouts[i].from_slot, b.blackouts[i].from_slot);
    EXPECT_EQ(a.blackouts[i].to_slot, b.blackouts[i].to_slot);
  }
}

TEST(PolicyParser, ParsedPolicyDrivesNcc) {
  auto policy = parse_policy("mode = partial\ncpu_cap = 40%\ngrace = 0s\n");
  ASSERT_TRUE(policy.is_ok());
  Ncc ncc(policy.value());
  node::Machine machine(NodeId(1), node::MachineSpec{});
  node::OwnerLoad load;
  load.present = true;
  load.cpu_fraction = 0.5;
  machine.set_owner_load(load);
  // Partial mode with a 40% cap: exportable = min(0.4, 0.5) even while the
  // owner works.
  EXPECT_NEAR(ncc.exportable_cpu(machine, 0, std::nullopt), 0.4, 1e-9);
  EXPECT_FALSE(ncc.must_evict(machine, 0));
}

}  // namespace
}  // namespace integrade::ncc
