// Trading and Naming services, plus PropertySet semantics.
#include <gtest/gtest.h>

#include "services/naming.hpp"
#include "services/property.hpp"
#include "services/trader.hpp"

namespace integrade::services {
namespace {

orb::ObjectRef ref(std::uint64_t host, std::uint64_t key) {
  orb::ObjectRef r;
  r.host = host;
  r.key = ObjectId(key);
  r.type_id = "IDL:test:1.0";
  return r;
}

PropertySet props(double mips, bool shareable) {
  PropertySet p;
  p.set("cpu_mips", cdr::Value(mips));
  p.set("shareable", cdr::Value(shareable));
  return p;
}

TEST(PropertySetTest, TypedAccessors) {
  PropertySet p;
  p.set("i", cdr::Value(7));
  p.set("r", cdr::Value(1.5));
  p.set("s", cdr::Value("x"));
  p.set("b", cdr::Value(true));
  EXPECT_EQ(p.get_int("i"), 7);
  EXPECT_EQ(p.get_real("i"), 7.0);  // numeric widening
  EXPECT_EQ(p.get_real("r"), 1.5);
  EXPECT_EQ(p.get_int("r"), std::nullopt);  // no narrowing
  EXPECT_EQ(p.get_string("s"), "x");
  EXPECT_EQ(p.get_bool("b"), true);
  EXPECT_EQ(p.get_int("missing"), std::nullopt);
  EXPECT_TRUE(p.get("missing").is_null());
}

TEST(PropertySetTest, CdrRoundTrip) {
  auto p = props(1200, true);
  p.set("tags", cdr::Value(cdr::ValueList{cdr::Value("a"), cdr::Value("b")}));
  auto bytes = cdr::encode_message(p);
  auto decoded = cdr::decode_message<PropertySet>(bytes);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), p);
}

TEST(PropertySetTest, CdrRejectsUnsortedOrRepeatedNames) {
  // Entries encode in name order, so only sorted, distinct names can be the
  // encoder's bytes.
  auto entries = [](const char* first, const char* second) {
    cdr::Writer w;
    w.write_u32(2);
    w.write_string(first);
    cdr::Codec<cdr::Value>::encode(w, cdr::Value(1));
    w.write_string(second);
    cdr::Codec<cdr::Value>::encode(w, cdr::Value(2));
    return w.take_buffer();
  };
  EXPECT_TRUE(cdr::decode_message<PropertySet>(entries("a", "b")).is_ok());
  EXPECT_FALSE(cdr::decode_message<PropertySet>(entries("b", "a")).is_ok());
  EXPECT_FALSE(cdr::decode_message<PropertySet>(entries("a", "a")).is_ok());
}

TEST(TraderTest, ExportQueryModifyWithdraw) {
  Trader trader;
  auto id1 = trader.export_offer("node", ref(1, 1), props(1000, true));
  auto id2 = trader.export_offer("node", ref(2, 1), props(2000, true));
  trader.export_offer("printer", ref(3, 1), props(0, false));
  EXPECT_EQ(trader.offer_count(), 3u);
  EXPECT_EQ(trader.offer_count("node"), 2u);

  auto result = trader.query("node", "shareable == true", "max cpu_mips");
  ASSERT_TRUE(result.is_ok());
  ASSERT_EQ(result.value().size(), 2u);
  EXPECT_EQ(result.value()[0]->id, id2);  // fastest first

  // Status refresh flips node 2 to unshareable.
  ASSERT_TRUE(trader.modify(id2, props(2000, false)).is_ok());
  result = trader.query("node", "shareable == true", "max cpu_mips");
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0]->id, id1);

  ASSERT_TRUE(trader.withdraw(id1).is_ok());
  EXPECT_FALSE(trader.withdraw(id1).is_ok());  // already gone
  EXPECT_EQ(trader.offer_count("node"), 1u);
}

TEST(TraderTest, QueryRejectsBadExpressions) {
  Trader trader;
  EXPECT_FALSE(trader.query("node", "(((", "first").is_ok());
  EXPECT_FALSE(trader.query("node", "true", "sideways cpu").is_ok());
}

TEST(TraderTest, MaxMatchesCapsResults) {
  Trader trader;
  for (int i = 0; i < 10; ++i) {
    trader.export_offer("node", ref(static_cast<std::uint64_t>(i), 1),
                        props(1000 + i, true));
  }
  auto result = trader.query("node", "true", "max cpu_mips", 3);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().size(), 3u);
  EXPECT_EQ(result.value()[0]->properties.get_real("cpu_mips"), 1009);
}

TEST(TraderTest, FindByProvider) {
  Trader trader;
  trader.export_offer("node", ref(7, 3), props(1000, true));
  EXPECT_NE(trader.find_by_provider("node", ref(7, 3)), nullptr);
  EXPECT_EQ(trader.find_by_provider("node", ref(7, 4)), nullptr);
  EXPECT_EQ(trader.find_by_provider("disk", ref(7, 3)), nullptr);
}

TEST(NamingTest, BindResolveUnbind) {
  NamingService naming;
  ASSERT_TRUE(naming.bind("clusters/lab/grm", ref(1, 1)).is_ok());
  EXPECT_FALSE(naming.bind("clusters/lab/grm", ref(2, 1)).is_ok());
  auto resolved = naming.resolve("clusters/lab/grm");
  ASSERT_TRUE(resolved.is_ok());
  EXPECT_EQ(resolved.value().host, 1u);

  naming.rebind("clusters/lab/grm", ref(2, 1));
  EXPECT_EQ(naming.resolve("clusters/lab/grm").value().host, 2u);

  ASSERT_TRUE(naming.unbind("clusters/lab/grm").is_ok());
  EXPECT_FALSE(naming.resolve("clusters/lab/grm").is_ok());
  EXPECT_FALSE(naming.unbind("clusters/lab/grm").is_ok());
}

TEST(NamingTest, EmptyNameRejected) {
  NamingService naming;
  EXPECT_FALSE(naming.bind("", ref(1, 1)).is_ok());
}

TEST(NamingTest, ListChildContexts) {
  NamingService naming;
  naming.rebind("clusters/lab/grm", ref(1, 1));
  naming.rebind("clusters/lab/gupa", ref(1, 2));
  naming.rebind("clusters/office/grm", ref(2, 1));
  naming.rebind("root", ref(3, 1));

  EXPECT_EQ(naming.list(""), (std::vector<std::string>{"clusters", "root"}));
  EXPECT_EQ(naming.list("clusters"),
            (std::vector<std::string>{"lab", "office"}));
  EXPECT_EQ(naming.list("clusters/lab"),
            (std::vector<std::string>{"grm", "gupa"}));
  EXPECT_TRUE(naming.list("nothing").empty());
}

}  // namespace
}  // namespace integrade::services
