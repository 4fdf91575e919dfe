// CORBA servant surface of the Naming and Trading services: every
// operation exercised over the wire, including error replies.
#include <gtest/gtest.h>

#include "orb/transport.hpp"
#include "services/servants.hpp"

namespace integrade::services {
namespace {

template <class Req, class Rep>
Rep sync_call(orb::Orb& orb, const orb::ObjectRef& ref, const std::string& op,
              const Req& request) {
  Rep out{};
  bool done = false;
  orb::call<Req, Rep>(orb, ref, op, request, [&](Result<Rep> reply) {
    ASSERT_TRUE(reply.is_ok()) << op << ": " << reply.status().to_string();
    out = reply.value();
    done = true;
  });
  EXPECT_TRUE(done);
  return out;
}

class ServantsFixture : public ::testing::Test {
 protected:
  ServantsFixture()
      : client(1, transport, nullptr), server(2, transport, nullptr) {
    naming_ref = server.activate(std::make_shared<NamingServant>(naming));
    trader_ref = server.activate(
        std::make_shared<TraderServant>(trader, Rng(1)));
  }

  orb::ObjectRef some_ref(std::uint64_t key) {
    orb::ObjectRef ref;
    ref.host = 9;
    ref.key = ObjectId(key);
    ref.type_id = "IDL:test:1.0";
    return ref;
  }

  orb::DirectTransport transport;
  orb::Orb client;
  orb::Orb server;
  NamingService naming;
  Trader trader;
  orb::ObjectRef naming_ref;
  orb::ObjectRef trader_ref;
};

TEST_F(ServantsFixture, NamingBindResolveUnbindOverTheWire) {
  auto bound = sync_call<NameBinding, BoolReply>(
      client, naming_ref, "bind", NameBinding{"grid/grm", some_ref(1)});
  EXPECT_TRUE(bound.ok);

  auto resolved = sync_call<NameRequest, ResolveReply>(
      client, naming_ref, "resolve", NameRequest{"grid/grm"});
  EXPECT_TRUE(resolved.found);
  EXPECT_EQ(resolved.ref, some_ref(1));

  // Double bind refused; rebind replaces.
  auto again = sync_call<NameBinding, BoolReply>(
      client, naming_ref, "bind", NameBinding{"grid/grm", some_ref(2)});
  EXPECT_FALSE(again.ok);
  sync_call<NameBinding, cdr::Empty>(client, naming_ref, "rebind",
                                     NameBinding{"grid/grm", some_ref(2)});
  resolved = sync_call<NameRequest, ResolveReply>(client, naming_ref, "resolve",
                                                  NameRequest{"grid/grm"});
  EXPECT_EQ(resolved.ref, some_ref(2));

  auto unbound = sync_call<NameRequest, BoolReply>(client, naming_ref, "unbind",
                                                   NameRequest{"grid/grm"});
  EXPECT_TRUE(unbound.ok);
  resolved = sync_call<NameRequest, ResolveReply>(client, naming_ref, "resolve",
                                                  NameRequest{"grid/grm"});
  EXPECT_FALSE(resolved.found);
}

TEST_F(ServantsFixture, TraderLifecycleOverTheWire) {
  OfferExport offer;
  offer.service_type = "node";
  offer.provider = some_ref(5);
  offer.properties.set("cpu_mips", cdr::Value(1200));
  offer.properties.set("shareable", cdr::Value(true));

  const auto exported = sync_call<OfferExport, OfferIdReply>(
      client, trader_ref, "export_offer", offer);
  EXPECT_TRUE(exported.id.valid());
  EXPECT_EQ(trader.offer_count(), 1u);

  OfferQuery query;
  query.service_type = "node";
  query.constraint = "cpu_mips >= 1000 and shareable == true";
  query.preference = "max cpu_mips";
  auto result = sync_call<OfferQuery, OfferQueryReply>(client, trader_ref,
                                                       "query", query);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.offers.size(), 1u);
  EXPECT_EQ(result.offers[0].id, exported.id);
  EXPECT_EQ(result.offers[0].provider, some_ref(5));
  EXPECT_EQ(result.offers[0].properties.get_int("cpu_mips"), 1200);

  // Modify below the constraint threshold: query comes back empty.
  OfferExport modify = offer;
  modify.id = exported.id;
  modify.properties.set("cpu_mips", cdr::Value(800));
  auto modified = sync_call<OfferExport, BoolReply>(client, trader_ref,
                                                    "modify", modify);
  EXPECT_TRUE(modified.ok);
  result = sync_call<OfferQuery, OfferQueryReply>(client, trader_ref, "query",
                                                  query);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.offers.empty());

  auto withdrawn = sync_call<OfferIdReply, BoolReply>(
      client, trader_ref, "withdraw", OfferIdReply{exported.id});
  EXPECT_TRUE(withdrawn.ok);
  withdrawn = sync_call<OfferIdReply, BoolReply>(client, trader_ref, "withdraw",
                                                 OfferIdReply{exported.id});
  EXPECT_FALSE(withdrawn.ok);  // already gone
  EXPECT_EQ(trader.offer_count(), 0u);
}

TEST_F(ServantsFixture, TraderQueryReportsParseErrors) {
  OfferQuery query;
  query.service_type = "node";
  query.constraint = "((broken";
  auto result = sync_call<OfferQuery, OfferQueryReply>(client, trader_ref,
                                                       "query", query);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST_F(ServantsFixture, TraderEmptyConstraintMatchesAll) {
  for (int i = 0; i < 3; ++i) {
    OfferExport offer;
    offer.service_type = "node";
    offer.provider = some_ref(static_cast<std::uint64_t>(10 + i));
    offer.properties.set("cpu_mips", cdr::Value(1000 + i));
    sync_call<OfferExport, OfferIdReply>(client, trader_ref, "export_offer",
                                         offer);
  }
  OfferQuery query;
  query.service_type = "node";
  query.max_matches = 2;
  auto result = sync_call<OfferQuery, OfferQueryReply>(client, trader_ref,
                                                       "query", query);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.offers.size(), 2u);
}

}  // namespace
}  // namespace integrade::services
