#include "services/servants.hpp"

namespace integrade::services {

NamingServant::NamingServant(NamingService& naming) {
  register_op<NameBinding, BoolReply>(
      "bind", [&naming](const NameBinding& binding) -> Result<BoolReply> {
        const Status status = naming.bind(binding.path, binding.ref);
        return BoolReply{status.is_ok(), status.message()};
      });
  register_op<NameBinding, cdr::Empty>(
      "rebind", [&naming](const NameBinding& binding) -> Result<cdr::Empty> {
        naming.rebind(binding.path, binding.ref);
        return cdr::Empty{};
      });
  register_op<NameRequest, ResolveReply>(
      "resolve", [&naming](const NameRequest& request) -> Result<ResolveReply> {
        ResolveReply reply;
        auto resolved = naming.resolve(request.path);
        reply.found = resolved.is_ok();
        if (resolved.is_ok()) reply.ref = resolved.value();
        return reply;
      });
  register_op<NameRequest, BoolReply>(
      "unbind", [&naming](const NameRequest& request) -> Result<BoolReply> {
        const Status status = naming.unbind(request.path);
        return BoolReply{status.is_ok(), status.message()};
      });
}

TraderServant::TraderServant(Trader& trader, Rng rng) : rng_(rng) {
  register_op<OfferExport, OfferIdReply>(
      "export_offer",
      [&trader](const OfferExport& request) -> Result<OfferIdReply> {
        return OfferIdReply{trader.export_offer(
            request.service_type, request.provider, request.properties)};
      });
  register_op<OfferIdReply, BoolReply>(
      "withdraw", [&trader](const OfferIdReply& request) -> Result<BoolReply> {
        const Status status = trader.withdraw(request.id);
        return BoolReply{status.is_ok(), status.message()};
      });
  register_op<OfferExport, BoolReply>(
      "modify", [&trader](const OfferExport& request) -> Result<BoolReply> {
        const Status status = trader.modify(request.id, request.properties);
        return BoolReply{status.is_ok(), status.message()};
      });
  register_op<OfferQuery, OfferQueryReply>(
      "query", [this, &trader](const OfferQuery& request) -> Result<OfferQueryReply> {
        OfferQueryReply reply;
        auto result = trader.query(
            request.service_type, request.constraint.empty() ? "true" : request.constraint,
            request.preference, static_cast<std::size_t>(
                                    std::max<std::int32_t>(0, request.max_matches)),
            &rng_);
        if (!result.is_ok()) {
          reply.ok = false;
          reply.error = result.status().to_string();
          return reply;
        }
        reply.ok = true;
        for (const auto* offer : result.value()) {
          reply.offers.push_back(
              OfferDescription{offer->id, offer->provider, offer->properties});
        }
        return reply;
      });
}

}  // namespace integrade::services
