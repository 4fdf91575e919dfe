// CORBA servant wrappers for the Naming and Trading services.
//
// Inside a cluster the GRM reaches its Trader in-process, but the paper's
// architecture exports both services as CORBA objects ("InteGrade services
// are exported as CORBA IDL interfaces", §1) so that tools and remote
// clusters can resolve names and browse offers over the wire. These
// skeletons provide that surface on top of the library classes.
//
// Operations (all payloads CDR-encoded):
//   Naming : bind(NameBinding) -> BoolReply      rebind(NameBinding) -> Empty
//            resolve(NameRequest) -> ResolveReply unbind(NameRequest) -> BoolReply
//   Trader : export_offer(OfferExport) -> OfferIdReply
//            withdraw(OfferIdReply) -> BoolReply
//            modify(OfferExport w/ id) -> BoolReply
//            query(OfferQuery) -> OfferQueryReply
#pragma once

#include <memory>

#include "orb/orb.hpp"
#include "services/naming.hpp"
#include "services/trader.hpp"

namespace integrade::services {

// ---- wire structs ----

struct NameBinding {
  std::string path;
  orb::ObjectRef ref;
  bool operator==(const NameBinding&) const = default;
};
constexpr auto wire_fields(const NameBinding*) {
  using S = NameBinding;
  return cdr::fields(&S::path, &S::ref);
}

struct NameRequest {
  std::string path;
  bool operator==(const NameRequest&) const = default;
};
constexpr auto wire_fields(const NameRequest*) {
  return cdr::fields(&NameRequest::path);
}

struct ResolveReply {
  bool found = false;
  orb::ObjectRef ref;
  bool operator==(const ResolveReply&) const = default;
};
constexpr auto wire_fields(const ResolveReply*) {
  using S = ResolveReply;
  return cdr::fields(&S::found, &S::ref);
}

struct BoolReply {
  bool ok = false;
  std::string detail;
  bool operator==(const BoolReply&) const = default;
};
constexpr auto wire_fields(const BoolReply*) {
  using S = BoolReply;
  return cdr::fields(&S::ok, &S::detail);
}

struct OfferExport {
  OfferId id;  // invalid for export, set for modify
  std::string service_type;
  orb::ObjectRef provider;
  PropertySet properties;
  bool operator==(const OfferExport&) const = default;
};
constexpr auto wire_fields(const OfferExport*) {
  using S = OfferExport;
  return cdr::fields(&S::id, &S::service_type, &S::provider, &S::properties);
}

struct OfferIdReply {
  OfferId id;
  bool operator==(const OfferIdReply&) const = default;
};
constexpr auto wire_fields(const OfferIdReply*) {
  return cdr::fields(&OfferIdReply::id);
}

struct OfferQuery {
  std::string service_type;
  std::string constraint;
  std::string preference;
  std::int32_t max_matches = 0;
  bool operator==(const OfferQuery&) const = default;
};
constexpr auto wire_fields(const OfferQuery*) {
  using S = OfferQuery;
  return cdr::fields(&S::service_type, &S::constraint, &S::preference,
                     &S::max_matches);
}

struct OfferDescription {
  OfferId id;
  orb::ObjectRef provider;
  PropertySet properties;
  bool operator==(const OfferDescription&) const = default;
};
constexpr auto wire_fields(const OfferDescription*) {
  using S = OfferDescription;
  return cdr::fields(&S::id, &S::provider, &S::properties);
}

struct OfferQueryReply {
  bool ok = false;
  std::string error;
  std::vector<OfferDescription> offers;
  bool operator==(const OfferQueryReply&) const = default;
};
constexpr auto wire_fields(const OfferQueryReply*) {
  using S = OfferQueryReply;
  return cdr::fields(&S::ok, &S::error, &S::offers);
}

// ---- servants ----

class NamingServant final : public orb::SkeletonBase {
 public:
  explicit NamingServant(NamingService& naming);
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/CosNaming:1.0";
  }
};

class TraderServant final : public orb::SkeletonBase {
 public:
  TraderServant(Trader& trader, Rng rng);
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/CosTrading:1.0";
  }

 private:
  Rng rng_;
};

}  // namespace integrade::services
