// Trading Object Service.
//
// The GRM's information repository (paper §5: node status received from the
// LRMs is stored in the Trader). Exporters register *service offers* — a
// service type, the exporter's object reference, and a property set;
// importers query with a constraint expression and a preference that ranks
// the matches. Offers are modified in place by the Information Update
// Protocol as fresh LRM status arrives.
//
// Hot-path structure: offers live in an id-keyed map (stable addresses), and
// two secondary indexes keep query traffic off the full map — a per-type
// bucket of offer pointers in id order (so type-scoped scans touch only that
// type's offers) and a (service_type, provider) hash index for the
// Information Update Protocol's "which offer is this LRM's?" lookup. String
// queries additionally memoize their compiled constraint/preference in an
// LRU keyed by source text, since schedulers re-issue the same handful of
// expressions every round.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lru.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "orb/ior.hpp"
#include "services/constraint.hpp"
#include "services/property.hpp"

namespace integrade::services {

struct OfferTag {};
using OfferId = Id<OfferTag>;

struct ServiceOffer {
  OfferId id;
  std::string service_type;
  orb::ObjectRef provider;
  PropertySet properties;
};

class Trader {
 public:
  /// Register an offer; returns its id for later modify/withdraw.
  OfferId export_offer(const std::string& service_type,
                       const orb::ObjectRef& provider, PropertySet properties);

  Status withdraw(OfferId id);

  /// Replace the offer's property set (the common case: a full status
  /// refresh from an LRM).
  Status modify(OfferId id, PropertySet properties);

  /// In-place property refresh: apply `fn` to the offer's existing property
  /// set instead of building a replacement. The Information Update Protocol
  /// uses this so a heartbeat reuses the offer's map nodes and key strings
  /// rather than reallocating the whole set every period.
  template <class Fn>
  Status refresh(OfferId id, Fn&& fn) {
    auto it = offers_.find(id);
    if (it == offers_.end()) {
      return Status(ErrorCode::kNotFound, "no offer " + to_string(id));
    }
    fn(it->second.properties);
    return Status::ok();
  }

  [[nodiscard]] const ServiceOffer* lookup(OfferId id) const;

  /// Find the offer exported by `provider` for `service_type`, if any.
  /// O(1) via the provider index; multiple offers from one provider resolve
  /// to the earliest-exported one, as the pre-index linear scan did.
  [[nodiscard]] const ServiceOffer* find_by_provider(
      const std::string& service_type, const orb::ObjectRef& provider) const;

  /// Query: parse `constraint` and `preference` (memoized in an LRU keyed by
  /// source string), filter offers of `service_type`, rank, and return up to
  /// `max_matches` (0 = unlimited). Parse errors return InvalidArgument.
  Result<std::vector<const ServiceOffer*>> query(const std::string& service_type,
                                                 const std::string& constraint,
                                                 const std::string& preference,
                                                 std::size_t max_matches = 0,
                                                 Rng* rng = nullptr) const;

  /// Pre-compiled variant, used by the GRM on its scheduling fast path.
  /// Scans only the type's bucket; `max_matches > 0` ranks via top-k
  /// selection instead of sorting every match, and with the `first`
  /// preference additionally stops scanning at the max_matches-th match.
  /// Results are byte-identical to the linear reference below for every
  /// input.
  [[nodiscard]] std::vector<const ServiceOffer*> query_compiled(
      const std::string& service_type, const Constraint& constraint,
      const Preference& preference, std::size_t max_matches = 0,
      Rng* rng = nullptr) const;

  /// Reference implementation: full-map scan + full rank, exactly the
  /// pre-index code path. Kept for the equivalence tests and the
  /// bench_trader before/after comparison — not for production callers.
  [[nodiscard]] std::vector<const ServiceOffer*> query_linear(
      const std::string& service_type, const Constraint& constraint,
      const Preference& preference, std::size_t max_matches = 0,
      Rng* rng = nullptr) const;

  [[nodiscard]] std::size_t offer_count() const { return offers_.size(); }
  [[nodiscard]] std::size_t offer_count(const std::string& service_type) const;

  /// Iterate all offers of a type (unranked, id order), for maintenance
  /// sweeps.
  [[nodiscard]] std::vector<const ServiceOffer*> offers_of_type(
      const std::string& service_type) const;

  /// Resize the compiled-expression memo (both caches), discarding every
  /// cached entry. Tests shrink it to 1 so that any compiled expression held
  /// by pointer across a nested insertion becomes an immediate
  /// use-after-evict instead of a latent one.
  void set_compiled_cache_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t compiled_cache_capacity() const {
    return constraint_cache_.capacity();
  }

  /// Verify both secondary indexes against the offer map: every offer in
  /// exactly one type bucket (id-ascending), every provider entry backed by
  /// live offers, no strays. Used by tests and debug builds; returns the
  /// first violation found.
  [[nodiscard]] Status check_invariants() const;

 private:
  struct ProviderKey {
    std::string service_type;
    orb::ObjectRef provider;
    bool operator==(const ProviderKey&) const = default;
  };
  struct ProviderKeyHash {
    std::size_t operator()(const ProviderKey& k) const noexcept;
  };

  void index_offer(const ServiceOffer& offer);
  void unindex_offer(const ServiceOffer& offer);

  std::map<OfferId, ServiceOffer> offers_;  // node-based: stable addresses
  /// Offers of each type, id-ascending (= export order; ids are monotonic).
  std::unordered_map<std::string, std::vector<const ServiceOffer*>> by_type_;
  /// Offer ids per (service_type, provider), id-ascending.
  std::unordered_map<ProviderKey, std::vector<OfferId>, ProviderKeyHash>
      by_provider_;
  std::uint64_t next_id_ = 1;

  /// Compiled-expression memo for string queries (mutable: caching is not
  /// observable through the const interface).
  mutable LruCache<std::string, Constraint> constraint_cache_{128};
  mutable LruCache<std::string, Preference> preference_cache_{128};
};

}  // namespace integrade::services
