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
// three secondary indexes keep traffic off names and the full map:
//   * per service type, a property table (name -> slot, in the order the
//     type was declared or its names first arrived) and a bucket of its
//     offers in id order, so type-scoped scans touch only that type's
//     offers;
//   * per offer, slots: pointers to the values in its own PropertySet, by
//     the slot of its type — the PropertySet stays the offer's only store
//     and its import/export form. A query binds each name its constraint
//     and preference mention to slots once and then reads every offer's
//     values in place; a writer of a declared type writes by slot.
//     Slots are rebound only when an offer's names can change (export,
//     modify, a refresh that adds or erases a name);
//   * a (service_type, provider) hash index for the Information Update
//     Protocol's "which offer is this LRM's?" lookup.
// String queries additionally memoize their compiled constraint/preference
// in an LRU keyed by source text, since schedulers re-issue the same handful
// of expressions every round.
#pragma once

#include <cstdint>
#include <map>
#include <span>
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

struct ServiceOffer;

/// One service type's property table, kept by the Trader: its names by
/// slot — first the ones declare_type() listed, then others in the order
/// they first arrived — and its offers in id order.
struct OfferType {
  bool declared = false;
  std::vector<std::string> names;
  /// (name, slot) for every name, in name order: a PropertySet visits its
  /// names in that order too, so binding an offer is one merge walk.
  std::vector<std::pair<std::string, std::uint32_t>> by_name;
  std::vector<const ServiceOffer*> offers;

  /// The slot of `name`, or SlotReader::kUnbound when the type lacks it.
  [[nodiscard]] std::uint32_t slot_of(const std::string& name) const;
  /// Give `name` the next slot, inserting it at `at` in by_name (its place
  /// in name order).
  void append(std::size_t at, const std::string& name);
};

struct ServiceOffer {
  OfferId id;
  std::string service_type;
  orb::ObjectRef provider;
  PropertySet properties;

  /// The value in slot `index` of the offer's type, or nullptr when the
  /// offer lacks that slot's name.
  [[nodiscard]] const cdr::Value* slot(std::size_t index) const {
    return index < slots_.size() ? slots_[index] : nullptr;
  }

 private:
  friend class Trader;
  friend class SlotWriter;
  OfferType* type_ = nullptr;
  /// Pointers into `properties`, by slot of type_; valid while
  /// properties.names_version() equals bound_version_.
  std::vector<cdr::Value*> slots_;
  std::uint64_t bound_version_ = 0;
};

/// Writes one offer's values by the slot of its declared type, in place
/// (Trader::write_slots).
class SlotWriter {
 public:
  /// Overwrite the value in `slot` in place; a name the offer lacks is
  /// added.
  template <class T>
  void set(std::size_t slot, T&& value) {
    if (slot < offer_.slots_.size() && offer_.slots_[slot] != nullptr) {
      *offer_.slots_[slot] = cdr::Value(std::forward<T>(value));
    } else {
      add(slot, cdr::Value(std::forward<T>(value)));
    }
  }

 private:
  friend class Trader;
  explicit SlotWriter(ServiceOffer& offer) : offer_(offer) {}
  void add(std::size_t slot, cdr::Value value);
  ServiceOffer& offer_;
};

class Trader {
 public:
  Trader() = default;
  // Indexes and slots point into offers_: moving keeps them valid, copying
  // would not.
  Trader(const Trader&) = delete;
  Trader& operator=(const Trader&) = delete;
  Trader(Trader&&) = default;
  Trader& operator=(Trader&&) = default;

  /// Declare `service_type`'s property names in slot order, as the CORBA
  /// Trading Service's service-type repository does. Names the type already
  /// has keep their slots; the others are appended. Exporting under an
  /// undeclared type is accepted too; its slots follow arrival order, so
  /// only a declared type can be written by slot.
  void declare_type(const std::string& service_type,
                    std::span<const char* const> names);

  /// Register an offer; returns its id for later modify/withdraw.
  OfferId export_offer(const std::string& service_type,
                       const orb::ObjectRef& provider, PropertySet properties);

  Status withdraw(OfferId id);

  /// Replace the offer's property set (the common case: a full status
  /// refresh from an LRM).
  Status modify(OfferId id, PropertySet properties);

  /// In-place property refresh by name: apply `fn` to the offer's existing
  /// property set instead of building a replacement, reusing its map nodes
  /// and key strings. Slots are rebound only if `fn` added or erased a name.
  template <class Fn>
  Status refresh(OfferId id, Fn&& fn) {
    auto it = offers_.find(id);
    if (it == offers_.end()) {
      return Status(ErrorCode::kNotFound, "no offer " + to_string(id));
    }
    ServiceOffer& offer = it->second;
    fn(offer.properties);
    if (offer.properties.names_version() != offer.bound_version_) {
      bind_slots(offer);
    }
    return Status::ok();
  }

  /// In-place refresh by slot: `fn(SlotWriter&)` overwrites values by the
  /// slot of the offer's type, which must be declared (FailedPrecondition
  /// otherwise). The GRM's heartbeat path.
  template <class Fn>
  Status write_slots(OfferId id, Fn&& fn) {
    auto it = offers_.find(id);
    if (it == offers_.end()) {
      return Status(ErrorCode::kNotFound, "no offer " + to_string(id));
    }
    if (!it->second.type_->declared) {
      return Status(ErrorCode::kFailedPrecondition,
                    "service type " + it->second.service_type +
                        " is not declared");
    }
    SlotWriter writer(it->second);
    fn(writer);
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
  /// Binds the expressions' names to the type's slots once, then scans only
  /// the type's bucket reading values by slot; `max_matches > 0` ranks via
  /// top-k selection instead of sorting every match, and with the `first`
  /// preference additionally stops scanning at the max_matches-th match.
  /// Results are byte-identical to the by-name reference
  /// (tests/trader_reference.hpp) for every input.
  [[nodiscard]] std::vector<const ServiceOffer*> query_compiled(
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

  /// Verify the secondary indexes against the offer map: every offer in
  /// exactly one type bucket (id-ascending) whose table names each of its
  /// properties, every slot pointing at the offer's own value of its name
  /// (or null where it lacks it), every provider entry backed by live
  /// offers, no strays. Used by tests and perfbench; returns the first
  /// violation found.
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

  void index_offer(ServiceOffer& offer);
  void unindex_offer(const ServiceOffer& offer);
  /// Point the offer's slots at its values, extending its type's table
  /// with any name it does not have yet.
  static void bind_slots(ServiceOffer& offer);

  std::map<OfferId, ServiceOffer> offers_;  // node-based: stable addresses
  /// Each type's table and offers, id-ascending (= export order; ids are
  /// monotonic). Node-based: offers point at their type. An undeclared
  /// type leaves with its last offer.
  std::unordered_map<std::string, OfferType> types_;
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
