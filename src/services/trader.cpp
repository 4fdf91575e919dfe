#include "services/trader.hpp"

#include <algorithm>

namespace integrade::services {

namespace {

inline void hash_mix(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t Trader::ProviderKeyHash::operator()(
    const ProviderKey& k) const noexcept {
  std::size_t seed = std::hash<std::string>{}(k.service_type);
  hash_mix(seed, std::hash<std::uint64_t>{}(k.provider.host));
  hash_mix(seed, std::hash<std::uint64_t>{}(k.provider.key.value));
  hash_mix(seed, std::hash<std::string>{}(k.provider.type_id));
  return seed;
}

void SlotWriter::add(std::size_t slot, cdr::Value value) {
  std::vector<cdr::Value*>& slots = offer_.slots_;
  if (slot >= slots.size()) slots.resize(slot + 1, nullptr);
  // The one pointer that changes: adding a name moves no other value.
  slots[slot] = &offer_.properties.set(offer_.type_->names.at(slot),
                                       std::move(value));
  offer_.bound_version_ = offer_.properties.names_version();
}

namespace {

/// Where `name` is, or belongs, in a type's name-ordered (name, slot) table.
auto name_position(const OfferType& type, const std::string& name) {
  return std::lower_bound(type.by_name.begin(), type.by_name.end(), name,
                          [](const auto& entry, const std::string& key) {
                            return entry.first < key;
                          });
}

}  // namespace

std::uint32_t OfferType::slot_of(const std::string& name) const {
  const auto it = name_position(*this, name);
  return it != by_name.end() && it->first == name ? it->second
                                                  : SlotReader::kUnbound;
}

void OfferType::append(std::size_t at, const std::string& name) {
  by_name.emplace(by_name.begin() + static_cast<std::ptrdiff_t>(at), name,
                  static_cast<std::uint32_t>(names.size()));
  names.push_back(name);
}

void Trader::declare_type(const std::string& service_type,
                          std::span<const char* const> names) {
  OfferType& type = types_[service_type];
  type.declared = true;
  for (const char* name : names) {
    const auto it = name_position(type, name);
    if (it == type.by_name.end() || it->first != name) {
      type.append(static_cast<std::size_t>(it - type.by_name.begin()), name);
    }
  }
}

void Trader::bind_slots(ServiceOffer& offer) {
  OfferType& type = *offer.type_;
  std::vector<cdr::Value*>& slots = offer.slots_;
  slots.assign(type.names.size(), nullptr);
  // The set visits its names in name order, so one walk along the table's
  // name order finds every slot, and a name the table lacks is inserted
  // where the walk stands.
  std::size_t at = 0;
  offer.properties.for_each_value([&](const std::string& name,
                                      cdr::Value& value) {
    int order = -1;  // stays negative when the walk is past the table's end
    while (at < type.by_name.size() &&
           (order = type.by_name[at].first.compare(name)) < 0) {
      ++at;
    }
    if (order != 0) {
      type.append(at, name);
      slots.push_back(nullptr);
    }
    slots[type.by_name[at++].second] = &value;
  });
  offer.bound_version_ = offer.properties.names_version();
}

void Trader::index_offer(ServiceOffer& offer) {
  OfferType& type = types_[offer.service_type];
  offer.type_ = &type;
  // Ids are handed out monotonically, so appending keeps buckets id-sorted.
  type.offers.push_back(&offer);
  by_provider_[ProviderKey{offer.service_type, offer.provider}].push_back(
      offer.id);
  bind_slots(offer);
}

void Trader::unindex_offer(const ServiceOffer& offer) {
  auto type_it = types_.find(offer.service_type);
  if (type_it != types_.end()) {
    auto& bucket = type_it->second.offers;
    auto pos = std::lower_bound(bucket.begin(), bucket.end(), offer.id,
                                [](const ServiceOffer* o, OfferId id) {
                                  return o->id < id;
                                });
    if (pos != bucket.end() && (*pos)->id == offer.id) bucket.erase(pos);
    if (bucket.empty() && !type_it->second.declared) types_.erase(type_it);
  }
  auto prov_it = by_provider_.find(ProviderKey{offer.service_type, offer.provider});
  if (prov_it != by_provider_.end()) {
    auto& ids = prov_it->second;
    auto pos = std::lower_bound(ids.begin(), ids.end(), offer.id);
    if (pos != ids.end() && *pos == offer.id) ids.erase(pos);
    if (ids.empty()) by_provider_.erase(prov_it);
  }
}

OfferId Trader::export_offer(const std::string& service_type,
                             const orb::ObjectRef& provider,
                             PropertySet properties) {
  const OfferId id(next_id_++);
  ServiceOffer offer;
  offer.id = id;
  offer.service_type = service_type;
  offer.provider = provider;
  offer.properties = std::move(properties);
  auto [it, inserted] = offers_.emplace(id, std::move(offer));
  (void)inserted;
  index_offer(it->second);
  return id;
}

Status Trader::withdraw(OfferId id) {
  auto it = offers_.find(id);
  if (it == offers_.end()) {
    return Status(ErrorCode::kNotFound, "no offer " + to_string(id));
  }
  unindex_offer(it->second);
  offers_.erase(it);
  return Status::ok();
}

Status Trader::modify(OfferId id, PropertySet properties) {
  auto it = offers_.find(id);
  if (it == offers_.end()) {
    return Status(ErrorCode::kNotFound, "no offer " + to_string(id));
  }
  it->second.properties = std::move(properties);
  bind_slots(it->second);
  return Status::ok();
}

void Trader::set_compiled_cache_capacity(std::size_t capacity) {
  constraint_cache_ = LruCache<std::string, Constraint>(capacity);
  preference_cache_ = LruCache<std::string, Preference>(capacity);
}

const ServiceOffer* Trader::lookup(OfferId id) const {
  auto it = offers_.find(id);
  return it == offers_.end() ? nullptr : &it->second;
}

const ServiceOffer* Trader::find_by_provider(const std::string& service_type,
                                             const orb::ObjectRef& provider) const {
  auto it = by_provider_.find(ProviderKey{service_type, provider});
  if (it == by_provider_.end() || it->second.empty()) return nullptr;
  return lookup(it->second.front());
}

Result<std::vector<const ServiceOffer*>> Trader::query(
    const std::string& service_type, const std::string& constraint,
    const std::string& preference, std::size_t max_matches, Rng* rng) const {
  // Compiled expressions are copied out of the caches (cheap: a source
  // string + shared AST root) so later insertions can never evict an entry
  // still in use.
  Constraint compiled_constraint = Constraint::always();
  if (const Constraint* cached = constraint_cache_.get(constraint)) {
    compiled_constraint = *cached;
  } else {
    auto parsed = Constraint::parse(constraint);
    if (!parsed.is_ok()) return parsed.status();
    compiled_constraint = *constraint_cache_.put(constraint,
                                                 std::move(parsed).value());
  }
  Preference compiled_preference = Preference::first();
  if (const Preference* cached = preference_cache_.get(preference)) {
    compiled_preference = *cached;
  } else {
    auto parsed = Preference::parse(preference);
    if (!parsed.is_ok()) return parsed.status();
    compiled_preference = *preference_cache_.put(preference,
                                                 std::move(parsed).value());
  }
  return query_compiled(service_type, compiled_constraint, compiled_preference,
                        max_matches, rng);
}

namespace {

/// Each name's slot in `type`, or SlotReader::kUnbound where the type has
/// no such name (it reads as absent on every offer).
std::vector<std::uint32_t> bind(const OfferType& type,
                                const std::vector<std::string>& names) {
  std::vector<std::uint32_t> binding;
  binding.reserve(names.size());
  for (const std::string& name : names) binding.push_back(type.slot_of(name));
  return binding;
}

}  // namespace

std::vector<const ServiceOffer*> Trader::query_compiled(
    const std::string& service_type, const Constraint& constraint,
    const Preference& preference, std::size_t max_matches, Rng* rng) const {
  auto type_it = types_.find(service_type);
  if (type_it == types_.end()) return {};
  const OfferType& type = type_it->second;
  const std::vector<std::uint32_t> constraint_slots = bind(type, constraint.names());
  const std::vector<std::uint32_t> preference_slots = bind(type, preference.names());

  // `first` preference keeps discovery (id) order, so a bounded query can
  // stop scanning at the max_matches-th match — the dominant cost of a
  // selective query is evaluating the constraint per offer, and this skips
  // the whole tail of the bucket. Every other preference needs the full
  // match set (kMax/kMin/kWith rank it; kRandom's shuffle must draw from
  // exactly the full set to stay replay-identical with the linear path).
  const bool stop_at_limit =
      max_matches > 0 && preference.kind() == Preference::Kind::kFirst;

  // Sized once, so a query's allocations do not grow with the offers it
  // matches.
  std::vector<const ServiceOffer*> matched;
  matched.reserve(stop_at_limit ? std::min(max_matches, type.offers.size())
                                : type.offers.size());
  for (const ServiceOffer* offer : type.offers) {
    if (constraint.matches(SlotReader(constraint_slots, offer->slots_))) {
      matched.push_back(offer);
      if (stop_at_limit && matched.size() == max_matches) break;
    }
  }

  std::vector<SlotReader> readers;
  readers.reserve(matched.size());
  for (const ServiceOffer* offer : matched) {
    readers.emplace_back(preference_slots, offer->slots_);
  }
  const std::vector<std::size_t> order =
      preference.top(readers, max_matches, rng);

  std::vector<const ServiceOffer*> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(matched[i]);
  return out;
}

std::size_t Trader::offer_count(const std::string& service_type) const {
  auto it = types_.find(service_type);
  return it == types_.end() ? 0 : it->second.offers.size();
}

std::vector<const ServiceOffer*> Trader::offers_of_type(
    const std::string& service_type) const {
  auto it = types_.find(service_type);
  if (it == types_.end()) return {};
  return it->second.offers;
}

namespace {

/// The slot table's own consistency, and the offer's slots against its
/// properties: each slot points at the offer's value of that slot's name,
/// or is null where the offer lacks it, and the table names every property.
Status check_slots(const std::string& type_name, const OfferType& type,
                   const ServiceOffer& offer,
                   const std::vector<cdr::Value*>& slots) {
  const auto fail = [&](const std::string& what) {
    return Status(ErrorCode::kInternal,
                  "offer " + to_string(offer.id) + " of " + type_name + what);
  };
  if (slots.size() > type.names.size()) return fail(" has more slots than names");
  for (std::size_t slot = 0; slot < type.names.size(); ++slot) {
    const cdr::Value* bound = slot < slots.size() ? slots[slot] : nullptr;
    if (bound != offer.properties.find(type.names[slot])) {
      return fail(" has a stale slot for " + type.names[slot]);
    }
  }
  for (const auto& [name, _] : offer.properties.entries()) {
    if (type.slot_of(name) == SlotReader::kUnbound) {
      return fail(" has unslotted " + name);
    }
  }
  return Status::ok();
}

}  // namespace

Status Trader::check_invariants() const {
  std::size_t bucketed = 0;
  for (const auto& [type, entry] : types_) {
    const auto& bucket = entry.offers;
    if (bucket.empty() && !entry.declared) {
      return Status(ErrorCode::kInternal, "empty type bucket for " + type);
    }
    if (entry.by_name.size() != entry.names.size()) {
      return Status(ErrorCode::kInternal,
                    "type " + type + " has a name table of the wrong size");
    }
    for (std::size_t i = 0; i < entry.by_name.size(); ++i) {
      const auto& [name, slot] = entry.by_name[i];
      if (i > 0 && !(entry.by_name[i - 1].first < name)) {
        return Status(ErrorCode::kInternal,
                      "type " + type + " repeats or misorders " + name);
      }
      if (slot >= entry.names.size() || entry.names[slot] != name) {
        return Status(ErrorCode::kInternal,
                      "type " + type + " misfiles " + name);
      }
    }
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const ServiceOffer* offer = bucket[i];
      const ServiceOffer* live = lookup(offer->id);
      if (live != offer) {
        return Status(ErrorCode::kInternal,
                      "type bucket " + type + " holds stale offer pointer");
      }
      if (offer->service_type != type || offer->type_ != &entry) {
        return Status(ErrorCode::kInternal,
                      "offer " + to_string(offer->id) + " in wrong bucket " + type);
      }
      if (i > 0 && !(bucket[i - 1]->id < offer->id)) {
        return Status(ErrorCode::kInternal,
                      "type bucket " + type + " not id-ascending");
      }
      if (offer->bound_version_ != offer->properties.names_version()) {
        return Status(ErrorCode::kInternal,
                      "offer " + to_string(offer->id) + " has unbound names");
      }
      if (Status status = check_slots(type, entry, *offer, offer->slots_);
          !status.is_ok()) {
        return status;
      }
    }
    bucketed += bucket.size();
  }
  if (bucketed != offers_.size()) {
    return Status(ErrorCode::kInternal,
                  "type buckets cover " + std::to_string(bucketed) + " of " +
                      std::to_string(offers_.size()) + " offers");
  }

  std::size_t provider_entries = 0;
  for (const auto& [key, ids] : by_provider_) {
    if (ids.empty()) {
      return Status(ErrorCode::kInternal,
                    "empty provider entry for " + key.service_type);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const ServiceOffer* offer = lookup(ids[i]);
      if (offer == nullptr) {
        return Status(ErrorCode::kInternal,
                      "provider index holds dead offer " + to_string(ids[i]));
      }
      if (offer->service_type != key.service_type ||
          !(offer->provider == key.provider)) {
        return Status(ErrorCode::kInternal,
                      "provider index misfiled offer " + to_string(ids[i]));
      }
      if (i > 0 && !(ids[i - 1] < ids[i])) {
        return Status(ErrorCode::kInternal,
                      "provider entry for " + key.service_type +
                          " not id-ascending");
      }
    }
    provider_entries += ids.size();
  }
  if (provider_entries != offers_.size()) {
    return Status(ErrorCode::kInternal,
                  "provider index covers " + std::to_string(provider_entries) +
                      " of " + std::to_string(offers_.size()) + " offers");
  }
  return Status::ok();
}

}  // namespace integrade::services
