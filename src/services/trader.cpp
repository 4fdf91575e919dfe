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

void Trader::index_offer(const ServiceOffer& offer) {
  // Ids are handed out monotonically, so appending keeps buckets id-sorted.
  by_type_[offer.service_type].push_back(&offer);
  by_provider_[ProviderKey{offer.service_type, offer.provider}].push_back(
      offer.id);
}

void Trader::unindex_offer(const ServiceOffer& offer) {
  auto type_it = by_type_.find(offer.service_type);
  if (type_it != by_type_.end()) {
    auto& bucket = type_it->second;
    auto pos = std::lower_bound(bucket.begin(), bucket.end(), offer.id,
                                [](const ServiceOffer* o, OfferId id) {
                                  return o->id < id;
                                });
    if (pos != bucket.end() && (*pos)->id == offer.id) bucket.erase(pos);
    if (bucket.empty()) by_type_.erase(type_it);
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

std::vector<const ServiceOffer*> Trader::query_compiled(
    const std::string& service_type, const Constraint& constraint,
    const Preference& preference, std::size_t max_matches, Rng* rng) const {
  auto type_it = by_type_.find(service_type);
  if (type_it == by_type_.end()) return {};

  // `first` preference keeps discovery (id) order, so a bounded query can
  // stop scanning at the max_matches-th match — the dominant cost of a
  // selective query is evaluating the constraint per offer, and this skips
  // the whole tail of the bucket. Every other preference needs the full
  // match set (kMax/kMin/kWith rank it; kRandom's shuffle must draw from
  // exactly the full set to stay replay-identical with the linear path).
  const bool stop_at_limit =
      max_matches > 0 && preference.kind() == Preference::Kind::kFirst;

  std::vector<const ServiceOffer*> matched;
  for (const ServiceOffer* offer : type_it->second) {
    if (constraint.matches(offer->properties)) {
      matched.push_back(offer);
      if (stop_at_limit && matched.size() == max_matches) break;
    }
  }

  std::vector<const PropertySet*> sets;
  sets.reserve(matched.size());
  for (const auto* offer : matched) sets.push_back(&offer->properties);
  const std::vector<std::size_t> order = preference.top(sets, max_matches, rng);

  std::vector<const ServiceOffer*> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(matched[i]);
  return out;
}

std::vector<const ServiceOffer*> Trader::query_linear(
    const std::string& service_type, const Constraint& constraint,
    const Preference& preference, std::size_t max_matches, Rng* rng) const {
  std::vector<const ServiceOffer*> matched;
  for (const auto& [_, offer] : offers_) {
    if (offer.service_type != service_type) continue;
    if (constraint.matches(offer.properties)) matched.push_back(&offer);
  }

  std::vector<const PropertySet*> sets;
  sets.reserve(matched.size());
  for (const auto* offer : matched) sets.push_back(&offer->properties);
  const std::vector<std::size_t> order = preference.rank(sets, rng);

  std::vector<const ServiceOffer*> out;
  const std::size_t limit =
      max_matches == 0 ? matched.size() : std::min(max_matches, matched.size());
  out.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) out.push_back(matched[order[i]]);
  return out;
}

std::size_t Trader::offer_count(const std::string& service_type) const {
  auto it = by_type_.find(service_type);
  return it == by_type_.end() ? 0 : it->second.size();
}

std::vector<const ServiceOffer*> Trader::offers_of_type(
    const std::string& service_type) const {
  auto it = by_type_.find(service_type);
  if (it == by_type_.end()) return {};
  return it->second;
}

Status Trader::check_invariants() const {
  std::size_t bucketed = 0;
  for (const auto& [type, bucket] : by_type_) {
    if (bucket.empty()) {
      return Status(ErrorCode::kInternal, "empty type bucket for " + type);
    }
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const ServiceOffer* offer = bucket[i];
      const ServiceOffer* live = lookup(offer->id);
      if (live != offer) {
        return Status(ErrorCode::kInternal,
                      "type bucket " + type + " holds stale offer pointer");
      }
      if (offer->service_type != type) {
        return Status(ErrorCode::kInternal,
                      "offer " + to_string(offer->id) + " in wrong bucket " + type);
      }
      if (i > 0 && !(bucket[i - 1]->id < offer->id)) {
        return Status(ErrorCode::kInternal,
                      "type bucket " + type + " not id-ascending");
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
