// The Trader's by-name query reference, shared by the trader tests and
// bench_trader: every offer of the type in id order, the constraint and the
// preference evaluated by property name on each offer's PropertySet, a full
// rank, then the first `max_matches` (0 = all). Trader::query_compiled must
// return exactly this, in this order, for every input.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "services/constraint.hpp"
#include "services/trader.hpp"

namespace integrade::services {

inline std::vector<const ServiceOffer*> query_linear(
    const Trader& trader, const std::string& service_type,
    const Constraint& constraint, const Preference& preference,
    std::size_t max_matches = 0, Rng* rng = nullptr) {
  std::vector<const ServiceOffer*> matched;
  std::vector<const PropertySet*> sets;
  for (const ServiceOffer* offer : trader.offers_of_type(service_type)) {
    if (constraint.matches(offer->properties)) {
      matched.push_back(offer);
      sets.push_back(&offer->properties);
    }
  }
  const std::vector<std::size_t> order = preference.rank(sets, rng);
  const std::size_t limit =
      max_matches == 0 ? matched.size() : std::min(max_matches, matched.size());
  std::vector<const ServiceOffer*> out;
  out.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) out.push_back(matched[order[i]]);
  return out;
}

}  // namespace integrade::services
