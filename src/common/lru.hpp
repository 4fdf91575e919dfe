// Small intrusive-free LRU cache.
//
// Used by the Trader to memoize compiled constraint/preference expressions:
// the GRM re-issues the same handful of query strings every scheduling round,
// so an LRU keyed by source string turns a parse per call into a hash lookup.
#pragma once

#include <cstddef>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace integrade {

/// Fixed-capacity LRU map. `get` refreshes recency; inserting at capacity
/// evicts the least recently used entry and reuses its nodes for the new
/// one, so a full cache inserts without allocating. Pointers returned by
/// `get`/`put` stay valid until the entry is evicted or the cache is
/// cleared — callers that may trigger another insertion before use should
/// copy the value out.
template <class Key, class Value, class Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Value for `key`, refreshing its recency; nullptr on miss.
  Value* get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /// Insert (or overwrite) `key`; evicts the LRU entry at capacity.
  Value* put(const Key& key, Value value) {
    if (auto it = index_.find(key); it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return &it->second->second;
    }
    if (capacity_ > 0 && entries_.size() >= capacity_) {
      // Recycle the evicted entry: its list node moves to the front and its
      // index node is re-keyed, exactly as an erase and a fresh insert would
      // leave the order.
      auto node = index_.extract(entries_.back().first);
      entries_.splice(entries_.begin(), entries_, std::prev(entries_.end()));
      entries_.front().first = key;
      entries_.front().second = std::move(value);
      node.key() = key;
      node.mapped() = entries_.begin();
      index_.insert(std::move(node));
      return &entries_.front().second;
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
    return &entries_.front().second;
  }

  /// Membership test that does NOT refresh recency (unlike get()).
  [[nodiscard]] bool contains(const Key& key) const {
    return index_.contains(key);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Recency-ordered view (front = most recent). Snapshot serializers walk
  /// it back-to-front so that re-inserting with put() in iteration order
  /// reconstructs the exact same recency order.
  [[nodiscard]] const std::list<std::pair<Key, Value>>& entries() const {
    return entries_;
  }

  void clear() {
    entries_.clear();
    index_.clear();
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<Key, Value>> entries_;  // front = most recent
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
};

}  // namespace integrade
