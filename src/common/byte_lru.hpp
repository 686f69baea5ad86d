/// \file byte_lru.hpp
/// \brief A byte-budgeted least-recently-used store of immutable values: the
///        one cache body behind cluster::TimingCache and api::TemplateCache.
///
/// Values are held as shared_ptr<const Value>, so a value a caller found or
/// inserted stays valid and unchanged after its entry is evicted: a replay
/// or a fork in flight never sees its record or image go away. Each entry is
/// charged the bytes its owner states plus the store's own bookkeeping
/// against one fixed budget. Inserting evicts least recently used entries
/// until the budget holds, and an entry larger than the whole budget is not
/// stored. insert() is first-writer-wins: an equal key already stored keeps
/// its value, and every caller gets that one back.
///
/// Key::hash() only picks the bucket; a match is confirmed with a full ==.
/// The store takes no lock: its owner serializes access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

namespace redmule {

template <class Key, class Value>
class ByteLru {
 public:
  using Ptr = std::shared_ptr<const Value>;

  explicit ByteLru(size_t budget_bytes) : budget_bytes_(budget_bytes) {}
  ByteLru(const ByteLru&) = delete;
  ByteLru& operator=(const ByteLru&) = delete;

  /// The value stored under a key equal to \p probe, made most recently
  /// used; nullptr when none is. \p probe is a Key, or any type whose hash()
  /// agrees with Key's and that compares with a Key by ==.
  template <class Probe>
  Ptr find(const Probe& probe) {
    const auto it = locate(probe.hash(), probe);
    if (it == lru_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it);
    return it->value;
  }

  /// Stores \p value under \p key, charged \p bytes (what the value and the
  /// key hold beyond the entry itself) plus the entry's bookkeeping. Returns
  /// the value canonical for the key: the stored one when an equal key is
  /// already present (it is made most recently used), otherwise \p value,
  /// which is stored unless its charge exceeds the whole budget.
  Ptr insert(Key key, Ptr value, size_t bytes) {
    const uint64_t hash = key.hash();
    if (const auto it = locate(hash, key); it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      return it->value;
    }
    bytes += kEntryOverhead;
    if (bytes > budget_bytes_) return value;
    while (bytes_ + bytes > budget_bytes_) evict_lru();
    bytes_ += bytes;
    lru_.push_front(Entry{std::move(key), value, hash, bytes});
    index_.emplace(hash, lru_.begin());
    return value;
  }

  size_t size() const { return lru_.size(); }
  /// Bytes charged by the stored entries now; never above budget_bytes().
  size_t bytes() const { return bytes_; }
  /// Entries evicted since construction.
  uint64_t evictions() const { return evictions_; }
  size_t budget_bytes() const { return budget_bytes_; }

  /// Visits every stored (key, value) pair, most recently used first.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : lru_) fn(e.key, *e.value);
  }

 private:
  struct Entry {
    Key key;
    Ptr value;
    uint64_t hash;
    size_t bytes;
  };
  using List = std::list<Entry>;  ///< front = most recently used

  /// The entry, its list node's two links and its index node (about four
  /// words: a link, the cached hash, the key and the iterator).
  static constexpr size_t kEntryOverhead = sizeof(Entry) + 6 * sizeof(void*);

  template <class Probe>
  typename List::iterator locate(uint64_t hash, const Probe& probe) {
    const auto [first, last] = index_.equal_range(hash);
    for (auto it = first; it != last; ++it)
      if (it->second->key == probe) return it->second;
    return lru_.end();
  }

  void evict_lru() {
    const auto victim = std::prev(lru_.end());
    const auto [first, last] = index_.equal_range(victim->hash);
    for (auto it = first; it != last; ++it) {
      if (it->second == victim) {
        index_.erase(it);
        break;
      }
    }
    bytes_ -= victim->bytes;
    ++evictions_;
    lru_.erase(victim);
  }

  size_t budget_bytes_;
  List lru_;
  std::unordered_multimap<uint64_t, typename List::iterator> index_;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace redmule
