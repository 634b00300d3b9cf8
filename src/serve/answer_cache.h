#ifndef PRESTROID_SERVE_ANSWER_CACHE_H_
#define PRESTROID_SERVE_ANSWER_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

namespace prestroid::serve {

/// LRU map from a generation-qualified plan fingerprint
/// (CombineFingerprint(fingerprint, generation)) to the model tier's finite
/// answer in CPU minutes. With frozen weights an answer depends only on the
/// plan's featurization and the model, so a recurring plan is answered
/// without featurizing or running the model again.
///
/// Not thread-safe: ServingShard guards it with its own cache mutex.
class AnswerCache {
 public:
  /// capacity == 0 disables caching (every Lookup misses, Insert is a no-op).
  explicit AnswerCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the cached answer and refreshes its recency.
  std::optional<double> Lookup(uint64_t key);

  /// Inserts (or refreshes) the answer for `key`, evicting the least
  /// recently used entry when full.
  void Insert(uint64_t key, double cpu_minutes);

  /// Drops every entry. The eviction counter is monotonic and survives.
  void Clear();

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  size_t evictions() const { return evictions_; }

 private:
  struct Entry {
    uint64_t key;
    double cpu_minutes;
  };

  size_t capacity_;
  /// Recency list, most recent at the front; the map points into it.
  std::list<Entry> lru_;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> entries_;
  size_t evictions_ = 0;
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_ANSWER_CACHE_H_
