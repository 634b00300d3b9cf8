#include "serve/answer_cache.h"

namespace prestroid::serve {

std::optional<double> AnswerCache::Lookup(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->cpu_minutes;
}

void AnswerCache::Insert(uint64_t key, double cpu_minutes) {
  if (capacity_ == 0) return;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->cpu_minutes = cpu_minutes;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (entries_.size() >= capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{key, cpu_minutes});
  entries_.emplace(key, lru_.begin());
}

void AnswerCache::Clear() {
  entries_.clear();
  lru_.clear();
}

}  // namespace prestroid::serve
