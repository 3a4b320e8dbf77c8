// Sharded, mutex-striped verdict cache for the subsumption checker.
//
// The optimizer service runs many concurrent C ⊑_Σ D checks against one
// shared checker; a single memo map (and a single lock) would serialize
// them. Keys are striped over independently locked shards, so concurrent
// lookups of different pairs almost always take different locks, and a
// lock is held only for the table operation itself — never across a
// completion run. Each shard is one flat open-addressing table: a miss,
// the usual case in a catalog scan, allocates nothing, and freeing a
// cache costs one deallocation per shard, not one per verdict.
#ifndef OODB_CALCULUS_MEMO_CACHE_H_
#define OODB_CALCULUS_MEMO_CACHE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "base/sync.h"

namespace oodb::calculus {

// Aggregate counters, also surfaced per batch by the parallel classifier.
struct MemoCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

// Concurrent map from (C, D) pair keys to cached verdicts. Verdicts are
// pure functions of the key for a fixed Σ and term factory (both
// append-only for the checker's lifetime, ids stable), so any interleaving
// of Lookup/Insert is sound: a racing duplicate Insert writes the same
// value, and an eviction only costs recomputation.
//
// Capacity is enforced per shard: when a shard exceeds its slice of
// `capacity` the shard is cleared wholesale. Catalog-scan workloads cycle
// through a stable working set, so wholesale clearing stays simple without
// LRU bookkeeping on the hit path.
class ShardedMemoCache {
 public:
  static constexpr size_t kShardBits = 4;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;

  explicit ShardedMemoCache(size_t capacity = size_t{1} << 20)
      : shard_capacity_(capacity / kNumShards + 1) {}

  std::optional<bool> Lookup(uint64_t key) const {
    Shard& shard = shards_[ShardOf(key)];
    base::MutexLock lock(&shard.mu);
    const Table& table = shard.table;
    const Slot* slot = table.size == 0 ? nullptr : &table.Probe(key);
    if (slot == nullptr || !slot->used) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return slot->verdict;
  }

  void Insert(uint64_t key, bool verdict) {
    Shard& shard = shards_[ShardOf(key)];
    base::MutexLock lock(&shard.mu);
    Table& table = shard.table;
    if (table.size >= shard_capacity_) {
      shard.evictions += table.size;
      table.Clear();
    }
    if (4 * (table.size + 1) > 3 * table.num_slots) table.Grow();
    Slot& slot = table.Probe(key);
    if (!slot.used) {
      slot = Slot{key, true, verdict};
      ++table.size;
      insertions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  size_t size() const {
    size_t total = 0;
    for (Shard& shard : shards_) {
      base::MutexLock lock(&shard.mu);
      total += shard.table.size;
    }
    return total;
  }

  MemoCacheStats Stats() const {
    MemoCacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.insertions = insertions_.load(std::memory_order_relaxed);
    for (Shard& shard : shards_) {
      base::MutexLock lock(&shard.mu);
      stats.evictions += shard.evictions;
      stats.entries += shard.table.size;
    }
    return stats;
  }

  void Clear() {
    for (Shard& shard : shards_) {
      base::MutexLock lock(&shard.mu);
      shard.table.Clear();
    }
  }

  // Shard routing, public so tests can pin the distribution and build
  // same-shard key sets. Fibonacci hash: pair keys are (c << 32 | d)
  // with small dense ids, so the raw low bits would put whole catalogs
  // in one shard.
  static size_t ShardOf(uint64_t key) {
    return Mix(key) >> (64 - kShardBits);
  }

 private:
  static uint64_t Mix(uint64_t key) { return key * 0x9e3779b97f4a7c15ull; }

  // A slot's own `used` flag marks it occupied, so no key value is
  // reserved as the empty marker: (0, 0) and (UINT32_MAX, UINT32_MAX) are
  // keys like any other.
  struct Slot {
    uint64_t key = 0;
    bool used = false;
    bool verdict = false;
  };

  // One shard's verdicts: linear probing over a power-of-two slot array,
  // allocated on the first insert and doubled when 3/4 full, never sized
  // to the shard's capacity up front. Clear empties it in place.
  struct Table {
    std::unique_ptr<Slot[]> slots;
    size_t num_slots = 0;
    size_t size = 0;
    int shift = 64;

    // The slot holding `key`, else the empty slot that ends its probe
    // run. The home slot comes from the mixed bits below the shard bits.
    Slot& Probe(uint64_t key) const {
      size_t i = (Mix(key) << kShardBits) >> shift;
      while (slots[i].used && slots[i].key != key) {
        i = (i + 1) & (num_slots - 1);
      }
      return slots[i];
    }

    void Grow() {
      const size_t n = num_slots == 0 ? 16 : 2 * num_slots;
      std::unique_ptr<Slot[]> old =
          std::exchange(slots, std::make_unique<Slot[]>(n));
      const size_t old_n = std::exchange(num_slots, n);
      shift = 64 - std::countr_zero(n);
      for (size_t i = 0; i < old_n; ++i) {
        if (old[i].used) Probe(old[i].key) = old[i];
      }
    }

    void Clear() {
      std::fill_n(slots.get(), num_slots, Slot{});
      size = 0;
    }
  };

  // Padded to a cache line so neighboring shard locks don't false-share.
  struct alignas(64) Shard {
    base::Mutex mu;
    Table table GUARDED_BY(mu);
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  size_t shard_capacity_;
  mutable Shard shards_[kNumShards];
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> insertions_{0};
};

}  // namespace oodb::calculus

#endif  // OODB_CALCULUS_MEMO_CACHE_H_
