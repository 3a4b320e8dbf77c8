// Direct unit coverage of the sharded verdict cache: shard routing,
// hit/miss/insertion/eviction counters, and the wholesale per-shard
// eviction policy. (Until now the cache was only exercised indirectly
// through checker and classifier tests.)
#include "calculus/memo_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/rng.h"

namespace oodb::calculus {
namespace {

// Keys shaped like the checker's: (c << 32 | d) with small dense ids.
uint64_t PairKey(uint32_t c, uint32_t d) {
  return (static_cast<uint64_t>(c) << 32) | d;
}

// The first `n` keys that route to `shard`.
std::vector<uint64_t> KeysInShard(size_t shard, size_t n) {
  std::vector<uint64_t> keys;
  for (uint32_t c = 0; keys.size() < n; ++c) {
    for (uint32_t d = 0; d < 1024 && keys.size() < n; ++d) {
      uint64_t key = PairKey(c, d);
      if (ShardedMemoCache::ShardOf(key) == shard) keys.push_back(key);
    }
  }
  return keys;
}

TEST(MemoCache, ShardRoutingCoversAllShardsOnDensePairKeys) {
  // The whole point of the Fibonacci mix: dense catalog ids must spread
  // over every shard instead of piling into shard 0 (raw low bits of
  // (c << 32 | d) would be just d).
  std::set<size_t> shards;
  for (uint32_t c = 0; c < 64; ++c) {
    for (uint32_t d = 0; d < 64; ++d) {
      size_t shard = ShardedMemoCache::ShardOf(PairKey(c, d));
      ASSERT_LT(shard, ShardedMemoCache::kNumShards);
      shards.insert(shard);
    }
  }
  EXPECT_EQ(shards.size(), ShardedMemoCache::kNumShards);
}

TEST(MemoCache, ShardRoutingIsDeterministic) {
  for (uint64_t key : {uint64_t{0}, PairKey(1, 2), PairKey(7, 7),
                       ~uint64_t{0}}) {
    EXPECT_EQ(ShardedMemoCache::ShardOf(key),
              ShardedMemoCache::ShardOf(key));
  }
}

TEST(MemoCache, HitMissAndInsertionCounters) {
  ShardedMemoCache cache;
  EXPECT_EQ(cache.Lookup(PairKey(1, 2)), std::nullopt);
  cache.Insert(PairKey(1, 2), true);
  cache.Insert(PairKey(3, 4), false);
  auto hit = cache.Lookup(PairKey(1, 2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  hit = cache.Lookup(PairKey(3, 4));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(*hit);
  EXPECT_EQ(cache.Lookup(PairKey(9, 9)), std::nullopt);

  MemoCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MemoCache, DuplicateInsertCountsOnce) {
  ShardedMemoCache cache;
  cache.Insert(PairKey(5, 6), true);
  cache.Insert(PairKey(5, 6), true);  // racing duplicate: same verdict
  EXPECT_EQ(cache.Stats().insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoCache, CapacityEvictsWholesalePerShard) {
  // capacity 16 → shard_capacity = 16/16 + 1 = 2 entries per shard.
  ShardedMemoCache cache(/*capacity=*/16);
  const size_t shard = ShardedMemoCache::ShardOf(PairKey(0, 0));
  std::vector<uint64_t> keys = KeysInShard(shard, 3);

  cache.Insert(keys[0], true);
  cache.Insert(keys[1], true);
  EXPECT_EQ(cache.Stats().evictions, 0u);

  // The third insert finds the shard at capacity: the policy clears the
  // whole shard first, so afterwards ONLY the newest key survives.
  cache.Insert(keys[2], false);
  MemoCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(cache.Lookup(keys[0]), std::nullopt);
  EXPECT_EQ(cache.Lookup(keys[1]), std::nullopt);
  auto survivor = cache.Lookup(keys[2]);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_FALSE(*survivor);
}

TEST(MemoCache, EvictionInOneShardLeavesOthersIntact) {
  ShardedMemoCache cache(/*capacity=*/16);
  const size_t victim = ShardedMemoCache::ShardOf(PairKey(0, 0));
  // Park one entry in a different shard.
  uint64_t other_key = 0;
  for (uint32_t d = 1;; ++d) {
    if (ShardedMemoCache::ShardOf(PairKey(0, d)) != victim) {
      other_key = PairKey(0, d);
      break;
    }
  }
  cache.Insert(other_key, true);

  std::vector<uint64_t> keys = KeysInShard(victim, 3);
  for (uint64_t key : keys) cache.Insert(key, true);  // overflows `victim`
  EXPECT_GT(cache.Stats().evictions, 0u);
  EXPECT_TRUE(cache.Lookup(other_key).has_value());
}

TEST(MemoCache, ClearEmptiesEveryShardWithoutCountingEvictions) {
  ShardedMemoCache cache;
  for (uint32_t i = 0; i < 100; ++i) cache.Insert(PairKey(i, i + 1), true);
  EXPECT_EQ(cache.size(), 100u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().evictions, 0u);  // Clear is a reset, not pressure
}

TEST(MemoCache, ConcurrentMixedUseKeepsCountersConsistent) {
  // The cache promises sound verdicts and counters under any interleaving,
  // so the hit and eviction checks below must hold under any interleaving
  // too; the schedule makes both follow from arithmetic, not timing.
  //
  // Capacity 1 << 12 gives each shard 4096/16 + 1 = 257 entries. Every
  // 4th step a thread looks up one of 64 hot keys, all in one shard; the
  // other steps churn through (i mod 97, (31i + t) mod 89), with any churn
  // key that routes to the hot shard moved out of it (c += 97).
  //  - Hits: the hot shard only ever holds <= 64 < 257 distinct keys, so
  //    it is never cleared, and a thread always sees its own earlier
  //    insert there. Each thread makes 500 hot lookups over 64 keys, so
  //    hits >= 4 * (500 - 64) = 1744 whatever the scheduling.
  //  - Evictions: each churn key's first lookup misses and inserts it, and
  //    every other shard receives >= 306 > 257 distinct churn keys over
  //    the whole schedule (checked below), so by pigeonhole each is
  //    cleared wholesale at least once, racing any concurrent lookups.
  // The churn keys alone guarantee no hits: no thread repeats one within
  // 2,000 steps, and when threads run in step a shared key's shard is
  // cleared between its two lookups.
  const size_t kCapacity = size_t{1} << 12;
  const size_t kShardCapacity = kCapacity / ShardedMemoCache::kNumShards + 1;
  const size_t kThreads = 4, kPerThread = 2000, kHotEvery = 4, kHotKeys = 64;
  const size_t kHotShard = ShardedMemoCache::ShardOf(PairKey(0, 0));
  const std::vector<uint64_t> hot = KeysInShard(kHotShard, kHotKeys);

  // schedule[t][i]: the key thread t looks up at step i.
  std::vector<std::vector<uint64_t>> schedule(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      uint64_t key = hot[(i / kHotEvery + t) % kHotKeys];
      if (i % kHotEvery != 0) {
        uint32_t c = static_cast<uint32_t>(i % 97);
        const uint32_t d = static_cast<uint32_t>((i * 31 + t) % 89);
        while (ShardedMemoCache::ShardOf(PairKey(c, d)) == kHotShard) c += 97;
        key = PairKey(c, d);
      }
      schedule[t].push_back(key);
    }
  }
  // The per-shard distinct-key counts both guarantees rest on.
  std::vector<std::set<uint64_t>> distinct(ShardedMemoCache::kNumShards);
  for (const std::vector<uint64_t>& keys : schedule) {
    for (uint64_t key : keys) {
      distinct[ShardedMemoCache::ShardOf(key)].insert(key);
    }
  }
  for (size_t s = 0; s < ShardedMemoCache::kNumShards; ++s) {
    if (s == kHotShard) {
      ASSERT_EQ(distinct[s].size(), kHotKeys);
    } else {
      ASSERT_GT(distinct[s].size(), kShardCapacity) << "shard " << s;
    }
  }

  ShardedMemoCache cache(kCapacity);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &keys = schedule[t]] {
      for (uint64_t key : keys) {
        // Verdict is a pure function of the key, as in the checker.
        bool verdict = (key % 3) == 0;
        auto cached = cache.Lookup(key);
        if (cached.has_value()) {
          EXPECT_EQ(*cached, verdict);
        } else {
          cache.Insert(key, verdict);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MemoCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // The capacity rule: no shard ever holds more than its slice.
  EXPECT_LE(stats.entries, ShardedMemoCache::kNumShards * kShardCapacity);
}

// Reference model of the cache's contract: one std::unordered_map per
// shard, cleared wholesale when an insert finds it at its slice of the
// capacity, and the same counters.
class ModelCache {
 public:
  explicit ModelCache(size_t capacity)
      : shard_capacity_(capacity / ShardedMemoCache::kNumShards + 1) {}

  std::optional<bool> Lookup(uint64_t key) {
    const auto& shard = shards_[ShardedMemoCache::ShardOf(key)];
    auto it = shard.find(key);
    if (it == shard.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    return it->second;
  }

  void Insert(uint64_t key, bool verdict) {
    auto& shard = shards_[ShardedMemoCache::ShardOf(key)];
    if (shard.size() >= shard_capacity_) {
      stats_.evictions += shard.size();
      shard.clear();
    }
    if (shard.emplace(key, verdict).second) ++stats_.insertions;
    peak_shard_size_ = std::max(peak_shard_size_, shard.size());
  }

  void Clear() {
    for (auto& shard : shards_) shard.clear();
  }

  MemoCacheStats Stats() const {
    MemoCacheStats stats = stats_;
    for (const auto& shard : shards_) stats.entries += shard.size();
    return stats;
  }

  // The most entries any one shard has held.
  size_t peak_shard_size() const { return peak_shard_size_; }

 private:
  size_t shard_capacity_;
  size_t peak_shard_size_ = 0;
  std::unordered_map<uint64_t, bool> shards_[ShardedMemoCache::kNumShards];
  MemoCacheStats stats_;
};

void ExpectSameStats(const MemoCacheStats& got, const MemoCacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.entries, want.entries);
}

TEST(MemoCache, RandomOperationsMatchAnUnorderedMapModel) {
  // Each run draws keys from a pool mixing the extreme keys (0 is
  // PairKey(0, 0), ~0 is PairKey(UINT32_MAX, UINT32_MAX): no key value may
  // serve as the empty-slot marker), keys that all route to one shard,
  // dense pair keys and arbitrary 64-bit keys.
  // Inserts write random verdicts, so a probe that returns a neighbour's
  // slot shows up as a wrong verdict, not only as a wrong hit count.
  // Capacity 16 keeps a shard at 2 entries; 200 clears a shard at 13,
  // just past the first growth (12 of 16 slots); 4096 lets a shard grow
  // through 16, 32, 64, 128 and 256 slots to 512 before it is cleared.
  // Every run fills some shard to its slice, so it crosses each of those
  // growth boundaries.
  for (const size_t capacity : {size_t{16}, size_t{200}, size_t{4096}}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << " seed "
                                      << seed);
      Rng rng(seed * 7919 + capacity);
      const size_t shard_capacity =
          capacity / ShardedMemoCache::kNumShards + 1;
      std::vector<uint64_t> pool = {0, ~uint64_t{0}, PairKey(0, 1),
                                    PairKey(UINT32_MAX, 0)};
      for (uint64_t key : KeysInShard(rng.Index(ShardedMemoCache::kNumShards),
                                      2 * shard_capacity)) {
        pool.push_back(key);
      }
      for (size_t i = 0; i < 8 * shard_capacity; ++i) {
        pool.push_back(PairKey(static_cast<uint32_t>(rng.Index(64)),
                               static_cast<uint32_t>(rng.Index(64))));
        pool.push_back(
            static_cast<uint64_t>(rng.Uniform(INT64_MIN, INT64_MAX)));
      }

      ShardedMemoCache cache(capacity);
      ModelCache model(capacity);
      for (size_t step = 0; step < 20000; ++step) {
        const uint64_t key = rng.Pick(pool);
        const size_t op = rng.Index(1000);
        if (op == 0 && rng.Bernoulli(0.2)) {  // about 4 per run
          cache.Clear();
          model.Clear();
        } else if (op < 500) {
          const bool verdict = rng.Bernoulli(0.5);
          cache.Insert(key, verdict);
          model.Insert(key, verdict);
        } else {
          ASSERT_EQ(cache.Lookup(key), model.Lookup(key))
              << "step " << step << " key " << key;
        }
      }
      ExpectSameStats(cache.Stats(), model.Stats());
      EXPECT_EQ(cache.size(), model.Stats().entries);
      EXPECT_EQ(model.peak_shard_size(), shard_capacity);
    }
  }
}

}  // namespace
}  // namespace oodb::calculus
