#include "fd/value_dict.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <new>

#include "util/thread_pool.h"

namespace lakefuzz {

ValueDict::ValueDict() {
  for (auto& b : buckets_) b.store(nullptr, std::memory_order_relaxed);
  for (auto& b : hash_buckets_) b.store(nullptr, std::memory_order_relaxed);
  // Code 0 = null: bucket 0 is allocated eagerly so Decode(kNullCode) /
  // HashOf(kNullCode) work on a fresh dictionary (default Value is null,
  // zero-initialized hash is 0).
  EnsureBucket(0);
  for (auto& sh : shards_) sh.slots.assign(kInitialSlots, kNullCode);
}

ValueDict::~ValueDict() { FreeBuckets(); }

// Storage buckets are allocated raw and their slots constructed separately,
// so RestoreAll can construct a large dictionary's slots in parallel slices
// instead of one serial value-initialisation per bucket. Every allocated
// bucket is fully constructed before anything reads it, so FreeBuckets
// destroys each one whole.
void ValueDict::AllocateBucket(size_t b, Value** values, uint64_t** hashes) {
  *values = static_cast<Value*>(
      ::operator new(BucketCapacity(b) * sizeof(Value)));
  *hashes = static_cast<uint64_t*>(
      ::operator new(BucketCapacity(b) * sizeof(uint64_t)));
}

void ValueDict::ConstructSlots(Value* values, uint64_t* hashes, size_t n) {
  std::uninitialized_value_construct_n(values, n);  // null Values
  std::fill_n(hashes, n, uint64_t{0});
}

void ValueDict::FreeBuckets() {
  for (size_t b = 0; b < kMaxBuckets; ++b) {
    if (Value* values = buckets_[b].load(std::memory_order_relaxed)) {
      std::destroy_n(values, BucketCapacity(b));
      ::operator delete(values);
    }
    ::operator delete(hash_buckets_[b].load(std::memory_order_relaxed));
    buckets_[b].store(nullptr, std::memory_order_relaxed);
    hash_buckets_[b].store(nullptr, std::memory_order_relaxed);
  }
  size_.store(1, std::memory_order_relaxed);
}

void ValueDict::CopyFrom(const ValueDict& other) {
  // Copy/assignment are documented as non-concurrent: `other` is quiescent.
  const uint32_t n = other.size_.load(std::memory_order_relaxed);
  EnsureBucket(0);
  for (uint32_t code = 1; code < n; ++code) {
    const size_t b = BucketOf(code);
    EnsureBucket(b);
    const size_t off = code - BucketBase(b);
    buckets_[b].load(std::memory_order_relaxed)[off] = other.Decode(code);
    hash_buckets_[b].load(std::memory_order_relaxed)[off] =
        other.HashOf(code);
  }
  size_.store(n, std::memory_order_relaxed);
  for (size_t s = 0; s < kShards; ++s) {
    shards_[s].slots = other.shards_[s].slots;
    shards_[s].used = other.shards_[s].used;
  }
}

ValueDict::ValueDict(const ValueDict& other) {
  for (auto& b : buckets_) b.store(nullptr, std::memory_order_relaxed);
  for (auto& b : hash_buckets_) b.store(nullptr, std::memory_order_relaxed);
  CopyFrom(other);
}

ValueDict& ValueDict::operator=(const ValueDict& other) {
  if (this == &other) return *this;
  FreeBuckets();
  CopyFrom(other);
  return *this;
}

ValueDict::ValueDict(ValueDict&& other) noexcept {
  size_.store(other.size_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  for (size_t b = 0; b < kMaxBuckets; ++b) {
    buckets_[b].store(other.buckets_[b].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    other.buckets_[b].store(nullptr, std::memory_order_relaxed);
    hash_buckets_[b].store(
        other.hash_buckets_[b].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other.hash_buckets_[b].store(nullptr, std::memory_order_relaxed);
  }
  for (size_t s = 0; s < kShards; ++s) {
    shards_[s].slots = std::move(other.shards_[s].slots);
    shards_[s].used = other.shards_[s].used;
    other.shards_[s].used = 0;
  }
  other.size_.store(1, std::memory_order_relaxed);
}

ValueDict& ValueDict::operator=(ValueDict&& other) noexcept {
  if (this == &other) return *this;
  FreeBuckets();
  size_.store(other.size_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  for (size_t b = 0; b < kMaxBuckets; ++b) {
    buckets_[b].store(other.buckets_[b].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    other.buckets_[b].store(nullptr, std::memory_order_relaxed);
    hash_buckets_[b].store(
        other.hash_buckets_[b].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other.hash_buckets_[b].store(nullptr, std::memory_order_relaxed);
  }
  for (size_t s = 0; s < kShards; ++s) {
    shards_[s].slots = std::move(other.shards_[s].slots);
    shards_[s].used = other.shards_[s].used;
    other.shards_[s].used = 0;
  }
  other.size_.store(1, std::memory_order_relaxed);
  return *this;
}

void ValueDict::EnsureBucket(size_t b) {
  if (buckets_[b].load(std::memory_order_acquire) != nullptr) return;
  std::lock_guard<std::mutex> lock(alloc_mu_);
  if (buckets_[b].load(std::memory_order_relaxed) != nullptr) return;
  // Construct both arrays (null Values, zero hashes) BEFORE the release
  // publish, so a concurrent reader that wins the pointer race never
  // observes uninitialized slots.
  Value* values;
  uint64_t* hashes;
  AllocateBucket(b, &values, &hashes);
  ConstructSlots(values, hashes, BucketCapacity(b));
  hash_buckets_[b].store(hashes, std::memory_order_release);
  buckets_[b].store(values, std::memory_order_release);
}

uint32_t ValueDict::Append(const Value& v, uint64_t hash) {
  const uint32_t code = size_.fetch_add(1, std::memory_order_acq_rel);
  assert(code != UINT32_MAX && "ValueDict code space exhausted");
  const size_t b = BucketOf(code);
  EnsureBucket(b);
  const size_t off = code - BucketBase(b);
  buckets_[b].load(std::memory_order_relaxed)[off] = v;
  hash_buckets_[b].load(std::memory_order_relaxed)[off] = hash;
  return code;
}

uint32_t ValueDict::Append(Value&& v, uint64_t hash) {
  const uint32_t code = size_.fetch_add(1, std::memory_order_acq_rel);
  assert(code != UINT32_MAX && "ValueDict code space exhausted");
  const size_t b = BucketOf(code);
  EnsureBucket(b);
  const size_t off = code - BucketBase(b);
  buckets_[b].load(std::memory_order_relaxed)[off] = std::move(v);
  hash_buckets_[b].load(std::memory_order_relaxed)[off] = hash;
  return code;
}

uint32_t ValueDict::InternHashed(Value&& v, uint64_t hash, bool* inserted) {
  assert(!v.is_null());
  Shard& sh = shards_[ShardOf(hash)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const size_t mask = sh.slots.size() - 1;
  size_t s = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t code = sh.slots[s];
    if (code == kNullCode) break;
    if (HashOf(code) == hash && Decode(code) == v) {
      if (inserted != nullptr) *inserted = false;
      return code;
    }
    s = (s + 1) & mask;
  }
  const uint32_t code = Append(std::move(v), hash);
  sh.slots[s] = code;
  ++sh.used;
  if (sh.used * 10 >= sh.slots.size() * 7) {
    RehashShard(sh, sh.slots.size() * 2);
  }
  if (inserted != nullptr) *inserted = true;
  return code;
}

uint32_t ValueDict::InternHashed(const Value& v, uint64_t hash,
                                 bool* inserted) {
  assert(!v.is_null());
  Shard& sh = shards_[ShardOf(hash)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const size_t mask = sh.slots.size() - 1;
  size_t s = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t code = sh.slots[s];
    if (code == kNullCode) break;
    // 64-bit hash equality first: a full Value compare only runs on repeat
    // occurrences of the same value (the common case) or true collisions.
    if (HashOf(code) == hash && Decode(code) == v) {
      if (inserted != nullptr) *inserted = false;
      return code;
    }
    s = (s + 1) & mask;
  }
  const uint32_t code = Append(v, hash);
  sh.slots[s] = code;
  ++sh.used;
  // Grow at ~0.7 load to keep probe chains short.
  if (sh.used * 10 >= sh.slots.size() * 7) {
    RehashShard(sh, sh.slots.size() * 2);
  }
  if (inserted != nullptr) *inserted = true;
  return code;
}

uint32_t ValueDict::Find(const Value& v) const {
  if (v.is_null()) return kNullCode;
  const uint64_t hash = v.Hash();
  const Shard& sh = shards_[ShardOf(hash)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const size_t mask = sh.slots.size() - 1;
  size_t s = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t code = sh.slots[s];
    if (code == kNullCode) return kNullCode;
    if (HashOf(code) == hash && Decode(code) == v) return code;
    s = (s + 1) & mask;
  }
}

void ValueDict::Reserve(size_t expected) {
  // Assume an even hash spread; each shard takes its slice.
  const size_t per_shard = expected / kShards + 1;
  size_t want = kInitialSlots;
  while (want * 7 < per_shard * 10) want <<= 1;
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (want > sh.slots.size()) RehashShard(sh, want);
  }
}

uint32_t ValueDict::RestoreAll(uint32_t count, ThreadPool* pool,
                               const RestoreFill& fill) {
  if (count == 0) return kNullCode;
  const size_t end = size_t{count} + 1;
  // Every storage bucket exists before the parallel pass, and no range
  // crosses a bucket, so each range is one contiguous run of slots. Buckets
  // past the constructor's bucket 0 are allocated raw here and covered
  // whole by ranges that construct their slots: a range constructs its
  // slots, then fills the ones below `end` while they are still in cache.
  struct Range {
    size_t bucket, begin, end;
    bool construct;
  };
  std::vector<Range> ranges;
  for (size_t b = 0; b < kMaxBuckets && BucketBase(b) < end; ++b) {
    const bool construct = b != 0;
    if (construct) {
      Value* values;
      uint64_t* hashes;
      AllocateBucket(b, &values, &hashes);
      hash_buckets_[b].store(hashes, std::memory_order_release);
      buckets_[b].store(values, std::memory_order_release);
    }
    const size_t bucket_end = BucketBase(b) + BucketCapacity(b);
    for (size_t lo = std::max<size_t>(1, BucketBase(b)); lo < bucket_end;
         lo += kRestoreRange) {
      ranges.push_back({b, lo, std::min<size_t>(bucket_end, lo + kRestoreRange),
                        construct});
    }
  }
  // Ranges wholly past `end` only construct; the others fill their codes
  // and count them per shard.
  size_t filled = 0;
  while (filled < ranges.size() && ranges[filled].begin < end) ++filled;
  std::vector<std::array<uint32_t, kShards>> range_counts(filled);
  MaybeParallelFor(pool, ranges.size(), [&](size_t i) {
    const Range& r = ranges[i];
    const size_t off = r.begin - BucketBase(r.bucket);
    Value* values = buckets_[r.bucket].load(std::memory_order_relaxed) + off;
    uint64_t* hashes =
        hash_buckets_[r.bucket].load(std::memory_order_relaxed) + off;
    if (r.construct) ConstructSlots(values, hashes, r.end - r.begin);
    if (i >= filled) return;
    const uint32_t fill_end =
        static_cast<uint32_t>(std::min<size_t>(r.end, end));
    fill(static_cast<uint32_t>(r.begin), fill_end, values, hashes);
    // Counted locally: neighbouring ranges' count arrays share cache
    // lines, and concurrent increments there would ping-pong them.
    std::array<uint32_t, kShards> counts{};
    for (uint32_t k = 0; k < fill_end - r.begin; ++k) {
      ++counts[ShardOf(hashes[k])];
    }
    range_counts[i] = counts;
  });
  ranges.resize(filled);
  for (Range& r : ranges) r.end = std::min<size_t>(r.end, end);
  size_.store(static_cast<uint32_t>(end), std::memory_order_release);

  // Group the codes by shard, keeping ascending code order inside each
  // shard: range i's codes of shard s go to order[offsets[i][s]...].
  std::vector<std::array<uint32_t, kShards>> offsets(ranges.size());
  std::array<uint32_t, kShards + 1> first{};
  for (size_t s = 0; s < kShards; ++s) {
    uint32_t next = first[s];
    for (size_t i = 0; i < ranges.size(); ++i) {
      offsets[i][s] = next;
      next += range_counts[i][s];
    }
    first[s + 1] = next;
  }
  std::vector<uint32_t> order(count);
  MaybeParallelFor(pool, ranges.size(), [&](size_t i) {
    std::array<uint32_t, kShards> next = offsets[i];  // local, as above
    for (uint32_t code = ranges[i].begin; code < ranges[i].end; ++code) {
      order[next[ShardOf(HashOf(code))]++] = code;
    }
  });

  // Every shard is built at its final size. Slot hashes live in a scratch
  // array beside the slots, so a probe never chases an occupant's hash
  // through the storage buckets.
  std::vector<uint32_t> duplicate(kShards, kNullCode);
  MaybeParallelFor(pool, kShards, [&](size_t s) {
    Shard& sh = shards_[s];
    sh.used = first[s + 1] - first[s];
    size_t slots = kInitialSlots;
    while (slots * 7 <= sh.used * 10) slots <<= 1;  // InternHashed's load cap
    sh.slots.assign(slots, kNullCode);
    std::vector<uint64_t> slot_hashes(slots);
    const size_t mask = slots - 1;
    for (uint32_t i = first[s]; i < first[s + 1]; ++i) {
      const uint32_t code = order[i];
      const uint64_t hash = HashOf(code);
      size_t p = static_cast<size_t>(hash) & mask;
      while (sh.slots[p] != kNullCode) {
        if (slot_hashes[p] == hash && Decode(sh.slots[p]) == Decode(code)) {
          duplicate[s] = code;  // the shard's smallest repeat: codes ascend
          return;
        }
        p = (p + 1) & mask;
      }
      sh.slots[p] = code;
      slot_hashes[p] = hash;
    }
  });
  uint32_t smallest = kNullCode;
  for (uint32_t code : duplicate) {
    if (code != kNullCode && (smallest == kNullCode || code < smallest)) {
      smallest = code;
    }
  }
  return smallest;
}

bool ValueDict::AdoptIfEmpty(ValueDict&& restored) {
  // Holding every shard lock blocks Intern and Find, and with them every
  // bucket allocation (Append runs under a shard lock).
  std::unique_lock<std::mutex> locks[kShards];
  for (size_t s = 0; s < kShards; ++s) {
    locks[s] = std::unique_lock<std::mutex>(shards_[s].mu);
  }
  if (size_.load(std::memory_order_relaxed) != 1) return false;
  const uint32_t n = restored.size_.load(std::memory_order_relaxed);
  // Bucket 0 stays in place — a caller may hold Decode(kNullCode) — and
  // takes over the restored non-null slots. No later bucket exists yet (no
  // code was ever appended), so those swap in whole.
  Value* values = buckets_[0].load(std::memory_order_relaxed);
  uint64_t* hashes = hash_buckets_[0].load(std::memory_order_relaxed);
  Value* restored_values = restored.buckets_[0].load(std::memory_order_relaxed);
  const uint64_t* restored_hashes =
      restored.hash_buckets_[0].load(std::memory_order_relaxed);
  const uint32_t in_first =
      std::min<uint32_t>(n, static_cast<uint32_t>(BucketCapacity(0)));
  for (uint32_t code = 1; code < in_first; ++code) {
    values[code] = std::move(restored_values[code]);
    hashes[code] = restored_hashes[code];
  }
  for (size_t b = 1; b < kMaxBuckets; ++b) {
    Value* mine = buckets_[b].load(std::memory_order_relaxed);
    uint64_t* mine_hashes = hash_buckets_[b].load(std::memory_order_relaxed);
    hash_buckets_[b].store(
        restored.hash_buckets_[b].load(std::memory_order_relaxed),
        std::memory_order_release);
    buckets_[b].store(restored.buckets_[b].load(std::memory_order_relaxed),
                      std::memory_order_release);
    restored.buckets_[b].store(mine, std::memory_order_relaxed);
    restored.hash_buckets_[b].store(mine_hashes, std::memory_order_relaxed);
  }
  for (size_t s = 0; s < kShards; ++s) {
    std::swap(shards_[s].slots, restored.shards_[s].slots);
    std::swap(shards_[s].used, restored.shards_[s].used);
  }
  size_.store(n, std::memory_order_release);
  restored.size_.store(1, std::memory_order_relaxed);
  return true;
}

void ValueDict::RehashShard(Shard& shard, size_t new_slot_count) const {
  std::vector<uint32_t> old = std::move(shard.slots);
  shard.slots.assign(new_slot_count, kNullCode);
  const size_t mask = new_slot_count - 1;
  for (uint32_t code : old) {
    if (code == kNullCode) continue;
    size_t s = static_cast<size_t>(HashOf(code)) & mask;
    while (shard.slots[s] != kNullCode) s = (s + 1) & mask;
    shard.slots[s] = code;
  }
}

}  // namespace lakefuzz
