// Deterministic, seedable hashing primitives.
//
// All hashing in lakefuzz (feature hashing for embeddings, posting-list keys,
// dedup signatures) goes through these functions so results are reproducible
// across platforms and runs — std::hash is implementation-defined and is
// deliberately not used.
#ifndef LAKEFUZZ_UTIL_HASH_H_
#define LAKEFUZZ_UTIL_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace lakefuzz {

/// 64-bit FNV-1a over raw bytes.
inline uint64_t Fnv1a64(const void* data, size_t len,
                        uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// 64-bit FNV-1a over a string.
inline uint64_t Fnv1a64(std::string_view s,
                        uint64_t seed = 0xcbf29ce484222325ULL) {
  return Fnv1a64(s.data(), s.size(), seed);
}

namespace xxh64_internal {
inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/// Little-endian loads: the published XXH64 digests are defined over
/// little-endian words.
inline uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}
inline uint64_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  return Rotl(acc + input * kP2, 31) * kP1;
}
inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kP1 + kP4;
}
}  // namespace xxh64_internal

/// Incremental XXH64: four independent 64-bit lanes per 32-byte stripe, so
/// it runs at memory speed where byte-serial FNV-1a is latency bound. Any
/// split of the input across Update calls gives the same Digest as one
/// call over the whole, and Digest leaves the state untouched, so a stream
/// can be digested and then continued. Used for integrity digests over
/// large, appendable buffers (catalog segments).
class Xxh64Stream {
 public:
  Xxh64Stream() : Xxh64Stream(0) {}
  explicit Xxh64Stream(uint64_t seed)
      : lanes_{seed + xxh64_internal::kP1 + xxh64_internal::kP2,
               seed + xxh64_internal::kP2, seed,
               seed - xxh64_internal::kP1},
        seed_(seed) {}

  void Update(const void* data, size_t len) {
    if (len == 0) return;
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += len;
    if (buffered_ + len < sizeof(buffer_)) {
      std::memcpy(buffer_ + buffered_, p, len);
      buffered_ += len;
      return;
    }
    if (buffered_ > 0) {
      const size_t fill = sizeof(buffer_) - buffered_;
      std::memcpy(buffer_ + buffered_, p, fill);
      Stripes(buffer_, sizeof(buffer_));
      p += fill;
      len -= fill;
      buffered_ = 0;
    }
    const size_t whole = len / 32 * 32;
    Stripes(p, whole);
    buffered_ = len - whole;
    if (buffered_ > 0) std::memcpy(buffer_, p + whole, buffered_);
  }

  uint64_t Digest() const {
    using namespace xxh64_internal;
    uint64_t h;
    if (total_ >= 32) {
      h = Rotl(lanes_[0], 1) + Rotl(lanes_[1], 7) + Rotl(lanes_[2], 12) +
          Rotl(lanes_[3], 18);
      for (uint64_t lane : lanes_) h = MergeRound(h, lane);
    } else {
      h = seed_ + kP5;
    }
    h += total_;
    const unsigned char* p = buffer_;
    const unsigned char* const end = buffer_ + buffered_;
    for (; end - p >= 8; p += 8) {
      h = Rotl(h ^ Round(0, Load64(p)), 27) * kP1 + kP4;
    }
    if (end - p >= 4) {
      h = Rotl(h ^ (Load32(p) * kP1), 23) * kP2 + kP3;
      p += 4;
    }
    for (; p < end; ++p) h = Rotl(h ^ (*p * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  /// Folds `len` (a multiple of 32) bytes into the lanes.
  void Stripes(const unsigned char* p, size_t len) {
    using xxh64_internal::Load64;
    using xxh64_internal::Round;
    uint64_t v1 = lanes_[0], v2 = lanes_[1], v3 = lanes_[2], v4 = lanes_[3];
    for (const unsigned char* const end = p + len; p != end; p += 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    lanes_[0] = v1;
    lanes_[1] = v2;
    lanes_[2] = v3;
    lanes_[3] = v4;
  }

  uint64_t lanes_[4];
  uint64_t seed_;
  uint64_t total_ = 0;
  unsigned char buffer_[32];
  size_t buffered_ = 0;
};

/// XXH64 of one buffer (the published algorithm; see Xxh64Stream).
inline uint64_t Xxh64(const void* data, size_t len, uint64_t seed = 0) {
  Xxh64Stream stream(seed);
  stream.Update(data, len);
  return stream.Digest();
}

/// Strong 64-bit finalizer (splitmix64). Good avalanche for integer keys.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent combination of two hashes (boost-style, 64-bit).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (Mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// Hash of a string with an integer salt; used for feature hashing where
/// several independent hash functions are derived from one base hash.
inline uint64_t SaltedHash(std::string_view s, uint64_t salt) {
  return Mix64(Fnv1a64(s) ^ Mix64(salt));
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_UTIL_HASH_H_
