#ifndef CHARLES_COMMON_FNV_H_
#define CHARLES_COMMON_FNV_H_

/// \file
/// \brief FNV-1a hashing primitives, shared by the leaf-fit cache keys, the
/// engine's run fingerprint and the search-space cache key so the algorithm
/// and constants live in one place.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace charles {

/// FNV-1a 64-bit offset basis.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
/// FNV-1a 64-bit prime.
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds `len` raw bytes into the running FNV-1a hash `h`.
inline uint64_t FnvMixBytes(uint64_t h, const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
  return h;
}

/// Folds the bit patterns of `values` into `h` (so -0.0 and NaN payloads
/// hash by their bits, exactly as the cached computations see them).
inline uint64_t FnvMixDoubles(uint64_t h, const std::vector<double>& values) {
  for (double v : values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = FnvMixBytes(h, &bits, sizeof(bits));
  }
  return h;
}

/// Folds a string and then its length into `h`; the length separates
/// {"ab","c"} from {"a","bc"}.
inline uint64_t FnvMixString(uint64_t h, const std::string& s) {
  h = FnvMixBytes(h, s.data(), s.size());
  uint64_t len = s.size();
  return FnvMixBytes(h, &len, sizeof(len));
}

}  // namespace charles

#endif  // CHARLES_COMMON_FNV_H_
