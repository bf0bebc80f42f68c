#ifndef CHARLES_COMMON_WIRE_H_
#define CHARLES_COMMON_WIRE_H_

/// \file
/// \brief Raw-bytes framing primitives shared by the wire serializers
/// (SufficientStats, ShardTask, ShardTaskResult, the remote protocol).
///
/// The formats built on these are same-architecture pipe/socket protocols:
/// scalars are copied bit-for-bit in native byte order, which is what makes
/// a double survive a round trip exactly — the property the distributed
/// merge's bit-identity rests on.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace charles {
namespace wire {

/// Appends `size` raw bytes to `out`.
inline void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

/// Bounds-checked read of `size` bytes into `data`, advancing `*cursor`.
/// Returns false (cursor unchanged) when fewer than `size` bytes remain.
inline bool ReadRaw(const unsigned char** cursor, const unsigned char* end,
                    void* data, size_t size) {
  if (static_cast<size_t>(end - *cursor) < size) return false;
  std::memcpy(data, *cursor, size);
  *cursor += size;
  return true;
}

/// Appends one trivially copyable scalar bit-for-bit.
template <typename T>
inline void AppendScalar(std::string* out, const T& value) {
  AppendRaw(out, &value, sizeof(T));
}

/// Bounds-checked scalar read; false (cursor unchanged) on underrun.
template <typename T>
inline bool ReadScalar(const unsigned char** cursor, const unsigned char* end,
                       T* value) {
  return ReadRaw(cursor, end, value, sizeof(T));
}

/// Appends a scalar vector as `count | elements`.
template <typename T>
inline void AppendVector(std::string* out, const std::vector<T>& values) {
  int64_t count = static_cast<int64_t>(values.size());
  AppendScalar(out, count);
  if (count > 0) AppendRaw(out, values.data(), values.size() * sizeof(T));
}

/// Reads a `count | elements` scalar vector. The count is validated against
/// the bytes actually present *before* any allocation, so a corrupt or
/// hostile length field fails with `false` instead of a giant reserve().
template <typename T>
inline bool ReadVector(const unsigned char** cursor, const unsigned char* end,
                       std::vector<T>* values) {
  int64_t count = 0;
  if (!ReadScalar(cursor, end, &count) || count < 0 ||
      count > static_cast<int64_t>((end - *cursor) / sizeof(T))) {
    return false;
  }
  values->resize(static_cast<size_t>(count));
  return count == 0 ||
         ReadRaw(cursor, end, values->data(), values->size() * sizeof(T));
}

}  // namespace wire
}  // namespace charles

#endif  // CHARLES_COMMON_WIRE_H_
