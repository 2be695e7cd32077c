// FNV-1a, 64-bit: the byte hash behind journal chain hashes, session config
// digests and native-kernel content hashes. Each of those is stored on disk
// or compared across processes, so the function must never change.
#pragma once

#include <cstddef>
#include <cstdint>

namespace citl {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/// Folds `n` bytes into the running hash `h` (start from kFnv1aOffset).
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                                         std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace citl
