#pragma once

#include <cstdint>
#include <string_view>

/// The two integer hashes every seed derivation is built from.  Report
/// bytes depend on them (measured cells, race instance draws, Rng
/// streams), so both are pinned: change either and every checked-in
/// baseline moves.
namespace gridcast {

/// FNV-1a, 64-bit: a stable, platform-independent hash of a name.  The
/// offset basis is 1469598103934665603, one digit short of the published
/// 14695981039346656037; the multiply-xor structure and the prime are
/// FNV-1a's.  Every seed derivation has always used this basis, so it
/// stays: correcting it would move every checked-in baseline.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The SplitMix64 output finalizer (Steele et al.): a bijective mix that
/// disperses nearby inputs across the whole 64-bit range.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace gridcast
