// splitmix64 (Steele, Lea, Flood), the one generator step behind every
// seeded stream: Xoshiro256 seeding, serve's load traces and fault's
// keyed draws. Header-only and dependency-free, so fault and linalg
// share it without linking anything.
#pragma once

#include <cstdint>

namespace capow {

/// Advances `state` and returns it mixed; on a copy of a value it is a
/// stateless hash in which every input bit avalanches.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace capow
