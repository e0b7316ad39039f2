// Hash combining helpers (boost-style) used by tuple/value containers.

#ifndef DYNAMITE_UTIL_HASH_H_
#define DYNAMITE_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace dynamite {

/// Mixes `v`'s hash into `seed` (boost::hash_combine recipe, 64-bit).
template <typename T>
void HashCombine(size_t* seed, const T& v) {
  *seed ^= std::hash<T>{}(v) + 0x9e3779b97f4a7c15ULL + (*seed << 12) + (*seed >> 4);
}

/// splitmix64 finalizer: full-avalanche mixing of a 64-bit word. Needed
/// wherever hash values feed power-of-two-masked tables: std::hash of an
/// integer is the identity on libstdc++, and dense ids (interned strings,
/// sequential ints) cluster badly without it.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Slot count of an open-addressed table that holds `entries` entries
/// without growing: the smallest power of two, at least 16, that keeps the
/// load at or under 3/4, the load at which the row tables (Relation) and
/// group tables (JoinIndex) double.
inline size_t SlotsForEntries(size_t entries) {
  size_t slots = 16;
  while (slots * 3 < entries * 4) slots *= 2;
  return slots;
}

}  // namespace dynamite

#endif  // DYNAMITE_UTIL_HASH_H_
