//===- support/Fnv.h - FNV-1a content hashing ------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 64-bit FNV-1a hasher for small trusted keys: the benchmark sweep
/// cache key (core/BenchmarkCache) and the fault injector's seeded
/// schedules. It mixes one byte per multiply, so whole matrices are
/// hashed with support/XxHash64.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SUPPORT_FNV_H
#define SEER_SUPPORT_FNV_H

#include <cstdint>

namespace seer {

/// Accumulates 64-bit FNV-1a over a sequence of values, byte by byte.
class Fnv1a {
public:
  void add(uint64_t Value) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Value >> (8 * Byte)) & 0xff;
      Hash *= 1099511628211ull;
    }
  }
  void add(double Value) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(Value));
    __builtin_memcpy(&Bits, &Value, sizeof(Bits));
    add(Bits);
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 1469598103934665603ull;
};

} // namespace seer

#endif // SEER_SUPPORT_FNV_H
