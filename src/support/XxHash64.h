//===- support/XxHash64.h - xxHash64 over byte images ---------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// xxHash64 (Yann Collet's XXH64, version 0.8 reference algorithm): a
/// 64-bit non-cryptographic hash that consumes 32 bytes per step in four
/// independent lanes, so it runs at memory speed. It keys the serving
/// layer's matrix fingerprints (core/ExecutionPlan.h), which hash whole
/// CSR arrays on every registration and at the balancer.
///
/// Every load goes through memcpy: the bytes may sit at any alignment
/// inside a wire frame. The multi-byte loads read little-endian, which is
/// the only byte order this tree builds for (net/Wire.h).
///
/// Small trusted keys (sweep configurations, fault-plan draws) keep the
/// byte-wise FNV-1a of support/Fnv.h. Neither hash is keyed: a caller
/// that needs exact identity must compare content, not hashes.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SUPPORT_XXHASH64_H
#define SEER_SUPPORT_XXHASH64_H

#include <cstdint>
#include <string_view>

namespace seer {

/// XXH64 of \p Bytes with \p Seed. Chaining calls, each seeded with the
/// previous result, hashes a sequence of separately stored arrays.
uint64_t xxHash64(std::string_view Bytes, uint64_t Seed = 0);

} // namespace seer

#endif // SEER_SUPPORT_XXHASH64_H
