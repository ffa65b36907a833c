//===- support/XxHash64.cpp -----------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "support/XxHash64.h"

#include <cstring>

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "xxHash64 reads its input as little-endian words");

using namespace seer;

namespace {

constexpr uint64_t Prime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t Prime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t Prime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t Prime4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t Prime5 = 0x27d4eb2f165667c5ULL;

uint64_t rotl(uint64_t X, int Bits) { return (X << Bits) | (X >> (64 - Bits)); }

uint64_t load64(const char *P) {
  uint64_t V = 0;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

uint64_t load32(const char *P) {
  uint32_t V = 0;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

uint64_t xxRound(uint64_t Acc, uint64_t Input) {
  Acc += Input * Prime2;
  return rotl(Acc, 31) * Prime1;
}

uint64_t mergeRound(uint64_t Acc, uint64_t Lane) {
  Acc ^= xxRound(0, Lane);
  return Acc * Prime1 + Prime4;
}

} // namespace

uint64_t seer::xxHash64(std::string_view Bytes, uint64_t Seed) {
  const char *P = Bytes.data();
  const char *const End = P + Bytes.size();
  uint64_t H = 0;
  if (Bytes.size() >= 32) {
    uint64_t V1 = Seed + Prime1 + Prime2;
    uint64_t V2 = Seed + Prime2;
    uint64_t V3 = Seed;
    uint64_t V4 = Seed - Prime1;
    for (const char *Limit = End - 32; P <= Limit; P += 32) {
      V1 = xxRound(V1, load64(P));
      V2 = xxRound(V2, load64(P + 8));
      V3 = xxRound(V3, load64(P + 16));
      V4 = xxRound(V4, load64(P + 24));
    }
    H = rotl(V1, 1) + rotl(V2, 7) + rotl(V3, 12) + rotl(V4, 18);
    H = mergeRound(H, V1);
    H = mergeRound(H, V2);
    H = mergeRound(H, V3);
    H = mergeRound(H, V4);
  } else {
    H = Seed + Prime5;
  }
  H += Bytes.size();
  for (; End - P >= 8; P += 8)
    H = rotl(H ^ xxRound(0, load64(P)), 27) * Prime1 + Prime4;
  if (End - P >= 4) {
    H = rotl(H ^ (load32(P) * Prime1), 23) * Prime2 + Prime3;
    P += 4;
  }
  for (; P < End; ++P)
    H = rotl(H ^ (static_cast<uint8_t>(*P) * Prime5), 11) * Prime1;
  H ^= H >> 33;
  H *= Prime2;
  H ^= H >> 29;
  H *= Prime3;
  H ^= H >> 32;
  return H;
}
