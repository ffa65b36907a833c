//===- serve/FingerprintCache.cpp ------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "serve/FingerprintCache.h"

#include "support/FaultInjector.h"
#include "support/Tracing.h"

#include <cassert>

using namespace seer;

namespace {

/// Fraction of a shard's budget the protected segment may occupy before
/// its tail is demoted back to probation. High enough that a hot working
/// set fits, low enough that probation always has room to admit newcomers.
constexpr double ProtectedFraction = 0.75;

/// Slots in each shard's direct-mapped evicted-fingerprint table (32 KiB
/// per shard). Power of two so the slot index is a mask.
constexpr size_t EvictedTableSlots = 4096;

size_t evictedSlot(uint64_t Fingerprint) {
  // The low bits pick the shard; mix before masking so fingerprints in
  // the same shard spread over the whole table.
  return ((Fingerprint * 0x9e3779b97f4a7c15ull) >> 52) &
         (EvictedTableSlots - 1);
}

/// Accounted resident bytes of \p E: the struct itself plus the heap
/// storage behind its vectors and kernel states.
size_t entryResidentBytes(const FingerprintCache::Entry &E)
    SEER_REQUIRES(E.Mutex) {
  size_t Bytes = sizeof(FingerprintCache::Entry);
  Bytes += E.Kernels.capacity() * sizeof(FingerprintCache::KernelSlot);
  for (const FingerprintCache::KernelSlot &Slot : E.Kernels)
    if (Slot.State)
      Bytes += Slot.State->bytes();
  Bytes += E.Oracle.capacity() * sizeof(KernelMeasurement);
  return Bytes;
}

/// Drops \p E's recomputable bytes — the lazy oracle and any stashed but
/// never-charged kernel states. Nothing a past request was charged for is
/// touched, so charged costs and responses stay bit-identical. \returns
/// true when anything was shed.
bool shedRecomputable(FingerprintCache::Entry &E) SEER_REQUIRES(E.Mutex) {
  bool Shed = false;
  if (!E.Oracle.empty() || E.Oracle.capacity() != 0) {
    std::vector<KernelMeasurement>().swap(E.Oracle);
    Shed = true;
  }
  for (FingerprintCache::KernelSlot &Slot : E.Kernels)
    if (Slot.State && !Slot.Paid) {
      Slot = FingerprintCache::KernelSlot();
      Shed = true;
    }
  return Shed;
}

} // namespace

FingerprintCache::FingerprintCache(size_t NumShards, size_t BudgetBytes)
    : Shards(NumShards ? NumShards : 1), BudgetBytes(BudgetBytes),
      ShardBudget(BudgetBytes / (NumShards ? NumShards : 1)) {
  // A nonzero budget smaller than the shard count would truncate to a
  // zero shard slice and cache nothing; keep at least one byte of slice
  // so tiny budgets degrade to "cache almost nothing" instead.
  if (BudgetBytes && !ShardBudget)
    ShardBudget = 1;
}

namespace {

/// Adds one pin to \p E. Caller holds the owning shard's lock; bumps the
/// shard's pinned-entry gauge on the 0 -> 1 transition.
void pinLocked(FingerprintCache::Entry &E, size_t &PinnedCount) {
  if (E.Pins.fetch_add(1, std::memory_order_relaxed) == 0)
    ++PinnedCount;
}

} // namespace

std::pair<std::shared_ptr<FingerprintCache::Entry>, bool>
FingerprintCache::lookupOrAnalyze(uint64_t Fingerprint, const CsrMatrix &M,
                                  size_t NumKernels) {
  Shard &S = shardFor(Fingerprint);
  {
    MutexLock Lock(S.Mutex);
    const auto It = S.Index.find(Fingerprint);
    if (It != S.Index.end()) {
      touch(S, It->second);
      pinLocked(*It->second->E, S.PinnedCount);
      return {It->second->E, true};
    }
  }

  // Miss: run the single-pass analysis outside the shard lock so other
  // matrices in this shard are not blocked behind an O(nnz) walk. The
  // fresh entry is uniquely owned here, but its ledger and sizing are
  // guarded members, so they are initialized under its (uncontended)
  // mutex — noise next to the O(nnz) analysis.
  auto Fresh = std::make_shared<Entry>();
  Fresh->Fingerprint = Fingerprint;
  Fresh->Stats = computeMatrixStats(M);
  size_t FreshBytes = 0;
  {
    MutexLock InitLock(Fresh->Mutex);
    Fresh->Kernels.resize(NumKernels);
    FreshBytes = entryResidentBytes(*Fresh);
  }

  // Graceful degradation on insert failure: the analysis just computed is
  // complete and correct, so the request is served from this un-inserted
  // entry — bit-identical, merely uncached (the next request re-analyzes).
  // A pinned un-inserted entry only carries its refcount; unpin() already
  // tolerates entries that are not resident.
  if (Status F = FaultInjector::instance().check(faultsite::CacheInsert);
      !F.ok()) {
    Fresh->Pins.fetch_add(1, std::memory_order_relaxed);
    return {std::move(Fresh), false};
  }

  MutexLock Lock(S.Mutex);
  const auto It = S.Index.find(Fingerprint);
  if (It != S.Index.end()) {
    // A racing thread inserted first; its entry is bit-identical (the
    // analysis is deterministic), so adopt it. This request still did the
    // work itself: report a miss.
    touch(S, It->second);
    pinLocked(*It->second->E, S.PinnedCount);
    return {It->second->E, false};
  }
  if (!S.EvictedFingerprints.empty() &&
      S.EvictedFingerprints[evictedSlot(Fingerprint)] == Fingerprint)
    ++S.Reanalyses;
  pinLocked(*Fresh, S.PinnedCount); // before policing, so it survives it
  S.Probation.push_front(Node{Fresh, FreshBytes, /*InProtected=*/false});
  S.Index.emplace(Fingerprint, S.Probation.begin());
  S.UsedBytes += FreshBytes;
  enforceBudget(S, /*AlreadyLocked=*/nullptr);
  return {std::move(Fresh), false};
}

void FingerprintCache::unpin(const std::shared_ptr<Entry> &E) {
  assert(E && "unpin without an entry");
  Shard &S = shardFor(E->Fingerprint);
  MutexLock Lock(S.Mutex);
  assert(E->Pins.load(std::memory_order_relaxed) > 0 && "unbalanced unpin");
  if (E->Pins.fetch_sub(1, std::memory_order_relaxed) != 1)
    return;
  // Last pin gone. The gauge only tracks *resident* pinned entries; an
  // entry can outlive its residency through the handle's shared_ptr after
  // a racing re-registration replaced it, in which case it was already
  // uncounted.
  const auto It = S.Index.find(E->Fingerprint);
  if (It == S.Index.end() || It->second->E != E)
    return;
  --S.PinnedCount;
  // The entry is evictable again; an over-budget shard (pinned bytes can
  // exceed the slice) is re-policed right away.
  enforceBudget(S, /*AlreadyLocked=*/nullptr);
}

void FingerprintCache::noteMutation(const std::shared_ptr<Entry> &E) {
  assert(E && "noteMutation without an entry");
  Shard &S = shardFor(E->Fingerprint);
  // Lock order entry -> shard: the byte computation and the accounting
  // update must be atomic, or a racing noteMutation could publish a stale
  // (smaller) size and leave the shard undercounted.
  MutexLock EntryLock(E->Mutex);
  const size_t NewBytes = entryResidentBytes(*E);
  MutexLock ShardLock(S.Mutex);
  const auto It = S.Index.find(E->Fingerprint);
  if (It == S.Index.end() || It->second->E != E)
    return; // evicted (or replaced) while the caller worked; dies with it
  Node &N = *It->second;
  S.UsedBytes += NewBytes - N.AccountedBytes;
  if (N.InProtected)
    S.ProtectedBytes += NewBytes - N.AccountedBytes;
  N.AccountedBytes = NewBytes;
  enforceBudget(S, E.get());
}

void FingerprintCache::touch(Shard &S, std::list<Node>::iterator It) {
  if (It->InProtected) {
    S.Protected.splice(S.Protected.begin(), S.Protected, It);
    return;
  }
  S.Protected.splice(S.Protected.begin(), S.Probation, It);
  It->InProtected = true;
  S.ProtectedBytes += It->AccountedBytes;
  if (!ShardBudget)
    return;
  // Cap the protected segment so probation keeps room to admit newcomers;
  // demoted entries get one more trip through probation before eviction.
  const size_t ProtectedCap =
      static_cast<size_t>(static_cast<double>(ShardBudget) *
                          ProtectedFraction);
  while (S.ProtectedBytes > ProtectedCap && S.Protected.size() > 1) {
    const auto Tail = std::prev(S.Protected.end());
    Tail->InProtected = false;
    S.ProtectedBytes -= Tail->AccountedBytes;
    S.Probation.splice(S.Probation.begin(), S.Protected, Tail);
  }
}

// Justified SEER_NO_THREAD_SAFETY_ANALYSIS: the entry lock is held
// conditionally — via try_lock, or by the caller when &E == AlreadyLocked
// — a capability pattern the analysis cannot model. The shard-lock
// requirement is still declared (and checked at call sites) by the
// SEER_REQUIRES(S.Mutex) on the declaration.
void FingerprintCache::shedNode(Shard &S, Node &N, Entry *AlreadyLocked) {
  Entry &E = *N.E;
  const bool Locked = &E != AlreadyLocked;
  if (Locked && !E.Mutex.try_lock())
    return;
  const bool DidShed = shedRecomputable(E);
  const size_t NewBytes = DidShed ? entryResidentBytes(E) : N.AccountedBytes;
  if (Locked)
    E.Mutex.unlock();
  if (NewBytes >= N.AccountedBytes)
    return;
  const size_t Freed = N.AccountedBytes - NewBytes;
  S.UsedBytes -= Freed;
  if (N.InProtected)
    S.ProtectedBytes -= Freed;
  N.AccountedBytes = NewBytes;
  S.BytesEvicted += Freed;
  ++S.PartialEvictions;
}

void FingerprintCache::enforceBudget(Shard &S, Entry *AlreadyLocked) {
  if (!ShardBudget || S.UsedBytes <= ShardBudget)
    return;

  // The whole eviction walk (partial sheds + whole-entry drops) is one
  // span: the over-budget check above keeps the common in-budget call
  // free of any observability cost.
  ScopedSpan EvictSpan(spanname::CacheEvict);
  EvictSpan.tag("over_bytes",
                static_cast<double>(S.UsedBytes - ShardBudget));

  // Stage 1: shed recomputable bytes (oracle sweeps, unpaid kernel
  // states) from every resident entry, coldest first, before any whole
  // entry is dropped. A busy entry (try_lock fails) is skipped here — it
  // is mid-request and therefore hot — unless it is the caller's own
  // entry, whose lock the caller already holds for us (see shedNode).
  for (auto List : {&S.Probation, &S.Protected}) {
    for (auto It = List->rbegin();
         It != List->rend() && S.UsedBytes > ShardBudget; ++It)
      shedNode(S, *It, AlreadyLocked);
    if (S.UsedBytes <= ShardBudget)
      return;
  }

  // Stage 2: drop whole entries, probation tail first, protected tail
  // last. Entries pinned by live registration handles are skipped — the
  // session layer promised their analysis stays resident — so a shard
  // whose remaining bytes are all pinned stays over budget until handles
  // are released. Removal needs no entry lock — in-flight holders keep
  // the entry alive through their shared_ptr; it just stops being
  // findable, and its next visit re-analyzes (and re-charges
  // preprocessing) for the new residency.
  // One reverse walk per list: evicting mid-walk keeps the position, so
  // a run of cold pinned entries at the tail is skipped once, not
  // re-scanned per victim.
  for (auto *List : {&S.Probation, &S.Protected}) {
    auto It = List->end();
    while (S.UsedBytes > ShardBudget && It != List->begin()) {
      --It;
      if (It->E->Pins.load(std::memory_order_relaxed) > 0)
        continue; // pinned by a live registration; never whole-evicted
      S.UsedBytes -= It->AccountedBytes;
      if (It->InProtected)
        S.ProtectedBytes -= It->AccountedBytes;
      S.BytesEvicted += It->AccountedBytes;
      ++S.Evictions;
      if (S.EvictedFingerprints.empty())
        S.EvictedFingerprints.resize(EvictedTableSlots, 0);
      S.EvictedFingerprints[evictedSlot(It->E->Fingerprint)] =
          It->E->Fingerprint;
      S.Index.erase(It->E->Fingerprint);
      It = List->erase(It); // resumes just tailward of the victim
    }
    if (S.UsedBytes <= ShardBudget)
      return;
  }
}

FingerprintCache::Stats FingerprintCache::stats() const {
  Stats Total;
  for (const Shard &S : Shards) {
    MutexLock Lock(S.Mutex);
    Total.Entries += S.Index.size();
    Total.BytesCached += S.UsedBytes;
    Total.Evictions += S.Evictions;
    Total.PartialEvictions += S.PartialEvictions;
    Total.BytesEvicted += S.BytesEvicted;
    Total.Reanalyses += S.Reanalyses;
    Total.PinnedEntries += S.PinnedCount;
  }
  return Total;
}
