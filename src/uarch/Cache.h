//===- uarch/Cache.h - Set-associative data cache model ---------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-cache model used for DL1 miss rates and for the adaptive-cache
/// experiment of Sec. 6.1. That experiment fixes 64-byte blocks and 512
/// sets and reconfigures associativity from 1 to 8 ways (32KB to 256KB);
/// CacheConfig::reconfigSweep() enumerates exactly those configurations.
/// Replacement is true LRU.
///
/// MultiCacheProbe measures every configuration of such a sweep on one
/// address stream, which is how both the exploration intervals of the
/// adaptive scheme and the oracle policies learn per-interval miss rates
/// for all sizes. It does not simulate eight caches: LRU has the inclusion
/// property (Mattson et al., 1970), so with the set count and block size
/// fixed, an A-way set holds exactly the A most recently used distinct
/// blocks of that set. One recency stack per set, as deep as the largest
/// associativity, therefore answers every size at once: an access that
/// finds its block at stack depth d hits in every configuration with more
/// than d ways and misses in the rest.
///
/// The same stacks also hold the cache the adaptive scheme *serves* from,
/// a way-masked cache whose associativity changes at run time. A fixed
/// prefix of depth A does not describe it once it grows (re-enabled ways
/// come back empty), but a per-set prefix of variable length does: a
/// serving set always holds the most recently used distinct blocks of its
/// set, only perhaps fewer of them than it has ways. Every valid block in
/// it is more recent than every block the masking invalidated, and each
/// operation keeps that true: a shrink keeps the most recent ways, a grow
/// adds empty frames, a fill or hit puts its block on top and an eviction
/// drops the oldest valid block. Serving set s is therefore always the top
/// Fill[s] entries of stack s:
///   - an access at depth d is a served hit iff d < Fill[s];
///   - a served miss sets Fill[s] = min(Fill[s] + 1, served ways);
///   - shrinking to k ways sets Fill[s] = min(Fill[s], k);
///   - growing changes only the served ways, no fill count.
/// CacheModel::setAssocPreserving is the explicit way-masking model this
/// is checked against, access by access (tests/uarch_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SPM_UARCH_CACHE_H
#define SPM_UARCH_CACHE_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace spm {

/// Geometry of one cache configuration.
struct CacheConfig {
  uint32_t Sets = 512;
  uint32_t Assoc = 1;
  uint32_t BlockBytes = 64;

  uint64_t sizeBytes() const {
    return static_cast<uint64_t>(Sets) * Assoc * BlockBytes;
  }
  double sizeKB() const { return static_cast<double>(sizeBytes()) / 1024.0; }

  /// The paper's reconfiguration sweep: 512 sets x 64B, 1..8 ways.
  static std::vector<CacheConfig> reconfigSweep() {
    std::vector<CacheConfig> Sweep;
    for (uint32_t A = 1; A <= 8; ++A)
      Sweep.push_back({512, A, 64});
    return Sweep;
  }
};

namespace cache_detail {

/// Throws std::invalid_argument naming the first bad field of \p Cfg: a
/// zero field, or a set count or block size that is not a power of two
/// (set and block indices are taken by masking address bits).
inline void validate(const CacheConfig &Cfg) {
  auto Fail = [](const char *Field, uint32_t Value, const char *Why) {
    throw std::invalid_argument(std::string("cache ") + Field + " = " +
                                std::to_string(Value) + ": " + Why);
  };
  if (!std::has_single_bit(Cfg.Sets))
    Fail("Sets", Cfg.Sets, "must be a power of two");
  if (Cfg.Assoc == 0)
    Fail("Assoc", Cfg.Assoc, "must be positive");
  if (!std::has_single_bit(Cfg.BlockBytes))
    Fail("BlockBytes", Cfg.BlockBytes, "must be a power of two");
}

} // namespace cache_detail

/// Hit/miss counters of one cache (or one probed configuration).
struct CacheStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;

  double missRate() const {
    return Accesses ? static_cast<double>(Misses) / Accesses : 0.0;
  }
  double hitRate() const { return 1.0 - missRate(); }

  CacheStats operator-(const CacheStats &O) const {
    return {Accesses - O.Accesses, Misses - O.Misses};
  }
  CacheStats &operator+=(const CacheStats &O) {
    Accesses += O.Accesses;
    Misses += O.Misses;
    return *this;
  }
};

/// Snapshot of a CacheModel's contents (tags in recency order, counters),
/// read through saveState(). A test oracle: it lets the served-cache tests
/// compare set contents way by way across setAssocPreserving.
struct CacheModelState {
  CacheStats Stats;
  std::vector<uint64_t> Tags;
};

/// A single set-associative LRU cache. Each set is kept in recency order,
/// most recently used way first: a Mattson stack as deep as Assoc, so an
/// access needs no stamps and no clock. It finds its block's depth d with a
/// scan that never branches on the tags (Assoc when absent), moves ways
/// 0..d-1 down one place with masks, and puts its block on top. On a miss
/// d = Assoc, so the same shift drops the least recently used way.
/// Valid ways form a prefix of their set; invalid ways hold ~0. A run of
/// accesses tests the way count once. The two shapes PerfModel builds,
/// its 2-way DL1 and its 8-way L2, have their own unrolled loops; every
/// other shape takes the runtime loop.
class CacheModel {
public:
  explicit CacheModel(CacheConfig Cfg = CacheConfig()) { configure(Cfg); }

  /// Re-shapes the cache and invalidates all contents. Throws
  /// std::invalid_argument on a bad geometry (see cache_detail::validate).
  void configure(CacheConfig NewCfg) {
    cache_detail::validate(NewCfg);
    Cfg = NewCfg;
    SetBits = std::countr_zero(Cfg.Sets);
    BlockBits = std::countr_zero(Cfg.BlockBytes);
    Tags.assign(static_cast<size_t>(Cfg.Sets) * Cfg.Assoc, ~0ull);
  }

  /// Way-masking reconfiguration as in selective-ways adaptive caches
  /// (Albonesi / Balasubramonian et al., the hardware the paper's Sec. 6.1
  /// experiment models): shrinking disables ways but keeps the most
  /// recently used blocks of each set; growing re-enables ways with their
  /// (invalidated) frames. No whole-cache flush. With sets in recency
  /// order this is a per-set prefix copy.
  /// The adaptive cache serves from MultiCacheProbe's fill counts instead
  /// (see the file comment); this explicit model is kept as the reference
  /// the tests check those counts against.
  /// Throws std::invalid_argument when \p NewAssoc is zero.
  void setAssocPreserving(uint32_t NewAssoc) {
    if (NewAssoc == 0)
      throw std::invalid_argument("cache Assoc = 0: must be positive");
    if (NewAssoc == Cfg.Assoc)
      return;
    const uint32_t OldAssoc = Cfg.Assoc;
    const uint32_t Keep = std::min(NewAssoc, OldAssoc);
    const size_t NewSize = static_cast<size_t>(Cfg.Sets) * NewAssoc;
    if (NewAssoc > OldAssoc)
      Tags.resize(NewSize, ~0ull);
    // Re-lays set Set from OldAssoc to NewAssoc ways in place: its Keep
    // most recent ways, then invalid ways.
    auto Relayout = [&](uint32_t Set) {
      size_t Src = static_cast<size_t>(Set) * OldAssoc;
      size_t Dst = static_cast<size_t>(Set) * NewAssoc;
      std::memmove(&Tags[Dst], &Tags[Src], Keep * sizeof(uint64_t));
      std::fill(Tags.begin() + Dst + Keep, Tags.begin() + Dst + NewAssoc,
                ~0ull);
    };
    // Shrinking moves every set toward the front, growing toward the
    // back; walking in that direction never overwrites a set not yet moved.
    if (NewAssoc < OldAssoc)
      for (uint32_t Set = 0; Set < Cfg.Sets; ++Set)
        Relayout(Set);
    else
      for (uint32_t Set = Cfg.Sets; Set-- > 0;)
        Relayout(Set);
    Tags.resize(NewSize);
    Cfg.Assoc = NewAssoc;
  }

  /// Simulates one access; returns true on hit. Stores allocate like loads
  /// (write-allocate), matching the simple Cheetah-style model.
  bool access(uint64_t Addr) { return accessRun(&Addr, 1) == 0; }

  /// Simulates \p Count accesses in stream order, as that many access()
  /// calls would, and returns how many missed.
  uint64_t accessRun(const uint64_t *Addrs, uint32_t Count) {
    uint64_t Misses = Cfg.Assoc == 2   ? runWays<2>(Addrs, Count)
                      : Cfg.Assoc == 8 ? runWays<8>(Addrs, Count)
                                       : runWays<0>(Addrs, Count);
    Stats.Accesses += Count;
    Stats.Misses += Misses;
    return Misses;
  }

  const CacheConfig &config() const { return Cfg; }
  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats = CacheStats(); }

  CacheModelState saveState() const { return {Stats, Tags}; }

private:
  /// The loop of \p Count steps at \p Ways ways (0: Cfg.Assoc); returns
  /// the misses.
  template <uint32_t Ways>
  uint64_t runWays(const uint64_t *Addrs, uint32_t Count) {
    uint64_t Misses = 0;
    for (uint32_t I = 0; I < Count; ++I)
      Misses += !step<Ways>(Addrs[I]);
    return Misses;
  }

  /// One LRU step on the set of \p Addr without touching the counters;
  /// returns true on hit. \p Ways is the way count, or 0 for Cfg.Assoc.
  template <uint32_t Ways> bool step(uint64_t Addr) {
    const uint32_t Assoc = Ways ? Ways : Cfg.Assoc;
    uint64_t Block = Addr >> BlockBits;
    uint32_t Set = static_cast<uint32_t>(Block & (Cfg.Sets - 1));
    uint64_t Tag = Block >> SetBits;
    uint64_t *S = &Tags[static_cast<size_t>(Set) * Assoc];
    // Depth of the block, Assoc when absent. Valid tags in a set are
    // distinct, so at most one way W matches and takes Assoc - W off D.
    // Both loops are arithmetic and masks, not conditionals, which the
    // compiler may turn into branches that mispredict on miss-heavy streams.
    uint32_t D = Assoc;
#pragma GCC unroll 8
    for (uint32_t W = 0; W < Assoc; ++W)
      D -= static_cast<uint32_t>(S[W] == Tag) * (Assoc - W);
    // Ways 1..D take their upper neighbour; the rest stay.
#pragma GCC unroll 8
    for (uint32_t W = Assoc - 1; W > 0; --W) {
      uint64_t Move = -static_cast<uint64_t>(W <= D);
      S[W] = (S[W] & ~Move) | (S[W - 1] & Move);
    }
    S[0] = Tag;
    return D < Assoc;
  }

  CacheConfig Cfg;
  uint32_t SetBits = 0;   ///< log2(Cfg.Sets), fixed by configure().
  uint32_t BlockBits = 0; ///< log2(Cfg.BlockBytes), fixed by configure().
  CacheStats Stats;
  std::vector<uint64_t> Tags; ///< Sets x Assoc, each set most recent first.
};

/// Measures a whole configuration sweep on one address stream with one
/// LRU recency stack per set (see the file comment for why that is exact).
/// All configurations must share Sets and BlockBytes; Assoc may come in
/// any order and may repeat. The stack is as deep as the largest Assoc;
/// Hist[d] counts hits found at depth d, so a configuration with A ways
/// missed Accesses - (Hist[0] + ... + Hist[A-1]) times.
///
/// It also serves one way-masked cache of the same geometry from the same
/// stacks: Fill[s] counts the blocks that cache holds in set s, which are
/// the top Fill[s] entries of stack s (file comment). It starts empty with
/// every stack way enabled; setServedWays reconfigures it.
class MultiCacheProbe {
public:
  /// Throws std::invalid_argument on an empty sweep, a bad geometry, or
  /// configurations that differ in Sets or BlockBytes.
  explicit MultiCacheProbe(std::vector<CacheConfig> SweepIn)
      : Sweep(std::move(SweepIn)) {
    if (Sweep.empty())
      throw std::invalid_argument("cache sweep is empty");
    for (const CacheConfig &C : Sweep) {
      cache_detail::validate(C);
      if (C.Sets != Sweep[0].Sets)
        throw std::invalid_argument(
            "cache sweep Sets differ: " + std::to_string(C.Sets) + " vs " +
            std::to_string(Sweep[0].Sets));
      if (C.BlockBytes != Sweep[0].BlockBytes)
        throw std::invalid_argument(
            "cache sweep BlockBytes differ: " + std::to_string(C.BlockBytes) +
            " vs " + std::to_string(Sweep[0].BlockBytes));
      Depth = std::max(Depth, C.Assoc);
    }
    SetMask = Sweep[0].Sets - 1;
    SetBits = std::countr_zero(Sweep[0].Sets);
    BlockBits = std::countr_zero(Sweep[0].BlockBytes);
    Stack.assign(static_cast<size_t>(Sweep[0].Sets) * Depth, ~0ull);
    Hist.assign(Depth, 0);
    Fill.assign(Sweep[0].Sets, 0);
    ServedWays = Depth;
  }

  /// Records one access in every configuration; returns true when it hits
  /// in the served cache.
  bool access(uint64_t Addr) {
    ++Accesses;
    uint64_t Block = Addr >> BlockBits;
    size_t Set = static_cast<size_t>(Block & SetMask);
    uint64_t Tag = Block >> SetBits;
    uint64_t *S = &Stack[Set * Depth];
    uint32_t D = 0;
    if (S[0] != Tag) { // At depth 0 the stack is already in order.
      D = 1;
      while (D < Depth && S[D] != Tag)
        ++D;
      // A miss everywhere drops the bottom entry. The shift is an inline
      // loop: at most Depth - 1 moves, too short to pay for a memmove call.
      for (uint32_t I = std::min(D, Depth - 1); I > 0; --I)
        S[I] = S[I - 1];
      S[0] = Tag;
    }
    if (D < Depth)
      ++Hist[D];
    uint32_t &F = Fill[Set];
    if (D < F)
      return true;
    F = std::min(F + 1, ServedWays);
    return false;
  }

  /// Enables \p Ways ways of the served cache: a shrink keeps each set's
  /// most recent blocks, a grow adds empty frames. Throws
  /// std::invalid_argument when \p Ways is 0 or deeper than the stack.
  void setServedWays(uint32_t Ways) {
    if (Ways == 0 || Ways > Depth)
      throw std::invalid_argument("served ways = " + std::to_string(Ways) +
                                  ": must be in 1.." + std::to_string(Depth) +
                                  " (the stack depth)");
    if (Ways < ServedWays)
      for (uint32_t &F : Fill)
        F = std::min(F, Ways);
    ServedWays = Ways;
  }

  size_t size() const { return Sweep.size(); }

  /// Whole-stream counters of configuration \p I of the sweep.
  CacheStats stats(size_t I) const {
    uint64_t Hits = 0;
    for (uint32_t D = 0; D < Sweep[I].Assoc; ++D)
      Hits += Hist[D];
    return {Accesses, Accesses - Hits};
  }

  /// Snapshot of all per-configuration stats.
  std::vector<CacheStats> statsSnapshot() const {
    std::vector<CacheStats> Out;
    Out.reserve(Sweep.size());
    for (size_t I = 0; I < Sweep.size(); ++I)
      Out.push_back(stats(I));
    return Out;
  }

private:
  std::vector<CacheConfig> Sweep;
  uint32_t Depth = 0;
  uint64_t SetMask = 0;
  uint32_t SetBits = 0;
  uint32_t BlockBits = 0;
  std::vector<uint64_t> Stack; ///< Sets x Depth tags, most recent first.
  std::vector<uint64_t> Hist;  ///< Hits by stack depth.
  std::vector<uint32_t> Fill;  ///< Per set: blocks the served cache holds.
  uint32_t ServedWays = 0;
  uint64_t Accesses = 0;
};

} // namespace spm

#endif // SPM_UARCH_CACHE_H
