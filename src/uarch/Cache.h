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
/// Replacement is true LRU. MultiCacheProbe simulates every configuration
/// of the sweep simultaneously on one address stream, which is how both the
/// exploration intervals of the adaptive scheme and the oracle policies
/// learn per-interval miss rates for all sizes.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_UARCH_CACHE_H
#define SPM_UARCH_CACHE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
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

/// Complete mutable state of a CacheModel (tags, LRU stamps, clock,
/// counters), exposed so checkpoints can snapshot and resume a simulation
/// bit-exactly. Cache contents are history-dependent, so checkpointed execution
/// cannot skip ahead without carrying this.
struct CacheModelState {
  CacheStats Stats;
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Stamps;
  uint64_t Clock = 0;
};

/// A single set-associative LRU cache.
class CacheModel {
public:
  explicit CacheModel(CacheConfig Cfg = CacheConfig()) { configure(Cfg); }

  /// Re-shapes the cache and invalidates all contents.
  void configure(CacheConfig NewCfg) {
    assert(NewCfg.Sets > 0 && NewCfg.Assoc > 0 && NewCfg.BlockBytes > 0 &&
           "degenerate cache configuration");
    assert((NewCfg.Sets & (NewCfg.Sets - 1)) == 0 &&
           "set count must be a power of two");
    assert((NewCfg.BlockBytes & (NewCfg.BlockBytes - 1)) == 0 &&
           "block size must be a power of two");
    Cfg = NewCfg;
    Tags.assign(static_cast<size_t>(Cfg.Sets) * Cfg.Assoc, ~0ull);
    Stamps.assign(Tags.size(), 0);
    Clock = 0;
  }

  /// Changes associativity only (the Sec. 6.1 reconfiguration) and flushes.
  void setAssoc(uint32_t Assoc) {
    CacheConfig NewCfg = Cfg;
    NewCfg.Assoc = Assoc;
    configure(NewCfg);
  }

  /// Way-masking reconfiguration as in selective-ways adaptive caches
  /// (Albonesi / Balasubramonian et al., the hardware the paper's Sec. 6.1
  /// experiment models): shrinking disables ways but keeps the most
  /// recently used blocks of each set; growing re-enables ways with their
  /// (invalidated) frames. No whole-cache flush.
  void setAssocPreserving(uint32_t NewAssoc) {
    assert(NewAssoc > 0 && "degenerate associativity");
    if (NewAssoc == Cfg.Assoc)
      return;
    uint32_t OldAssoc = Cfg.Assoc;
    std::vector<uint64_t> NewTags(static_cast<size_t>(Cfg.Sets) * NewAssoc,
                                  ~0ull);
    std::vector<uint64_t> NewStamps(NewTags.size(), 0);
    uint32_t Keep = NewAssoc < OldAssoc ? NewAssoc : OldAssoc;
    for (uint32_t Set = 0; Set < Cfg.Sets; ++Set) {
      uint64_t *OldT = &Tags[static_cast<size_t>(Set) * OldAssoc];
      uint64_t *OldS = &Stamps[static_cast<size_t>(Set) * OldAssoc];
      // Select the Keep most recently used ways of this set.
      std::vector<uint32_t> Order(OldAssoc);
      for (uint32_t W = 0; W < OldAssoc; ++W)
        Order[W] = W;
      std::sort(Order.begin(), Order.end(),
                [&](uint32_t A, uint32_t B) { return OldS[A] > OldS[B]; });
      for (uint32_t W = 0; W < Keep; ++W) {
        NewTags[static_cast<size_t>(Set) * NewAssoc + W] = OldT[Order[W]];
        NewStamps[static_cast<size_t>(Set) * NewAssoc + W] = OldS[Order[W]];
      }
    }
    Cfg.Assoc = NewAssoc;
    Tags = std::move(NewTags);
    Stamps = std::move(NewStamps);
  }

  /// Simulates one access; returns true on hit. Stores allocate like loads
  /// (write-allocate), matching the simple Cheetah-style model.
  bool access(uint64_t Addr) {
    ++Stats.Accesses;
    uint64_t Block = Addr / Cfg.BlockBytes;
    uint32_t Set = static_cast<uint32_t>(Block & (Cfg.Sets - 1));
    uint64_t Tag = Block >> setBits();
    uint64_t *SetTags = &Tags[static_cast<size_t>(Set) * Cfg.Assoc];
    uint64_t *SetStamps = &Stamps[static_cast<size_t>(Set) * Cfg.Assoc];
    ++Clock;

    uint32_t Victim = 0;
    uint64_t OldestStamp = ~0ull;
    for (uint32_t W = 0; W < Cfg.Assoc; ++W) {
      if (SetTags[W] == Tag) {
        SetStamps[W] = Clock;
        return true;
      }
      if (SetStamps[W] < OldestStamp) {
        OldestStamp = SetStamps[W];
        Victim = W;
      }
    }
    ++Stats.Misses;
    SetTags[Victim] = Tag;
    SetStamps[Victim] = Clock;
    return false;
  }

  const CacheConfig &config() const { return Cfg; }
  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats = CacheStats(); }

  CacheModelState saveState() const { return {Stats, Tags, Stamps, Clock}; }

  /// Restores a snapshot taken from a cache of the same geometry. Returns
  /// false (leaving the cache untouched) when the snapshot's table shape
  /// does not match the current configuration.
  bool restoreState(const CacheModelState &St) {
    if (St.Tags.size() != Tags.size() || St.Stamps.size() != Stamps.size())
      return false;
    Stats = St.Stats;
    Tags = St.Tags;
    Stamps = St.Stamps;
    Clock = St.Clock;
    return true;
  }

private:
  uint32_t setBits() const {
    uint32_t Bits = 0;
    for (uint32_t S = Cfg.Sets; S > 1; S >>= 1)
      ++Bits;
    return Bits;
  }

  CacheConfig Cfg;
  CacheStats Stats;
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Stamps;
  uint64_t Clock = 0;
};

/// Simulates a whole configuration sweep in parallel on one address stream.
class MultiCacheProbe {
public:
  explicit MultiCacheProbe(std::vector<CacheConfig> Sweep) {
    assert(!Sweep.empty() && "empty cache sweep");
    for (const CacheConfig &C : Sweep)
      Caches.emplace_back(C);
  }

  void access(uint64_t Addr) {
    for (CacheModel &C : Caches)
      C.access(Addr);
  }

  size_t size() const { return Caches.size(); }
  const CacheModel &cache(size_t I) const { return Caches[I]; }
  CacheModel &cache(size_t I) { return Caches[I]; }

  /// Snapshot of all per-configuration stats.
  std::vector<CacheStats> statsSnapshot() const {
    std::vector<CacheStats> Out;
    Out.reserve(Caches.size());
    for (const CacheModel &C : Caches)
      Out.push_back(C.stats());
    return Out;
  }

private:
  std::vector<CacheModel> Caches;
};

} // namespace spm

#endif // SPM_UARCH_CACHE_H
