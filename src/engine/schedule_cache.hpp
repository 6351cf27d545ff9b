#pragma once

/// \file schedule_cache.hpp
/// The engine's schedule/classification cache: a sharded, thread-safe,
/// bounded LRU map from configuration fingerprints to compiled artifacts
/// (`core::CompiledConfiguration` — the Classifier run plus the canonical
/// schedule built from it).
///
/// Why it exists: the canonical DRIP compiles per-configuration knowledge
/// before any simulation, and mutation sweeps / multi-protocol workloads
/// deliberately run consecutive jobs on the *same* configuration — so
/// without a cache every one of those jobs re-classifies (O(n³Δ)) and
/// re-compiles from scratch.  One `ScheduleCache` shared by all of a
/// `BatchRunner`'s workers classifies once per distinct configuration
/// instead of once per job.  It is also the keyed-artifact layer the
/// sharded/distributed sweeps item will serialize across processes: entries
/// are keyed by `config::fingerprint`, the stable digest that survives a
/// process boundary.
///
/// Correctness: keys are digests, so two distinct configurations could in
/// principle collide.  Every slot therefore stores its configuration and a
/// match verifies it (plus the channel model and classifier choice), so a
/// collision degrades to a miss/replacement — never to wrong artifacts — and
/// cache-on runs stay bit-identical to cache-off runs on any thread count
/// (asserted by tests/test_schedule_cache.cpp).

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/election.hpp"

namespace arl::engine {

/// Counters of one cache's lifetime (monotonic except `entries`).
/// Outcomes never depend on these — they describe work saved, and under
/// concurrent workers two threads may miss on the same key simultaneously,
/// so exact values are only deterministic for single-threaded batches.
struct ScheduleCacheStats {
  std::uint64_t hits = 0;             ///< lookups answered from the cache
  std::uint64_t misses = 0;           ///< lookups that found nothing (each one classifies)
  std::uint64_t evictions = 0;        ///< entries dropped by the capacity bound
  std::uint64_t schedule_builds = 0;  ///< schedules compiled through the cache (miss or upgrade)
  std::uint64_t entries = 0;          ///< entries resident right now

  /// Hits per lookup, in [0, 1] (0 when nothing was looked up).
  [[nodiscard]] double hit_rate() const;

  /// The counter growth between an `earlier` snapshot of the same cache and
  /// this one: monotonic counters subtract, `entries` (a gauge) keeps this
  /// snapshot's value.  This is how the sweep service attributes hits and
  /// misses to one request on its process-wide cache — snapshot before,
  /// snapshot after, report the difference.
  [[nodiscard]] ScheduleCacheStats since(const ScheduleCacheStats& earlier) const;

  friend bool operator==(const ScheduleCacheStats& a, const ScheduleCacheStats& b) = default;
};

/// Sharded bounded LRU implementation of `core::ScheduleCacheHandle`.
/// Shards are selected by key digest, each with its own mutex, LRU list and
/// capacity slice, so workers hitting different configurations rarely
/// contend.  Shared immutable entries (`shared_ptr<const ...>`) stay alive in
/// the reports that hold them even after eviction.
class ScheduleCache final : public core::ScheduleCacheHandle {
 public:
  /// Default capacity: comfortably covers a mutation neighbourhood or a
  /// cross-protocol sweep's working set without hoarding schedules.
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// A cache holding at most `capacity` entries (>= 1) across `shards`
  /// shards (rounded down to a power of two; 0 picks a default).  The bound
  /// is enforced per shard — capacity() reports the effective total, which
  /// never exceeds the request but may round down to the sharding
  /// granularity, and a shard whose keys are skewed evicts before the total
  /// is reached.
  explicit ScheduleCache(std::size_t capacity = kDefaultCapacity, std::size_t shards = 0);

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  [[nodiscard]] std::shared_ptr<const core::CompiledConfiguration> lookup(
      const config::Configuration& configuration, radio::ChannelModel model,
      bool fast_classifier) override;

  std::shared_ptr<const core::CompiledConfiguration> store(
      const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
      core::CompiledConfiguration compiled) override;

  /// Snapshot of the counters, summed across shards.
  [[nodiscard]] ScheduleCacheStats stats() const;

  /// Drops every entry (counters other than `entries` keep accumulating).
  void clear();

  /// Effective total entry bound across all shards (<= the requested one).
  [[nodiscard]] std::size_t capacity() const;

 private:
  /// One cached compile with everything needed to verify a digest match.
  struct Slot {
    std::uint64_t key = 0;
    config::Configuration configuration;
    radio::ChannelModel model = radio::ChannelModel::CollisionDetection;
    bool fast_classifier = false;
    std::shared_ptr<const core::CompiledConfiguration> compiled;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Slot> lru;  ///< most recently used first
    std::unordered_map<std::uint64_t, std::list<Slot>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t schedule_builds = 0;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t key);

  std::size_t shard_capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace arl::engine
