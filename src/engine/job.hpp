#pragma once

/// \file job.hpp
/// Batch-election job descriptions.
///
/// A *job* is one configuration to run through the election pipeline: the
/// cross product the engine executes is (configuration source) ×
/// (ProtocolSpec) × (ElectionOptions).  Jobs come either materialized
/// (`std::vector<BatchJob>`) or lazily from a `JobSource`, so a sweep over a
/// million random configurations never holds more than one configuration per
/// worker in memory.
///
/// Determinism contract: the coin seed of job i in a batch with master seed
/// s is `job_coin_seed(s, i)` — a pure function of (s, i), never of the
/// thread that happens to execute the job.  A BatchRunner sweep is therefore
/// bit-identical across thread counts (asserted by tests/test_engine.cpp).
/// The id in the contract is always the job's *global* id in its sweep:
/// `BatchRunner::run_range` executes a sub-range of a sweep under the
/// original ids, which is what lets the distributed layer (src/dist/) split
/// one sweep across processes and merge reports that are bit-identical to a
/// single-process run (asserted by tests/test_dist.cpp).

#include <cstdint>
#include <functional>

#include "config/configuration.hpp"
#include "core/protocol.hpp"

namespace arl::engine {

/// Index of a job within its batch.
using JobId = std::uint64_t;

/// One unit of work: a configuration plus how to run it.
struct BatchJob {
  config::Configuration configuration;

  /// Which protocol to run (see core/protocol.hpp); defaults to canonical.
  core::ProtocolSpec protocol = {};

  /// Election knobs.  The protocol spec decides whether to simulate, and
  /// `options.simulator.coin_seed` is overwritten by the engine from the
  /// batch seed.
  core::ElectionOptions options = {};
};

/// Produces the job with index `id` on demand.  Called concurrently from
/// worker threads, so it must be a pure function of `id` (derive any
/// randomness from a per-index Rng split, never from shared mutable state).
using JobSource = std::function<BatchJob(JobId id)>;

/// Deterministic per-job coin seed (see the determinism contract above).
[[nodiscard]] std::uint64_t job_coin_seed(std::uint64_t batch_seed, JobId id);

}  // namespace arl::engine
