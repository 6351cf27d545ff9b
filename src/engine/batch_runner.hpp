#pragma once

/// \file batch_runner.hpp
/// The batch election engine: runs many election jobs across the thread
/// pool and aggregates the outcomes.
///
/// This is the one "run many configurations" loop in the repository — the
/// CLI sweep command, the examples and the benchmarks all submit their work
/// here instead of hand-rolling parallel loops.  Each worker owns one
/// `core::ElectionScratch` and reuses its simulator buffers across every job
/// it executes; job results land in a slot indexed by job id, so the
/// assembled `BatchReport` is independent of scheduling (and, by the seeding
/// contract in job.hpp, of the thread count).

#include <cstdint>
#include <optional>
#include <vector>

#include "config/fingerprint.hpp"
#include "engine/job.hpp"
#include "engine/schedule_cache.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/simulator.hpp"
#include "store/artifact_store.hpp"
#include "support/thread_pool.hpp"

namespace arl::engine {

/// Which simulation path a batch drives its jobs through.  Outcomes are
/// bit-identical across modes (asserted by tests/test_simulator_fast.cpp);
/// the modes differ only in throughput.
enum class EngineMode : std::uint8_t {
  Auto,       ///< resolves to Wavefront
  Scalar,     ///< the reference per-node simulator loop
  Wavefront,  ///< the event-driven fast path (faulted jobs included) +
              ///< histories skipped in the results; the per-worker scratch
              ///< carries its buffers, coin seeds and compiled schedules
              ///< across jobs
};

/// Engine-level knobs (per BatchRunner, not per job).
struct BatchOptions {
  /// Worker threads; 0 means hardware concurrency.
  unsigned threads = 0;

  /// Batch master seed; per-job coin seeds derive from it (job_coin_seed).
  std::uint64_t seed = 0;

  /// Retain the full ElectionReport of every job in BatchReport::reports.
  /// Off by default: condensed outcomes are enough for sweeps, and full
  /// reports keep schedules and per-iteration records alive.
  bool keep_reports = false;

  /// Capacity (entries) of the schedule/classification cache shared by all
  /// workers of a batch; 0 (the default) runs uncached.  Jobs that share a
  /// configuration — mutation sweeps, multi-protocol head-to-heads —
  /// classify once instead of once per job; outcomes are bit-identical
  /// either way (tests/test_schedule_cache.cpp).
  std::size_t cache_capacity = 0;

  /// Directory of a persistent on-disk artifact store (store/); empty (the
  /// default) runs without one.  When set, the per-batch cache becomes a
  /// two-tier store::TieredScheduleCache — memory tier sized by
  /// `cache_capacity` (or the cache default when 0) — so classifications
  /// and schedules survive the process and preload the next cold batch.
  /// Outcomes are bit-identical with the store on, off, or pre-populated.
  std::string store_directory = {};

  /// Simulation path; overrides any per-job simulator engine selection
  /// (jobs carrying a trace sink still run the scalar loop).
  EngineMode engine = EngineMode::Auto;

  /// Fault injected into every job of the batch (`arl sweep --fault=SPEC`).
  /// Per-job dice seeds derive from the batch master seed through the
  /// reserved fault stream (fault::job_fault_seed) — a pure function of
  /// (seed, job id), so faulted sweeps stay thread-count- and
  /// shard-invariant exactly like coin seeding.  The default `none` leaves
  /// every job byte-identical to a batch without the field.
  fault::FaultSpec fault = {};

  /// Optional per-job event trace (`arl sweep --trace=FILE`): every executed
  /// job emits one obs::TraceEvent — ids, fingerprints, disposition, and the
  /// per-phase durations its obs::JobFrame accumulated.  Not owned; must
  /// outlive every run.  Null (the default) traces nothing.  Purely
  /// observational: outcomes are bit-identical trace-on/off.
  obs::TraceSink* job_trace = nullptr;
};

/// Condensed outcome of one job (always recorded).
struct JobOutcome {
  JobId id = 0;
  core::ProtocolSpec protocol = {};        ///< the protocol that ran (protocol.name() to print)
  config::Fingerprint config_fingerprint = 0;  ///< config::fingerprint of the job's configuration
  core::Disposition disposition = core::Disposition::NotSimulated;
  graph::NodeId nodes = 0;                 ///< configuration size n
  config::Tag span = 0;                    ///< configuration span σ
  bool feasible = false;                   ///< Classifier verdict (canonical/classify only)
  bool simulated = false;                  ///< a protocol was executed on the simulator
  bool valid = false;                      ///< run_protocol() verification flag
  std::optional<graph::NodeId> leader = {};
  std::uint32_t classifier_iterations = 0;
  std::uint64_t classifier_steps = 0;
  std::uint64_t local_rounds = 0;
  config::Round global_rounds = 0;
  radio::RunStats stats;

  friend bool operator==(const JobOutcome& a, const JobOutcome& b) = default;
};

/// Per-protocol aggregate of a batch — one row of a head-to-head comparison.
struct ProtocolBreakdown {
  core::ProtocolSpec protocol = {};        ///< the spec this row aggregates
  std::uint64_t jobs = 0;
  std::uint64_t feasible = 0;              ///< feasible verdicts (canonical/classify)
  std::uint64_t valid = 0;                 ///< verification passed
  std::uint64_t elected = 0;               ///< Disposition::Elected
  std::uint64_t no_leader = 0;             ///< Disposition::NoLeader
  std::uint64_t failed = 0;                ///< Disposition::Failed
  std::uint64_t detected_fault = 0;        ///< Disposition::DetectedFault
  std::uint64_t total_local_rounds = 0;
  std::uint64_t max_local_rounds = 0;
  radio::RunStats stats;

  /// Mean election time across this protocol's jobs.
  [[nodiscard]] double average_local_rounds() const;

  friend bool operator==(const ProtocolBreakdown& a, const ProtocolBreakdown& b) = default;
};

/// Aggregated result of one batch.
struct BatchReport {
  /// Per-job outcomes in job-id order.  For a whole-batch run jobs[i].id ==
  /// i; for a run_range() shard the ids are the global ones, jobs[i].id ==
  /// begin + i, so shard reports from different processes can be merged
  /// without renumbering (see dist/merge.hpp).
  std::vector<JobOutcome> jobs;

  /// Per-protocol aggregates, ordered by first appearance in job-id order
  /// (deterministic, hence thread-count-invariant like everything else).
  std::vector<ProtocolBreakdown> by_protocol;

  /// Full reports, parallel to `jobs` (reports[i] belongs to jobs[i] — a
  /// range-local index, not the global job id); empty unless
  /// BatchOptions::keep_reports.
  std::vector<core::ElectionReport> reports;

  std::uint64_t feasible_count = 0;        ///< jobs with a feasible verdict
  std::uint64_t valid_count = 0;           ///< jobs whose verification passed
  std::uint64_t total_local_rounds = 0;    ///< sum of election times
  std::uint64_t max_local_rounds = 0;      ///< slowest election in the batch
  std::uint64_t total_global_rounds = 0;   ///< sum of global rounds executed
  radio::RunStats total_stats;             ///< channel statistics, summed

  /// The fault every job of this batch ran under (the effective
  /// BatchOptions/RunOverrides spec; `none` for an unfaulted batch).  Part
  /// of the batch's identity — merged shard reports must agree on it.
  fault::FaultSpec fault = {};
  double wall_millis = 0.0;                ///< wall time of the whole batch
  std::size_t threads_used = 1;            ///< workers actually spawned (<= pool size)

  /// Schedule-cache counters of this batch; nullopt when it ran uncached
  /// (BatchOptions::cache_capacity == 0).
  std::optional<ScheduleCacheStats> cache;

  /// Artifact-store counters of this batch (the disk tier's hits, saves and
  /// rejected files); nullopt unless BatchOptions::store_directory was set.
  /// Like `cache`, execution circumstance — never part of the merged wire
  /// format or of same_results().
  std::optional<store::ArtifactStoreStats> artifact_store;

  /// Per-phase timing of this batch: the growth of the process-wide
  /// obs::Registry between the batch's start and its last worker joining
  /// (the same delta-attribution idiom as ScheduleCacheStats::since).
  /// Execution circumstance like `cache` — never merged, never compared by
  /// same_results(), never serialized into the dist wire format.  Nullopt
  /// when the registry was disabled for the whole batch.
  std::optional<obs::MetricsSnapshot> phases;

  /// Jobs per second of wall time.
  [[nodiscard]] double throughput() const;

  /// Simulated node-rounds per second of wall time: throughput weighted by
  /// how much simulation each job actually executed, so sweeps over very
  /// different job sizes stay comparable.
  [[nodiscard]] double node_rounds_per_second() const;
};

/// Per-run deviations from a runner's BatchOptions, for callers that reuse
/// one runner (and its warm thread pool) across many differently-shaped
/// runs — the sweep service dispatches every request through one shared
/// BatchRunner this way.  Unset fields inherit the runner's options.
struct RunOverrides {
  std::optional<std::uint64_t> seed;    ///< batch master seed for this run
  std::optional<EngineMode> engine;     ///< simulation path for this run
  std::optional<fault::FaultSpec> fault;  ///< fault spec for this run
  /// Worker cap for this run (>= 1); the run uses min(pool size, job count,
  /// cap) workers.  Outcomes are thread-count-invariant, so this only
  /// shapes throughput.
  std::optional<std::size_t> max_threads;
  /// External schedule cache shared beyond this batch (e.g. the service's
  /// process-wide cache).  When set, the per-batch cache is not created,
  /// BatchOptions::cache_capacity is ignored, and BatchReport::cache stays
  /// unset — the cache's owner attributes stats across runs
  /// (ScheduleCacheStats::since).
  core::ScheduleCacheHandle* shared_cache = nullptr;
};

/// Runs batches of election jobs over an owned thread pool.
class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Number of worker threads in the pool.
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }

  /// Runs every job in `jobs`; jobs[i] gets job id i.
  [[nodiscard]] BatchReport run(const std::vector<BatchJob>& jobs);

  /// Runs jobs 0..count-1 produced on demand by `source`.
  [[nodiscard]] BatchReport run(JobId count, const JobSource& source);

  /// Runs the contiguous global-id range [begin, end) of a larger sweep: one
  /// shard of a distributed run.  Jobs keep their *global* ids — `source` is
  /// queried with them, per-job coin seeds derive from them, and the
  /// outcomes record them — so the union of shard reports over a partition
  /// of [0, count) is bit-identical to run(count, source) in one process
  /// (asserted by tests/test_dist.cpp).
  [[nodiscard]] BatchReport run_range(JobId begin, JobId end, const JobSource& source);

  /// run_range with per-run overrides (see RunOverrides).  Determinism is
  /// unchanged: outcomes depend on the effective seed and the job ids, never
  /// on the worker cap or where the cache lives.
  [[nodiscard]] BatchReport run_range(JobId begin, JobId end, const JobSource& source,
                                      const RunOverrides& overrides);

 private:
  template <typename Fetch>
  BatchReport run_batch(JobId begin, JobId end, const Fetch& fetch,
                        const RunOverrides& overrides);

  BatchOptions options_;
  support::ThreadPool pool_;
};

/// One-shot convenience: construct a runner, execute, return the report.
[[nodiscard]] BatchReport run_batch(const std::vector<BatchJob>& jobs, BatchOptions options = {});

/// Recomputes `report`'s aggregates (feasible/valid counts, round totals,
/// channel statistics, per-protocol breakdowns) from `report.jobs`, replacing
/// whatever was there.  The one aggregation fold in the repository: the
/// runner assembles every batch through it, and the distributed merge layer
/// reuses it so a merged report aggregates exactly like a single-process one.
void aggregate_outcomes(BatchReport& report);

/// True when two reports hold bit-identical *results*: the same per-job
/// outcomes and the same aggregates.  Execution circumstances — wall time,
/// worker count, cache counters, retained full reports — are deliberately
/// ignored: they describe how a batch ran, not what it computed, and the
/// sharded-vs-single contract (dist/) is stated over results only.
[[nodiscard]] bool same_results(const BatchReport& a, const BatchReport& b);

}  // namespace arl::engine
