#pragma once

/// \file bench.hpp
/// Shared pieces of the perfbench program: run settings, the result object
/// printed as the last line of standard output, the in-memory span tracer,
/// and the layer-by-layer replay that the traced runs and the output checks
/// drive.
///
/// The benchmark only calls the library's public entry points.  Untraced
/// runs go through `engine::BatchRunner` (sweeps) or an in-process
/// `serve::SweepServer` with `serve::Client` connections (serve-mixed).  The
/// replay calls each layer's public function in the order the product calls
/// them, with the same options `engine::BatchRunner` sets, and wraps every
/// call in a span owned by this benchmark.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/election.hpp"
#include "dist/report_io.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "serve/serve_proto.hpp"
#include "store/tiered_cache.hpp"

namespace perfbench {

namespace config = arl::config;
namespace core = arl::core;
namespace dist = arl::dist;
namespace engine = arl::engine;
namespace fault = arl::fault;
namespace graph = arl::graph;
namespace radio = arl::radio;
namespace serve = arl::serve;
namespace store = arl::store;
namespace support = arl::support;

/// Command-line settings of one benchmark run.
struct RunSettings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupts one reference outcome, so the run must report
  /// a failed operation and exit non-zero.
  bool corrupt_reference = false;
  /// Directory for spans written at the end of a traced run.
  std::string trace_dir = ".";
};

/// The result object: `correct`, `attempted`, `failed` and the metrics.
class RunResult {
 public:
  void add(const std::string& name, double value, const std::string& unit);

  /// Counts one operation and, when `ok` is false, one failure.
  void count(bool ok) { count(1, ok ? 0 : 1); }

  /// Counts `attempted` operations of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Records a failed check that is not an operation (a trace mismatch, a
  /// counter that did not repeat); the run is then incorrect.
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }

  /// The one-line JSON object.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Seconds elapsed since `start` on the steady clock.
[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point start);

/// The steady clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// The nearest-rank percentile `q` in (0, 1] of `values` (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// How many of `samples` values lie beyond the nearest-rank p99.
[[nodiscard]] std::size_t beyond_p99(std::size_t samples);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// `numerator / denominator`, or 0 when the denominator is 0.
[[nodiscard]] double ratio(double numerator, double denominator);

/// CPU time this process has run, summed over its threads, in seconds.
[[nodiscard]] double process_cpu_seconds();

/// Machine-wide busy and stolen CPU time from /proc/stat, in clock ticks.
/// On a virtual machine the hypervisor steals time from vCPUs that want to
/// run, including the wait to wake a halted vCPU.  On a shared host its
/// share moves from run to run and explains much of the spread of
/// wall-clock figures.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();

/// Share of the busy time between two readings that was stolen (0 when
/// /proc/stat is unavailable).
[[nodiscard]] double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Spans kept in memory: name, start, end, parent span and the job or
/// request id.  A null tracer makes every Scope inert, so the replay code is
/// the same traced and untraced.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t item = 0;
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t item = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  /// Self time per span name in seconds: each span's duration minus the
  /// durations of its direct children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Summed duration per span name, in seconds.
  [[nodiscard]] std::map<std::string, double> total_seconds() const;

  /// Summed duration of the root spans, in seconds.
  [[nodiscard]] double root_seconds() const;

  /// Writes every span as a tab-separated line.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// Exact work counters of a replay.  Every field is a pure function of the
/// replayed jobs, so two replays of the same jobs must agree bit for bit.
struct WorkCounters {
  std::uint64_t jobs = 0;
  std::uint64_t configs = 0;       ///< distinct configurations replayed
  std::uint64_t source_calls = 0;  ///< CountedSweep::source calls
  std::uint64_t edges = 0;         ///< edges of every generated graph
  std::uint64_t classify_calls = 0;
  std::uint64_t classify_iterations = 0;
  std::uint64_t classify_steps = 0;
  std::uint64_t compile_calls = 0;
  std::uint64_t compile_rounds = 0;  ///< CanonicalSchedule::total_rounds, summed
  std::uint64_t simulated_jobs = 0;
  std::uint64_t node_rounds = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t global_rounds = 0;
  std::uint64_t injected = 0;  ///< injected fault events
  std::uint64_t detected = 0;  ///< jobs ending in Disposition::DetectedFault
  std::uint64_t store_loads = 0;       ///< ArtifactStore::load calls
  std::uint64_t store_save_calls = 0;  ///< ArtifactStore::save calls
  std::uint64_t store_saves = 0;       ///< saves that wrote an entry file
  std::uint64_t store_bytes = 0;  ///< bytes of the entry files saved
  std::uint64_t wire_jobs = 0;
  std::uint64_t wire_job_bytes = 0;  ///< bytes of the `job` lines serialized

  friend bool operator==(const WorkCounters& a, const WorkCounters& b) = default;
};

/// Seed and fault of the jobs a replay runs (the BatchRunner options that
/// shape outcomes).
struct JobSettings {
  std::uint64_t seed = 0;
  fault::FaultSpec fault = {};
};

/// Replays jobs one layer call at a time on the calling thread.
class Replay {
 public:
  /// `tracer` and `cache` may be null (untraced; no schedule cache).
  Replay(Tracer* tracer, store::TieredScheduleCache* cache);

  /// Runs jobs [begin, end) of `sweep` and aggregates them like
  /// BatchRunner::run_range; `protocols` is the sweep's protocols per
  /// configuration.
  [[nodiscard]] engine::BatchReport batch(const engine::CountedSweep& sweep, engine::JobId begin,
                                          engine::JobId end, const JobSettings& settings,
                                          std::size_t protocols);

  /// Executes one sweep request the way the daemon does, without the
  /// socket: instantiate, run, serialize the shard report, parse it back.
  [[nodiscard]] dist::ShardReport request(const serve::SweepRequest& request,
                                          std::uint64_t request_id);

  [[nodiscard]] const WorkCounters& counters() const { return counters_; }

 private:
  [[nodiscard]] engine::JobOutcome job(const engine::CountedSweep& sweep, engine::JobId id,
                                       const JobSettings& settings);
  [[nodiscard]] std::shared_ptr<const core::CompiledConfiguration> compile(
      const config::Configuration& configuration, const core::ElectionOptions& options,
      bool need_schedule);
  [[nodiscard]] core::ClassifierResult classify(const config::Configuration& configuration,
                                                const core::ElectionOptions& options);

  Tracer* tracer_;
  store::TieredScheduleCache* cache_;
  radio::SimulatorScratch scratch_;
  WorkCounters counters_;
};

/// The sweep identity the daemon writes into a request's shard report.
[[nodiscard]] dist::SweepKey sweep_key(const serve::SweepRequest& request,
                                       engine::JobId total_jobs);

/// Bytes of the `job` lines of a serialized shard report.
[[nodiscard]] std::uint64_t job_line_bytes(const std::string& report);

/// The serve-mixed request classes, in the order of RequestClass.
inline constexpr std::array<const char*, 3> kRequestClassNames = {"memory_hit", "store_load",
                                                                   "new"};

/// Counters the untraced daemon of serve-mixed reports; all zero for the
/// sweep workloads, which run without a daemon, cache or store.
struct DaemonCounters {
  std::uint64_t requests = 0;  ///< requests the timed run completed
  /// Median client latency in ms of each request class of the timed run.
  std::array<double, kRequestClassNames.size()> class_ms_p50 = {};
  engine::ScheduleCacheStats cache;
  store::ArtifactStoreStats store;
  serve::ServerStats server;
};

/// Per-layer metrics every traced run prints, computed from one traced
/// replay's self times and counters, the untraced wall time of the same
/// jobs, and the daemon's counters.  Layers a workload does not exercise
/// read 0.
void add_layer_metrics(RunResult& result, const Tracer& tracer, const WorkCounters& counters,
                       double untraced_seconds, const DaemonCounters& daemon);

/// The exact counters of two traced replays must repeat bit for bit.
void check_counters_repeat(RunResult& result, const WorkCounters& first,
                           const WorkCounters& second);

/// Runs one sweep workload (canonical-sparse, classify-large, canonical-drop).
void run_sweep_workload(const RunSettings& settings, RunResult& result);

/// Runs the serve-mixed workload.
void run_serve_workload(const RunSettings& settings, RunResult& result);

/// True for the workload names this benchmark defines.
[[nodiscard]] bool is_sweep_workload(const std::string& name);

}  // namespace perfbench
