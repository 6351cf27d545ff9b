#pragma once

/// \file bench_common.hpp
/// Shared scaffolding for the experiment benchmarks: every bench binary
/// first prints its experiment table (the paper-style rows recorded in
/// EXPERIMENTS.md) and then runs its google-benchmark timings.
///
/// Custom flags (parsed and stripped before benchmark::Initialize, which
/// rejects arguments it does not know):
///   --json-out=DIR   directory the BENCH_*.json trajectory snapshots are
///                    written into (default: the current directory)
///   --tables-only    print the experiment tables and exit without running
///                    the google-benchmark timed series (the CI preset)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "obs/json_snapshot.hpp"
#include "support/table.hpp"

namespace arl::benchsupport {

/// The custom bench flags, populated by ARL_BENCH_MAIN before the tables run.
struct BenchFlags {
  std::string json_out = ".";
  bool tables_only = false;
};

inline BenchFlags& flags() {
  static BenchFlags instance;
  return instance;
}

/// Consumes the flags this header owns from argv (so google-benchmark never
/// sees them) and records them in flags().
inline void strip_custom_flags(int& argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tables-only") {
      flags().tables_only = true;
    } else if (arg.rfind("--json-out=", 0) == 0) {
      flags().json_out = std::string(arg.substr(std::strlen("--json-out=")));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
}

/// Prints a titled markdown table to stdout.
inline void print_table(const std::string& title, const support::Table& table) {
  std::cout << "\n### " << title << "\n\n";
  table.print_markdown(std::cout);
  std::cout << std::flush;
}

/// The trajectory snapshot accumulator (now shared with the CLI's
/// --metrics-out writer; see src/obs/json_snapshot.hpp), re-exported with a
/// bench-flavoured `write(name)` that targets the --json-out directory.
class JsonSnapshot : public obs::JsonSnapshot {
 public:
  /// Writes `name` into the --json-out directory; warns instead of failing
  /// silently, because a missing snapshot reads as "no data" downstream.
  void write(const std::string& name) const { write_file(flags().json_out + "/" + name); }
};

/// The median of `values` (an odd count).
inline double median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

/// One engine's cache-warm cost on a fixed job set.
struct SteadyRun {
  double cold_millis = 0.0;    ///< the pass that filled the schedule cache
  double steady_millis = 0.0;  ///< fastest warm batch of `passes` passes
  engine::BatchReport report;  ///< the last warm batch
};

/// Times jobs [0, count) of `source` on one thread under `mode`.  A cold pass
/// fills a schedule cache; then `passes` passes over the same jobs run as
/// their own batch against it, repeated at least three times and until the
/// warm batches add up to half a second.  The fastest warm batch is the
/// steady cost: classification and compilation are cache hits, so it is the
/// simulate-bound part of a job, and the minimum is the repeat the host
/// disturbed least (a fast engine's batch lasts milliseconds, so it gets
/// many repeats).  Warm-pass jobs keep distinct ids (pass p re-runs job j
/// as id p * count + j), so coin and fault seeds differ per pass.
inline SteadyRun steady_run(engine::JobId count, const engine::JobSource& source, int passes,
                            engine::EngineMode mode, const fault::FaultSpec& fault = {}) {
  constexpr int kMinRepeats = 3;
  constexpr double kMinWarmMillis = 500.0;
  engine::ScheduleCache cache(engine::ScheduleCache::kDefaultCapacity);
  engine::RunOverrides overrides;
  overrides.shared_cache = &cache;
  engine::BatchRunner runner({.threads = 1, .engine = mode, .fault = fault});
  SteadyRun run;
  run.cold_millis = runner.run_range(0, count, source, overrides).wall_millis;
  const engine::JobSource warm = [&](engine::JobId id) { return source(id % count); };
  run.steady_millis = std::numeric_limits<double>::infinity();
  double warm_millis = 0.0;
  for (int repeat = 0; repeat < kMinRepeats || warm_millis < kMinWarmMillis; ++repeat) {
    run.report = runner.run_range(0, count * static_cast<engine::JobId>(passes), warm, overrides);
    warm_millis += run.report.wall_millis;
    run.steady_millis = std::min(run.steady_millis, run.report.wall_millis);
  }
  return run;
}

}  // namespace arl::benchsupport

/// Defines main(): emit the experiment tables, then run the timings.
#define ARL_BENCH_MAIN(print_tables_fn)                       \
  int main(int argc, char** argv) {                           \
    arl::benchsupport::strip_custom_flags(argc, argv);        \
    print_tables_fn();                                        \
    if (arl::benchsupport::flags().tables_only) {             \
      return 0;                                               \
    }                                                         \
    benchmark::Initialize(&argc, argv);                       \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) { \
      return 1;                                               \
    }                                                         \
    benchmark::RunSpecifiedBenchmarks();                      \
    benchmark::Shutdown();                                    \
    return 0;                                                 \
  }
