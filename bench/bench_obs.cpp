/// \file bench_obs.cpp
/// E8 — observability overhead: the same classification+election sweep runs
/// with the metrics registry enabled (the default) and disabled, in 121
/// adjacent off/on pass pairs.  The tracked perf invariant is the median of
/// the per-pair off/on wall-time ratios (BENCH_E8.json, gated in CI by
/// tools/bench_gate with --tolerance=0.03): instrumentation may cost at most
/// the gate tolerance.
/// The instrumented pass also pins down the phase span *counts*, which are
/// workload facts — deterministic at threads=1 — and therefore exact-match
/// gated; wall times are machine facts, printed but not gated.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

using namespace arl;

constexpr const char* kWorkload = "random:n=24,p=0.25,sigma=6";
constexpr std::uint64_t kCount = 300;  // configurations
constexpr std::uint64_t kSeed = 9;
// Adjacent off/on passes; the gate reads the median ratio.  Metrics cost
// about 1 % of a job, so the median needs enough pairs to keep host noise
// well inside the gate's 3 %; a pass takes about 6 ms.
constexpr int kPairs = 121;

engine::CountedSweep e8_sweep() {
  return engine::parse_workload(kWorkload).instantiate(
      kSeed, {core::ProtocolSpec::canonical()}, {.count = kCount});
}

engine::BatchOptions e8_options() {
  engine::BatchOptions options;
  options.threads = 1;  // timings compare instrumentation, not pool sizes
  options.seed = kSeed;
  return options;
}

/// One timed pass of the sweep under the given registry mode; `out`
/// receives the run's report (every pass of one mode is identical — same
/// seed, same jobs).
double one_pass_ms(bool metrics_on, engine::BatchReport& out) {
  obs::Registry::global().set_enabled(metrics_on);
  const engine::CountedSweep sweep = e8_sweep();
  engine::BatchRunner runner(e8_options());
  support::Stopwatch watch;
  out = runner.run(sweep.count, sweep.source);
  return watch.millis();
}

void print_e8_table() {
  // Warm-up pass (page cache, allocator) outside both timed arms.
  engine::BatchReport warmup;
  (void)one_pass_ms(true, warmup);

  // Each pair times the two arms back to back, so slow drift on a shared
  // machine (CPU frequency, background load) hits both alike, and which arm
  // runs first alternates pair by pair, so neither always runs second.  The
  // median of the per-pair ratios then drops the pairs a burst of noise
  // hit.
  engine::BatchReport off_report;
  engine::BatchReport on_report;
  std::vector<double> off_times;
  std::vector<double> on_times;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double off = 0.0;
    double on = 0.0;
    if (pair % 2 == 0) {
      off = one_pass_ms(false, off_report);
      on = one_pass_ms(true, on_report);
    } else {
      on = one_pass_ms(true, on_report);
      off = one_pass_ms(false, off_report);
    }
    off_times.push_back(off);
    on_times.push_back(on);
    ratios.push_back(on > 0.0 ? off / on : 1.0);
  }
  obs::Registry::global().set_enabled(true);  // restore the process default
  const double off_ms = benchsupport::median(off_times);
  const double on_ms = benchsupport::median(on_times);

  const bool identical = engine::same_results(on_report, off_report);
  if (!on_report.phases || off_report.phases) {
    throw std::runtime_error(
        "bench_obs: expected phase timings exactly on the instrumented run");
  }
  const obs::MetricsSnapshot& phases = *on_report.phases;
  const double raw_speedup = benchsupport::median(ratios);
  // The committed invariant is "metrics cost at most the gate tolerance",
  // not "this machine ran faster with metrics on today" — clamp the gated
  // ratio at 1.0 so a lucky committed run cannot tighten the gate.
  const double gated_speedup = std::min(raw_speedup, 1.0);

  const std::string wall = "wall ms (median of " + std::to_string(kPairs) + ")";
  support::Table table({"mode", wall, "jobs", "jobs/s"});
  const auto row = [&](const std::string& mode, double ms, const engine::BatchReport& r) {
    table.add_row({mode, ms, static_cast<std::int64_t>(r.jobs.size()),
                   static_cast<double>(r.jobs.size()) / (ms / 1e3)});
  };
  row("metrics off", off_ms, off_report);
  row("metrics on", on_ms, on_report);
  benchsupport::print_table("E8: observability overhead (" + std::string(kWorkload) + " x " +
                                std::to_string(kCount) + ", canonical)",
                            table);

  support::Table spans({"phase", "spans", "total ms"});
  for (const obs::Phase phase : obs::all_phases()) {
    const obs::HistogramSnapshot& histogram = phases[phase];
    if (histogram.count() == 0) {
      continue;
    }
    spans.add_row({std::string(obs::phase_name(phase)),
                   static_cast<std::int64_t>(histogram.count()),
                   static_cast<double>(histogram.total) / 1e6});
  }
  benchsupport::print_table("E8: instrumented phase spans (one sweep)", spans);
  std::cout << "\nmetrics-on throughput ratio (median of " << kPairs << " pairs): " << raw_speedup
            << " (1.0 = free); outcomes identical: " << (identical ? "yes" : "no") << "\n";

  benchsupport::JsonSnapshot snapshot;
  snapshot.add("bench", std::string("E8"));
  snapshot.add("workload", std::string(kWorkload));
  snapshot.add("configurations", kCount);
  snapshot.add("total_jobs", static_cast<std::uint64_t>(on_report.jobs.size()));
  snapshot.add("identical_outcomes", identical);
  snapshot.add("e8_phase_classify_count", phases[obs::Phase::Classify].count());
  snapshot.add("e8_phase_schedule_compile_count", phases[obs::Phase::ScheduleCompile].count());
  snapshot.add("e8_phase_simulate_count", phases[obs::Phase::Simulate].count());
  snapshot.add("e8_metrics_on_speedup", gated_speedup);
  snapshot.add("on_wall_ms", on_ms);
  snapshot.add("off_wall_ms", off_ms);
  snapshot.add("on_jobs_per_s",
               static_cast<double>(on_report.jobs.size()) / (on_ms / 1e3));
  snapshot.write("BENCH_E8.json");
}

// ------------------------------------------------------- timed micro-series

/// The hot-path cost a single span pays: one histogram record.
void BM_HistogramRecord(benchmark::State& state) {
  obs::LatencyHistogram histogram;
  std::uint64_t value = 1;
  for (auto _ : state) {
    histogram.record(value);
    value = value * 2862933555777941757ull + 3037000493ull;  // spread the buckets
  }
  benchmark::DoNotOptimize(histogram.snapshot().count());
}
BENCHMARK(BM_HistogramRecord);

/// A full span: two steady_clock reads plus the record.
void BM_PhaseTimerEnabled(benchmark::State& state) {
  obs::Registry registry;
  registry.set_enabled(true);
  for (auto _ : state) {
    const obs::PhaseTimer timer(obs::Phase::Simulate, registry);
    benchmark::DoNotOptimize(&timer);
  }
  benchmark::DoNotOptimize(registry.snapshot().empty());
}
BENCHMARK(BM_PhaseTimerEnabled);

/// The disabled-registry span: no clock reads, no records — the price every
/// instrumented call site pays when observability is off.
void BM_PhaseTimerDisabled(benchmark::State& state) {
  obs::Registry registry;
  registry.set_enabled(false);
  for (auto _ : state) {
    const obs::PhaseTimer timer(obs::Phase::Simulate, registry);
    benchmark::DoNotOptimize(&timer);
  }
}
BENCHMARK(BM_PhaseTimerDisabled);

/// Snapshot + merge across shards, the `arl stats` / drain-summary path.
void BM_SnapshotAndMerge(benchmark::State& state) {
  obs::Registry registry;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    registry.record(obs::Phase::Simulate, i * 977);
    registry.record(obs::Phase::Classify, i * 131);
  }
  const obs::MetricsSnapshot base = registry.snapshot();
  for (auto _ : state) {
    obs::MetricsSnapshot merged = registry.snapshot();
    merged.merge(base);
    benchmark::DoNotOptimize(merged[obs::Phase::Simulate].count());
  }
}
BENCHMARK(BM_SnapshotAndMerge);

void print_tables() { print_e8_table(); }

}  // namespace

ARL_BENCH_MAIN(print_tables)
