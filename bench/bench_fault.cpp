/// \file bench_fault.cpp
/// E9 — robustness trajectory: canonical-DRIP survival curves under the
/// fault registry's adversaries.  A fixed workload is swept under rising
/// drop probabilities (and a crash-count curve), recording how many
/// elections still verify, how many are attributed to the injected fault,
/// and how many events each adversary landed — all pure functions of the
/// fixed seeds, so every field in BENCH_E9.json is exact-match material
/// for tools/bench_gate — except `faulted_speedup`, the event-driven fast
/// path's cache-warm advantage over the scalar loop on a drop:0.02 sweep,
/// which the gate holds to its tolerance.  The survival curves run on the
/// fast path.  The timed series measures faulted sweeps' throughput against
/// the unfaulted sweep.

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/protocol.hpp"
#include "engine/batch_runner.hpp"
#include "engine/sweep.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "support/table.hpp"

namespace {

using namespace arl;

constexpr std::uint64_t kSeed = 41;
constexpr engine::JobId kJobs = 100;
const char* const kWorkload = "random:n=16,p=0.3,sigma=3";

// The faulted-speedup series: the perfbench canonical-sparse shape.
const std::string kFaultedWorkload = "random:n=256,p=0.03,sigma=200";
constexpr engine::JobId kFaultedConfigs = 8;
constexpr int kFaultedPasses = 3;

engine::CountedSweep e9_sweep() {
  return engine::parse_workload(kWorkload).instantiate(
      kSeed, {core::ProtocolSpec::canonical()}, {.count = kJobs});
}

engine::BatchReport run_under(const fault::FaultSpec& fault, unsigned threads = 0) {
  const engine::CountedSweep sweep = e9_sweep();
  engine::BatchRunner runner({.threads = threads, .seed = kSeed, .fault = fault});
  return runner.run(sweep.count, sweep.source);
}

void print_e9_table() {
  // The survival curves: the same 100 canonical elections under each
  // adversary.  Every row is deterministic — seeds are fixed, injected
  // events are pure functions of (seed, round, node), and the engine is
  // thread-count-invariant (asserted below and gated in the snapshot).
  struct Curve {
    std::string slug;
    fault::FaultSpec spec;
  };
  std::vector<Curve> curves;
  for (const double p : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    std::string slug = "drop_" + fault::FaultSpec::drop(p).name().substr(5);
    for (char& c : slug) {
      if (c == '.') {
        c = '_';
      }
    }
    curves.push_back({slug, fault::FaultSpec::drop(p)});
  }
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    curves.push_back({"crash_" + std::to_string(k), fault::FaultSpec::crash(k)});
  }
  curves.push_back({"wake_8", fault::FaultSpec::adversarial_wake(8)});

  benchsupport::JsonSnapshot snapshot;
  snapshot.add("bench", std::string("E9"));
  snapshot.add("workload", std::string(kWorkload));
  snapshot.add("jobs", static_cast<std::uint64_t>(kJobs));

  support::Table table({"fault", "jobs", "survived", "detected", "drops", "corruptions",
                        "crashes", "delayed wakes"});
  for (const Curve& curve : curves) {
    const engine::BatchReport report = run_under(curve.spec);
    std::uint64_t detected = 0;
    for (const engine::JobOutcome& job : report.jobs) {
      detected += job.disposition == core::Disposition::DetectedFault ? 1 : 0;
    }
    const radio::RunStats& stats = report.total_stats;
    table.add_row({curve.spec.name(), static_cast<std::int64_t>(report.jobs.size()),
                   static_cast<std::int64_t>(report.valid_count),
                   static_cast<std::int64_t>(detected),
                   static_cast<std::int64_t>(stats.injected_drops),
                   static_cast<std::int64_t>(stats.injected_corruptions),
                   static_cast<std::int64_t>(stats.injected_crashes),
                   static_cast<std::int64_t>(stats.delayed_wakeups)});
    snapshot.add(curve.slug + "_survived", report.valid_count);
    snapshot.add(curve.slug + "_detected", detected);
    snapshot.add(curve.slug + "_injected",
                 stats.injected_drops + stats.injected_corruptions + stats.injected_crashes +
                     stats.delayed_wakeups);
  }
  benchsupport::print_table(
      "E9 — canonical-DRIP survival under the fault registry's adversaries", table);

  // Determinism cross-checks, gated exactly: a faulted sweep replays
  // bit-identically on 1 vs 8 threads, and drop:0 runs the unfaulted path.
  const engine::BatchReport one = run_under(fault::FaultSpec::drop(0.1), 1);
  const engine::BatchReport eight = run_under(fault::FaultSpec::drop(0.1), 8);
  snapshot.add("thread_invariant", engine::same_results(one, eight));
  const engine::BatchReport none = run_under(fault::FaultSpec::none(), 1);
  const engine::BatchReport zero = run_under(fault::FaultSpec::drop(0.0), 1);
  snapshot.add("inert_drop_matches_none",
               none.jobs == zero.jobs && none.total_stats == zero.total_stats);

  // Faulted runs on the fast path: a drop:0.02 sweep at the canonical-sparse
  // shape, cache-warm (benchsupport::steady_run), on the scalar reference
  // loop and on the event-driven engine.  Outcomes — injected drops
  // included — must be identical; the speedup is the gated trajectory.
  const fault::FaultSpec drop = fault::FaultSpec::drop(0.02);
  const engine::WorkloadSpec workload = engine::parse_workload(kFaultedWorkload);
  const std::vector<core::ProtocolSpec> protocols = {core::ProtocolSpec::canonical()};
  const auto sweep = workload.instantiate(kSeed, protocols, {.count = kFaultedConfigs});
  const auto steady = [&](engine::EngineMode mode) {
    return benchsupport::steady_run(sweep.count, sweep.source, kFaultedPasses, mode, drop);
  };
  const benchsupport::SteadyRun scalar = steady(engine::EngineMode::Scalar);
  const benchsupport::SteadyRun fast = steady(engine::EngineMode::Wavefront);
  const bool identical = engine::same_results(scalar.report, fast.report);
  const double speedup = scalar.steady_millis / fast.steady_millis;
  support::Table speed({"engine", "steady ms", "drops", "speedup", "identical outcomes"});
  speed.set_precision(3);
  speed.add_row({std::string("scalar"), scalar.steady_millis,
                 static_cast<std::int64_t>(scalar.report.total_stats.injected_drops), 1.0,
                 std::string("-")});
  speed.add_row({std::string("event-driven"), fast.steady_millis,
                 static_cast<std::int64_t>(fast.report.total_stats.injected_drops), speedup,
                 std::string(identical ? "yes" : "NO (BUG)")});
  const std::string sweep_name = drop.name() + " over " + kFaultedWorkload;
  benchsupport::print_table("E9 — faulted " + sweep_name + ": scalar vs event-driven", speed);
  snapshot.add("faulted_identical_outcomes", identical);
  snapshot.add("faulted_speedup", speedup);
  snapshot.add("faulted_scalar_steady_ms", scalar.steady_millis);
  snapshot.add("faulted_fast_steady_ms", fast.steady_millis);

  snapshot.write("BENCH_E9.json");
}

// ---------------------------------------------------------- timed series

void bm_sweep_under(benchmark::State& state, const fault::FaultSpec& fault) {
  const engine::CountedSweep sweep = e9_sweep();
  engine::BatchRunner runner({.threads = 1, .seed = kSeed, .fault = fault});
  for (auto _ : state) {
    const engine::BatchReport report = runner.run(sweep.count, sweep.source);
    benchmark::DoNotOptimize(report.total_stats.node_rounds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kJobs);
}

void BM_UnfaultedSweep(benchmark::State& state) {
  bm_sweep_under(state, fault::FaultSpec::none());
}
BENCHMARK(BM_UnfaultedSweep)->Unit(benchmark::kMillisecond);

void BM_DropSweep(benchmark::State& state) {
  bm_sweep_under(state, fault::FaultSpec::drop(0.1));
}
BENCHMARK(BM_DropSweep)->Unit(benchmark::kMillisecond);

void BM_CrashSweep(benchmark::State& state) {
  bm_sweep_under(state, fault::FaultSpec::crash(2));
}
BENCHMARK(BM_CrashSweep)->Unit(benchmark::kMillisecond);

}  // namespace

ARL_BENCH_MAIN(print_e9_table)
