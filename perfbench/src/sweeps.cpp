/// \file sweeps.cpp
/// The three sweep workloads.  Each runs `arl sweep`'s defaults (cache off,
/// no store) on an `engine::BatchRunner` with two workers, in blocks of jobs
/// with consecutive global ids, until the timed window ends.
///
/// Every bounded figure is on the wall clock.  The window keeps a fixed
/// amount of state: the outcomes of a prefix of the jobs, and job latencies
/// in a buffer allocated and touched before it opens, so peak RSS does not
/// grow with the number of jobs a run completes.  The process's
/// CPU time and the machine's steal share are printed on stderr.

#include <algorithm>
#include <atomic>
#include <iostream>

#include "bench.hpp"
#include "core/classifier.hpp"
#include "core/fast_classifier.hpp"

namespace perfbench {

namespace {

struct SweepWorkload {
  const char* name;
  const char* workload;  ///< engine::parse_workload spelling
  core::ProtocolSpec protocol;
  const char* fault;            ///< fault::parse_fault spelling
  engine::JobId block;          ///< jobs per BatchRunner::run_range call
  engine::JobId replay_jobs;    ///< jobs the traced replay covers
};

const SweepWorkload kWorkloads[] = {
    {"canonical-sparse", "random:n=256,p=0.03,sigma=200", core::ProtocolSpec::canonical(), "none",
     64, 256},
    {"classify-large", "random:n=1024,p=0.01,sigma=200", core::ProtocolSpec::classify_only(),
     "none", 64, 192},
    {"canonical-drop", "random:n=256,p=0.03,sigma=200", core::ProtocolSpec::canonical(),
     "drop:0.02", 32, 96},
};

constexpr unsigned kWorkers = 2;
constexpr int kSetupRepeats = 101;
/// Jobs every run replays untraced to check its outcomes.
constexpr engine::JobId kSampleJobs = 16;
/// Configurations the lazy job source may be asked for (far beyond any run).
constexpr std::size_t kConfigurations = 1'000'000'000;
/// Job latencies a run records, at most (1 MiB, about 15 times what a
/// 20-second window fills today).
constexpr std::size_t kLatencySamples = std::size_t{1} << 17;

const SweepWorkload& find_workload(const std::string& name) {
  for (const SweepWorkload& workload : kWorkloads) {
    if (name == workload.name) {
      return workload;
    }
  }
  throw std::invalid_argument("unknown sweep workload " + name);
}

/// What a user pays before the first sweep: the workload's job stream and
/// a runner with a started thread pool.
struct Prepared {
  engine::CountedSweep sweep;
  std::unique_ptr<engine::BatchRunner> runner;
};

Prepared prepare(const SweepWorkload& workload, const RunSettings& settings,
                 const fault::FaultSpec& fault) {
  Prepared prepared;
  prepared.sweep = engine::parse_workload(workload.workload)
                       .instantiate(settings.seed, {workload.protocol}, {.count = kConfigurations});
  engine::BatchOptions options;
  options.threads = kWorkers;
  options.seed = settings.seed;
  options.fault = fault;
  prepared.runner = std::make_unique<engine::BatchRunner>(options);
  return prepared;
}

/// A job is accepted when the engine verified it.  Under an active fault a
/// detected fault is an expected outcome too; the sample replay then checks
/// it against the reference.
bool accepted(const engine::JobOutcome& outcome, const SweepWorkload& workload) {
  if (!workload.protocol.simulates()) {
    return outcome.valid && outcome.disposition == core::Disposition::NotSimulated;
  }
  if (outcome.disposition == core::Disposition::DetectedFault) {
    return std::string(workload.fault) != "none";
  }
  return outcome.valid && (outcome.disposition == core::Disposition::Elected ||
                           outcome.disposition == core::Disposition::NoLeader);
}

/// Index of the calling pool thread, assigned on first use.
std::uint32_t worker_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot = next.fetch_add(1);
  return slot;
}

/// One job fetch: a worker asks the source for its next job right after it
/// finished the previous one, so two consecutive fetches on one thread
/// bracket one job.
struct Fetch {
  std::uint32_t thread = 0;
  std::int64_t ns = 0;  ///< steady clock
};

/// Appends one block's job latencies in ms to `latencies_ms` while room is
/// left.  The last job of each thread ends inside the runner's join, where
/// no fetch marks it; it is left out rather than estimated.
void add_latencies(std::vector<Fetch>& fetches, std::vector<double>& latencies_ms,
                   std::size_t& recorded) {
  std::sort(fetches.begin(), fetches.end(), [](const Fetch& a, const Fetch& b) {
    return a.thread != b.thread ? a.thread < b.thread : a.ns < b.ns;
  });
  for (std::size_t i = 1; i < fetches.size() && recorded < latencies_ms.size(); ++i) {
    if (fetches[i].thread == fetches[i - 1].thread) {
      latencies_ms[recorded++] = static_cast<double>(fetches[i].ns - fetches[i - 1].ns) * 1e-6;
    }
  }
}

/// The engine's report of jobs [0, count) rebuilt from the timed outcomes.
engine::BatchReport prefix_report(const std::vector<engine::JobOutcome>& outcomes,
                                  engine::JobId count, const fault::FaultSpec& fault) {
  engine::BatchReport report;
  report.fault = fault;
  report.jobs.assign(outcomes.begin(), outcomes.begin() + static_cast<std::ptrdiff_t>(count));
  engine::aggregate_outcomes(report);
  return report;
}

}  // namespace

bool is_sweep_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const SweepWorkload& workload) { return name == workload.name; });
}

void run_sweep_workload(const RunSettings& settings, RunResult& result) {
  const SweepWorkload& workload = find_workload(settings.workload);
  const fault::FaultSpec fault = fault::parse_fault(workload.fault);
  const JobSettings job_settings{settings.seed, fault};

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const Prepared timed = prepare(workload, settings, fault);
    setups.push_back(seconds_since(start));
  }
  const Prepared prepared = prepare(workload, settings, fault);
  const engine::CountedSweep& sweep = prepared.sweep;
  std::cerr << "perfbench: inputs " << workload.name << " seed=" << settings.seed
            << " first-config-fingerprint="
            << config::fingerprint(sweep.source(0).configuration) << "\n";

  // ---- timed: blocks of jobs until the window ends.  The outcomes of the
  // first replay_jobs jobs are kept for the checks and the traced replay;
  // every later job is checked as its block returns and then dropped.
  const engine::JobId kept = workload.replay_jobs;
  std::vector<engine::JobOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(kept));
  std::vector<double> latencies_ms(kLatencySamples);
  std::size_t latency_count = 0;
  std::uint64_t later_jobs = 0;
  std::uint64_t later_rejected = 0;
  std::uint64_t detected = 0;
  engine::JobId block_begin = 0;
  std::vector<Fetch> fetches(workload.block);
  const engine::JobSource timed_source = [&](engine::JobId id) {
    fetches[static_cast<std::size_t>(id - block_begin)] = {worker_slot(), now_ns()};
    return sweep.source(id);
  };
  const CpuTicks ticks_before = read_cpu_ticks();
  const double cpu_before = process_cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(settings.seconds);
  while (std::chrono::steady_clock::now() < deadline || block_begin < kept) {
    const engine::BatchReport report =
        prepared.runner->run_range(block_begin, block_begin + workload.block, timed_source);
    for (const engine::JobOutcome& outcome : report.jobs) {
      detected += outcome.disposition == core::Disposition::DetectedFault ? 1 : 0;
      if (outcome.id < kept) {
        outcomes.push_back(outcome);
      } else {
        const bool in_order = outcome.id == kept + later_jobs;
        later_jobs += 1;
        later_rejected += accepted(outcome, workload) && in_order ? 0 : 1;
      }
    }
    add_latencies(fetches, latencies_ms, latency_count);
    block_begin += workload.block;
  }
  const double elapsed = seconds_since(start);
  const double cpu_seconds = process_cpu_seconds() - cpu_before;
  const double stolen = steal_share(ticks_before, read_cpu_ticks());
  const double rss = peak_rss_mb();
  latencies_ms.resize(latency_count);

  // ---- checks, outside the timed window
  if (outcomes.size() != kept) {
    result.check(false, "the timed run returned the wrong number of jobs");
    return;
  }
  std::vector<bool> ok(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ok[i] = accepted(outcomes[i], workload) && outcomes[i].id == i;
  }
  Replay sample_replay(nullptr, nullptr);
  engine::BatchReport reference =
      sample_replay.batch(sweep, 0, kSampleJobs, job_settings, 1);
  if (settings.corrupt_reference) {
    reference.jobs[0].feasible = !reference.jobs[0].feasible;
  }
  for (std::size_t i = 0; i < kSampleJobs; ++i) {
    ok[i] = ok[i] && outcomes[i] == reference.jobs[i];
  }
  if (!workload.protocol.simulates()) {
    // The decision algorithm against the hashed classifier on the sample.
    for (std::size_t i = 0; i < kSampleJobs; ++i) {
      const config::Configuration configuration = sweep.source(i).configuration;
      const core::ClassifierResult fast = core::FastClassifier().run(configuration);
      const core::ClassifierResult paper = core::Classifier().run(configuration);
      ok[i] = ok[i] && outcomes[i].feasible == fast.feasible() &&
              outcomes[i].classifier_iterations == fast.iterations &&
              paper.verdict == fast.verdict && paper.leader == fast.leader;
    }
  }
  for (const bool job_ok : ok) {
    result.count(job_ok);
  }
  result.count(later_jobs, later_rejected);

  const auto jobs = static_cast<double>(outcomes.size() + later_jobs);
  const double jobs_per_s = jobs / elapsed;
  std::cerr << "perfbench: " << jobs << " jobs (" << detected << " detected faults) in "
            << elapsed << " s wall: " << jobs_per_s << " jobs/s; " << cpu_seconds << " s CPU ("
            << jobs / (cpu_seconds / kWorkers) << " jobs per CPU-second per worker), "
            << stolen * 100 << "% of busy CPU time stolen; job latency over " << latencies_ms.size()
            << " samples, p99 has " << beyond_p99(latencies_ms.size()) << " beyond it\n";

  if (!settings.trace) {
    result.add("jobs_per_s", jobs_per_s, "1/s");
    result.add("request_ms_p50", percentile(latencies_ms, 0.50), "ms");
    result.add("peak_rss_mb", rss, "MB");
    result.add("setup_s", median(setups), "s");
    return;
  }
  result.add("request_ms_p99", percentile(latencies_ms, 0.99), "ms");
  result.add("host.steal_share", stolen, "ratio");

  // ---- traced: the first replay_jobs jobs on one thread, untraced once and
  // traced twice; only the tracer differs between the passes.
  const engine::JobId replayed = workload.replay_jobs;
  Replay untraced_replay(nullptr, nullptr);
  const auto untraced_start = std::chrono::steady_clock::now();
  const engine::BatchReport untraced = untraced_replay.batch(sweep, 0, replayed, job_settings, 1);
  const double untraced_seconds = seconds_since(untraced_start);
  Tracer first_tracer;
  Replay first(&first_tracer, nullptr);
  const engine::BatchReport traced = first.batch(sweep, 0, replayed, job_settings, 1);
  Tracer second_tracer;
  Replay second(&second_tracer, nullptr);
  const engine::BatchReport traced_again = second.batch(sweep, 0, replayed, job_settings, 1);

  result.check(engine::same_results(traced, prefix_report(outcomes, replayed, fault)),
               "traced replay outcomes differ from the timed run's");
  result.check(engine::same_results(traced, untraced),
               "traced replay outcomes differ from the untraced replay's");
  result.check(engine::same_results(traced, traced_again), "two traced replays differ");
  check_counters_repeat(result, first.counters(), second.counters());
  check_counters_repeat(result, first.counters(), untraced_replay.counters());
  first_tracer.write(settings.trace_dir + "/" + workload.name + "-seed" +
                     std::to_string(settings.seed) + ".spans.tsv");
  add_layer_metrics(result, first_tracer, first.counters(), untraced_seconds, {});
}

}  // namespace perfbench
