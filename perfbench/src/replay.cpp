#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "config/fingerprint.hpp"
#include "core/canonical_drip.hpp"
#include "core/classifier.hpp"
#include "core/fast_classifier.hpp"
#include "core/schedule.hpp"
#include "radio/simulator.hpp"

namespace perfbench {

namespace {

std::string format_number(double value) {
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return error == std::errc() ? std::string(buffer, end) : std::string("0");
}

std::uint64_t injected_events(const radio::RunStats& stats) {
  return stats.injected_drops + stats.injected_corruptions + stats.injected_crashes +
         stats.delayed_wakeups;
}

}  // namespace

// ------------------------------------------------------------------ results

void RunResult::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
}

std::string RunResult::json() const {
  // A run that attempted nothing is itself a failure; the contract still
  // wants attempted >= 1.
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  const std::uint64_t failed = attempted_ == 0 ? 1 : failed_;
  std::string out = "{\"correct\": ";
  out += correct() && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + format_number(metrics_[i].value) +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::size_t beyond_p99(std::size_t samples) {
  return samples - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(samples)));
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double process_cpu_seconds() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

CpuTicks read_cpu_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t field[8] = {};
  stat >> label;
  for (std::uint64_t& value : field) {
    stat >> value;
  }
  if (!stat || label != "cpu") {
    return {};
  }
  return {field[0] + field[1] + field[2] + field[5] + field[6], field[7]};
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const auto busy = static_cast<double>(after.busy - before.busy);
  const auto steal = static_cast<double>(after.steal - before.steal);
  return ratio(steal, busy + steal);
}

// ------------------------------------------------------------------- tracer

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t item) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  Span span;
  span.name = name;
  span.parent = tracer_->open_;
  span.item = item;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_ = index_;
  tracer_->spans_[static_cast<std::size_t>(index_)].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  const std::int64_t end = now_ns();
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = end;
  tracer_->open_ = span.parent;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> children(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                                children[i]) * 1e-9;
  }
  return self;
}

std::map<std::string, double> Tracer::total_seconds() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) {
    total[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return total;
}

double Tracer::root_seconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return total;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "span\tname\tstart_ns\tend_ns\tparent\titem\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
        << span.parent << '\t' << span.item << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write spans to " + path);
  }
}

// ------------------------------------------------------------------- replay

Replay::Replay(Tracer* tracer, store::TieredScheduleCache* cache)
    : tracer_(tracer), cache_(cache) {}

engine::BatchReport Replay::batch(const engine::CountedSweep& sweep, engine::JobId begin,
                                  engine::JobId end, const JobSettings& settings,
                                  std::size_t protocols) {
  const auto start = std::chrono::steady_clock::now();
  engine::BatchReport report;
  {
    const Tracer::Scope span(tracer_, "batch", begin);
    report.fault = settings.fault;
    report.jobs.reserve(static_cast<std::size_t>(end - begin));
    for (engine::JobId id = begin; id < end; ++id) {
      report.jobs.push_back(job(sweep, id, settings));
    }
    const Tracer::Scope aggregate(tracer_, "aggregate", begin);
    engine::aggregate_outcomes(report);
  }
  counters_.configs += (end - begin) / protocols;
  report.threads_used = 1;
  report.wall_millis = seconds_since(start) * 1e3;
  return report;
}

core::ClassifierResult Replay::classify(const config::Configuration& configuration,
                                        const core::ElectionOptions& options) {
  core::ClassifierResult result;
  {
    const Tracer::Scope span(tracer_, "classify");
    result = options.use_fast_classifier
                 ? core::FastClassifier(options.channel_model).run(configuration)
                 : core::Classifier(options.channel_model).run(configuration);
  }
  counters_.classify_calls += 1;
  counters_.classify_iterations += result.iterations;
  counters_.classify_steps += result.steps;
  return result;
}

std::shared_ptr<const core::CompiledConfiguration> Replay::compile(
    const config::Configuration& configuration, const core::ElectionOptions& options,
    bool need_schedule) {
  const radio::ChannelModel model = options.channel_model;
  const bool fast = options.use_fast_classifier;
  core::CompiledConfiguration fresh;
  std::shared_ptr<const core::CompiledConfiguration> compiled;
  if (cache_ != nullptr) {
    // The tiered cache's lookup, one tier at a time: memory, then the store
    // with promotion of a verified disk hit.
    {
      const Tracer::Scope span(tracer_, "cache.lookup");
      compiled = cache_->memory().lookup(configuration, model, fast);
    }
    if (compiled == nullptr) {
      std::shared_ptr<const core::CompiledConfiguration> loaded;
      {
        const Tracer::Scope span(tracer_, "store.load");
        loaded = cache_->artifacts().load(configuration, model, fast);
      }
      counters_.store_loads += 1;
      if (loaded != nullptr) {
        const Tracer::Scope span(tracer_, "cache.promote");
        compiled = cache_->memory().store(configuration, model, fast, *loaded);
      }
    }
    if (compiled != nullptr && (!need_schedule || compiled->schedule != nullptr)) {
      return compiled;
    }
  }

  fresh.classification =
      compiled != nullptr ? compiled->classification : classify(configuration, options);
  if (need_schedule) {
    {
      const Tracer::Scope span(tracer_, "compile");
      fresh.schedule = std::make_shared<const core::CanonicalSchedule>(
          core::build_schedule(configuration, fresh.classification));
    }
    counters_.compile_calls += 1;
    counters_.compile_rounds += fresh.schedule->total_rounds();
  }
  if (cache_ == nullptr) {
    return std::make_shared<const core::CompiledConfiguration>(std::move(fresh));
  }

  std::shared_ptr<const core::CompiledConfiguration> stored;
  {
    const Tracer::Scope span(tracer_, "cache.store");
    stored = cache_->memory().store(configuration, model, fast, std::move(fresh));
  }
  const std::uint64_t saves_before = cache_->artifacts().stats().saves;
  {
    const Tracer::Scope span(tracer_, "store.save");
    cache_->artifacts().save(configuration, model, fast, *stored);
  }
  counters_.store_save_calls += 1;
  if (cache_->artifacts().stats().saves > saves_before) {
    counters_.store_saves += 1;
    counters_.store_bytes +=
        std::filesystem::file_size(cache_->artifacts().entry_path(configuration, model, fast));
  }
  return stored;
}

engine::JobOutcome Replay::job(const engine::CountedSweep& sweep, engine::JobId id,
                               const JobSettings& settings) {
  const Tracer::Scope span(tracer_, "job", id);
  const engine::BatchJob job = [&] {
    const Tracer::Scope generate(tracer_, "generate", id);
    return sweep.source(id);
  }();
  const config::Configuration& configuration = job.configuration;
  counters_.jobs += 1;
  counters_.source_calls += 1;
  counters_.edges += configuration.graph().edge_count();
  if (!job.protocol.classifies()) {
    throw std::runtime_error("the replay runs only the classifying protocols");
  }

  // The options engine::BatchRunner sets for its default engine mode.
  core::ElectionOptions options = job.options;
  options.simulator.coin_seed = engine::job_coin_seed(settings.seed, id);
  if (settings.fault.active()) {
    options.simulator.fault = {settings.fault, fault::job_fault_seed(settings.seed, id)};
  }
  options.simulator.engine = radio::SimulatorEngine::Bitset;
  options.simulator.keep_histories = false;

  const bool simulate = job.protocol.simulates();
  const std::shared_ptr<const core::CompiledConfiguration> compiled =
      compile(configuration, options, simulate);
  const core::ClassifierResult& classification = compiled->classification;

  engine::JobOutcome outcome;
  outcome.id = id;
  outcome.protocol = job.protocol;
  outcome.nodes = configuration.size();
  outcome.span = configuration.span();
  outcome.feasible = classification.feasible();
  outcome.classifier_iterations = classification.iterations;
  outcome.classifier_steps = classification.steps;
  outcome.disposition = core::Disposition::NotSimulated;
  outcome.valid = true;

  if (simulate) {
    const std::shared_ptr<const core::CanonicalSchedule>& schedule = compiled->schedule;
    const bool faulted = options.simulator.fault.active();
    const core::CanonicalDrip drip(
        schedule, faulted ? core::MismatchPolicy::Robust : core::MismatchPolicy::Strict);
    radio::SimulatorOptions simulator = options.simulator;
    simulator.channel_model = schedule->model;
    const config::Tag max_tag =
        *std::max_element(configuration.tags().begin(), configuration.tags().end());
    const std::uint64_t needed_horizon =
        max_tag + schedule->total_rounds() + 2 + options.simulator.fault.spec.stagger;
    simulator.max_rounds = static_cast<config::Round>(
        std::max<std::uint64_t>(simulator.max_rounds, needed_horizon));

    radio::RunResult run;
    {
      const Tracer::Scope simulate_span(tracer_, "simulate", id);
      run = radio::simulate(configuration, drip, simulator, scratch_);
    }
    {
      // Termination discipline plus the leader the Classifier predicted.
      const Tracer::Scope verify(tracer_, "verify", id);
      bool valid = run.all_terminated;
      for (const radio::NodeOutcome& node : run.nodes) {
        valid = valid && node.terminated && node.done_round == schedule->total_rounds() &&
                !node.forced_wake;
      }
      const std::vector<graph::NodeId> leaders = run.leaders();
      if (outcome.feasible) {
        valid = valid && leaders.size() == 1 && leaders.front() == classification.leader;
        if (leaders.size() == 1) {
          outcome.leader = leaders.front();
        }
      } else {
        valid = valid && leaders.empty();
      }
      outcome.valid = valid;
      if (!valid) {
        outcome.disposition = faulted && injected_events(run.stats) > 0
                                  ? core::Disposition::DetectedFault
                                  : core::Disposition::Failed;
      } else {
        outcome.disposition =
            outcome.feasible ? core::Disposition::Elected : core::Disposition::NoLeader;
      }
    }
    outcome.simulated = true;
    outcome.local_rounds = schedule->total_rounds();
    outcome.global_rounds = run.rounds_executed;
    outcome.stats = run.stats;
    counters_.simulated_jobs += 1;
    counters_.node_rounds += run.stats.node_rounds;
    counters_.transmissions += run.stats.transmissions;
    counters_.global_rounds += run.rounds_executed;
    counters_.injected += injected_events(run.stats);
    counters_.detected += outcome.disposition == core::Disposition::DetectedFault ? 1 : 0;
  }
  {
    const Tracer::Scope fingerprint(tracer_, "fingerprint", id);
    outcome.config_fingerprint = config::fingerprint(configuration);
  }
  return outcome;
}

dist::ShardReport Replay::request(const serve::SweepRequest& request, std::uint64_t request_id) {
  const Tracer::Scope span(tracer_, "request", request_id);
  engine::InstantiateOptions instantiate;
  instantiate.count = static_cast<std::size_t>(request.count.value_or(instantiate.count));
  const engine::CountedSweep sweep =
      request.workload.instantiate(request.seed, request.protocols, instantiate);
  engine::BatchReport report =
      batch(sweep, 0, sweep.count, {request.seed, request.fault}, request.protocols.size());
  const dist::ShardReport shard = dist::make_shard_report(
      sweep_key(request, sweep.count), {0, sweep.count}, std::move(report));
  std::string bytes;
  {
    const Tracer::Scope serialize(tracer_, "wire.serialize", request_id);
    std::ostringstream out;
    dist::write_shard_report(shard, out);
    bytes = out.str();
  }
  counters_.wire_jobs += sweep.count;
  counters_.wire_job_bytes += job_line_bytes(bytes);
  const Tracer::Scope parse(tracer_, "wire.parse", request_id);
  std::istringstream in(bytes);
  return dist::read_shard_report(in);
}

dist::SweepKey sweep_key(const serve::SweepRequest& request, engine::JobId total_jobs) {
  dist::SweepKey key;
  key.description = request.workload.name();
  key.digest = request.workload.digest();
  key.seed = request.seed;
  key.total_jobs = total_jobs;
  key.fault = request.fault.name();
  for (const core::ProtocolSpec& protocol : request.protocols) {
    key.protocols.push_back(protocol.name());
  }
  return key;
}

std::uint64_t job_line_bytes(const std::string& report) {
  std::uint64_t bytes = 0;
  std::size_t line = 0;
  while (line < report.size()) {
    const std::size_t next = std::min(report.find('\n', line), report.size() - 1) + 1;
    if (report.compare(line, 4, "job ") == 0) {
      bytes += next - line;
    }
    line = next;
  }
  return bytes;
}

// --------------------------------------------------------- per-layer metrics

void add_layer_metrics(RunResult& result, const Tracer& tracer, const WorkCounters& c,
                       double untraced_seconds, const DaemonCounters& daemon) {
  std::map<std::string, double> self = tracer.self_seconds();
  std::map<std::string, double> total = tracer.total_seconds();
  const auto us = [](double seconds, std::uint64_t count) {
    return ratio(seconds * 1e6, static_cast<double>(count));
  };
  const auto per = [](std::uint64_t value, std::uint64_t count) {
    return ratio(static_cast<double>(value), static_cast<double>(count));
  };

  result.add("generate.us_per_config", us(self["generate"], c.configs), "us");
  result.add("generate.calls_per_config", per(c.source_calls, c.configs), "count");
  result.add("generate.edges_per_config", per(c.edges, c.source_calls), "count");
  result.add("fingerprint.us_per_job", us(self["fingerprint"], c.jobs), "us");
  result.add("classify.us_per_call", us(self["classify"], c.classify_calls), "us");
  result.add("classify.iterations_per_call", per(c.classify_iterations, c.classify_calls),
             "count");
  result.add("classify.steps_per_call", per(c.classify_steps, c.classify_calls), "count");
  result.add("compile.us_per_call", us(self["compile"], c.compile_calls), "us");
  result.add("compile.rounds_per_schedule", per(c.compile_rounds, c.compile_calls), "count");
  result.add("simulate.us_per_job", us(self["simulate"], c.simulated_jobs), "us");
  result.add("simulate.ns_per_node_round",
             ratio(self["simulate"] * 1e9, static_cast<double>(c.node_rounds)), "ns");
  result.add("simulate.node_rounds_per_job", per(c.node_rounds, c.simulated_jobs), "count");
  result.add("simulate.transmissions_per_job", per(c.transmissions, c.simulated_jobs), "count");
  result.add("simulate.global_rounds_per_job", per(c.global_rounds, c.simulated_jobs), "count");
  result.add("verify.us_per_job", us(self["verify"], c.simulated_jobs), "us");
  result.add("fault.injected_per_job", per(c.injected, c.simulated_jobs), "count");
  result.add("fault.detected_share", per(c.detected, c.simulated_jobs), "ratio");
  result.add("engine.unattributed_share", ratio(self["job"], total["job"]), "ratio");
  result.add("aggregate.us_per_job", us(self["aggregate"], c.jobs), "us");

  const engine::ScheduleCacheStats& cache = daemon.cache;
  result.add("cache.hit_ratio", per(cache.hits, cache.hits + cache.misses), "ratio");
  result.add("cache.evictions_per_request", per(cache.evictions, daemon.requests), "count");
  result.add("cache.schedule_builds_per_request", per(cache.schedule_builds, daemon.requests),
             "count");
  const store::ArtifactStoreStats& disk = daemon.store;
  result.add("store.load_us", us(self["store.load"], c.store_loads), "us");
  result.add("store.save_us", us(self["store.save"], c.store_save_calls), "us");
  result.add("store.hit_ratio", per(disk.hits, disk.hits + disk.misses), "ratio");
  result.add("store.saves_per_request", per(disk.saves, daemon.requests), "count");
  result.add("store.failures", static_cast<double>(disk.rejected + disk.errors), "count");
  result.add("store.bytes_per_entry", per(c.store_bytes, c.store_saves), "B");
  result.add("wire.bytes_per_job", per(c.wire_job_bytes, c.wire_jobs), "B");
  result.add("wire.serialize_us_per_job", us(self["wire.serialize"], c.wire_jobs), "us");
  result.add("wire.parse_us_per_job", us(self["wire.parse"], c.wire_jobs), "us");
  result.add("serve.queue_wait_us_p50", static_cast<double>(daemon.server.queue_wait.p50_us),
             "us");
  result.add("serve.dispatch_us_p50", static_cast<double>(daemon.server.dispatch.p50_us), "us");
  for (std::size_t c = 0; c < kRequestClassNames.size(); ++c) {
    result.add(std::string("request_ms_p50.") + kRequestClassNames[c], daemon.class_ms_p50[c],
               "ms");
  }

  const double traced = tracer.root_seconds();
  result.add("trace.overhead_share", ratio(traced - untraced_seconds, untraced_seconds), "ratio");

  // Self-time attribution: every span belongs to exactly one layer, so the
  // shares add up to the traced wall time.
  const std::pair<const char*, std::vector<const char*>> layers[] = {
      {"generate", {"generate"}},
      {"fingerprint", {"fingerprint"}},
      {"classify", {"classify"}},
      {"compile", {"compile"}},
      {"simulate", {"simulate"}},
      {"verify", {"verify"}},
      {"aggregate", {"aggregate"}},
      {"engine", {"request", "batch", "job"}},
      {"cache", {"cache.lookup", "cache.promote", "cache.store"}},
      {"store", {"store.load", "store.save"}},
      {"wire", {"wire.serialize", "wire.parse"}},
  };
  for (const auto& [layer, spans] : layers) {
    double seconds = 0.0;
    for (const char* name : spans) {
      seconds += self[name];
    }
    result.add(std::string("share.") + layer, ratio(seconds, traced), "ratio");
  }
}

void check_counters_repeat(RunResult& result, const WorkCounters& first,
                           const WorkCounters& second) {
  result.check(first == second, "the exact work counters of two replays of the same jobs differ");
}

}  // namespace perfbench
