/// \file bench_serve.cpp
/// E6: the sweep service's warm cross-request schedule cache.  A daemon
/// holds one process-wide cache; the experiment submits the same
/// classification sweep to it twice — cold (every configuration classifies)
/// and warm (every configuration answers from the cache) — on each of
/// several fresh daemons, then drives K concurrent clients over sharded
/// submissions to the last one and merges their reports.  The median of the
/// per-daemon cold/warm ratios is the tracked perf invariant (BENCH_E6.json,
/// gated in CI by tools/bench_gate); wall times and throughput are machine
/// facts, printed but not gated; the cache counters and outcome identity
/// are exact.

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dist/merge.hpp"
#include "dist/report_io.hpp"
#include "dist/shard.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "serve/client.hpp"
#include "serve/serve_proto.hpp"
#include "serve/server.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

#if ARL_SERVE_HAS_UNIX_SOCKETS
#include <unistd.h>
#endif

namespace {

using namespace arl;

#if ARL_SERVE_HAS_UNIX_SOCKETS

constexpr const char* kWorkload = "random:n=256,p=0.03,sigma=200";
constexpr std::uint64_t kCount = 200;  // configurations per request
constexpr std::uint64_t kSeed = 11;
constexpr unsigned kClients = 4;
constexpr int kDaemons = 9;  // fresh daemons, one cold/warm pair each; the gate reads the median

serve::SweepRequest e6_request() {
  serve::SweepRequest request;
  request.workload = engine::parse_workload(kWorkload);
  request.protocols = {core::ProtocolSpec::classify_only()};
  request.seed = kSeed;
  request.count = kCount;
  return request;
}

/// A running daemon on a private socket, torn down by the destructor.
struct BenchServer {
  BenchServer() {
    char pattern[] = "/tmp/arl-bench-serve-XXXXXX";
    if (::mkdtemp(pattern) == nullptr) {
      throw std::runtime_error("bench_serve: mkdtemp failed");
    }
    dir = pattern;
    serve::ServerOptions options;
    options.socket_path = dir + "/arl.sock";
    options.threads = 1;  // timings compare requests, not pool sizes
    options.queue_limit = 2 * kClients;
    server = std::make_unique<serve::SweepServer>(options);
    runner = std::thread([this] { server->run(); });
  }

  ~BenchServer() {
    server->request_stop();
    runner.join();
    ::rmdir(dir.c_str());
  }

  [[nodiscard]] const std::string& socket() const { return server->options().socket_path; }

  std::string dir;
  std::unique_ptr<serve::SweepServer> server;
  std::thread runner;
};

dist::ShardReport parse_report(const serve::SubmitResult& result) {
  std::istringstream body(result.report);
  return dist::read_shard_report(body);
}

void print_e6_table() {
  const serve::SweepRequest request = e6_request();

  // Cold: a fresh daemon's first request — every configuration classifies
  // and enters the cache.  Warm: the identical re-submission — every
  // configuration answers from the cache the previous request filled.  A
  // single cold/warm pair is one noisy ratio; each of kDaemons fresh
  // daemons gives one, and the median drops the pairs a burst of host noise
  // hit.  The first daemon's submissions supply the exact fields.
  std::unique_ptr<BenchServer> daemon;
  serve::SubmitResult cold;
  serve::SubmitResult warm;
  dist::ShardReport cold_report;
  bool identical = true;
  std::vector<double> cold_times;
  std::vector<double> warm_times;
  std::vector<double> ratios;
  support::Stopwatch watch;
  for (int i = 0; i < kDaemons; ++i) {
    daemon = std::make_unique<BenchServer>();
    serve::Client client(daemon->socket());
    watch.restart();
    const serve::SubmitResult daemon_cold = client.submit(request);
    cold_times.push_back(watch.millis());
    watch.restart();
    const serve::SubmitResult daemon_warm = client.submit(request);
    warm_times.push_back(watch.millis());
    ratios.push_back(cold_times.back() / warm_times.back());
    if (!daemon_cold.ok() || !daemon_warm.ok()) {
      throw std::runtime_error("bench_serve: submission failed");
    }
    if (i == 0) {
      cold = daemon_cold;
      warm = daemon_warm;
      cold_report = parse_report(cold);
    }
    identical = identical &&
                engine::same_results(cold_report.report, parse_report(daemon_cold).report) &&
                engine::same_results(cold_report.report, parse_report(daemon_warm).report);
  }
  const double cold_ms = benchsupport::median(cold_times);
  const double warm_ms = benchsupport::median(warm_times);
  const double warm_speedup = benchsupport::median(ratios);

  // K concurrent clients, one shard each, against the last daemon's warm
  // cache; their merged reports must equal the unsharded submission's.
  std::vector<dist::ShardReport> shards(kClients);
  std::vector<std::thread> workers;
  watch.restart();
  for (unsigned i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      serve::Client shard_client(daemon->socket());
      serve::SweepRequest shard_request = e6_request();
      shard_request.shard = dist::ShardSpec{i, kClients};
      shards[i] = parse_report(shard_client.submit(shard_request));
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const double concurrent_ms = watch.millis();
  const bool concurrent_identical = engine::same_results(
      dist::complete_report(dist::merge_shards(shards)), cold_report.report);
  const std::uint64_t total_jobs = cold_report.report.jobs.size();
  const double served_jobs_per_s = static_cast<double>(total_jobs) / (concurrent_ms / 1e3);

  support::Table table({"request", "wall ms (median of " + std::to_string(kDaemons) + ")",
                        "cache hits", "misses", "builds", "jobs"});
  const auto row = [&](const std::string& name, double ms, const serve::RequestCacheUse& use,
                       std::uint64_t jobs) {
    std::ostringstream wall;
    wall << static_cast<int>(ms * 10.0) / 10.0;
    table.add_row({name, wall.str(), std::to_string(use.hits), std::to_string(use.misses),
                   std::to_string(use.schedule_builds), std::to_string(jobs)});
  };
  row("cold", cold_ms, cold.outcome.request_cache, total_jobs);
  row("warm", warm_ms, warm.outcome.request_cache, total_jobs);
  benchsupport::print_table(
      "E6: sweep service, cold vs warm shared cache (" + std::string(kWorkload) + " x " +
          std::to_string(kCount) + ", classify, " + std::to_string(kClients) +
          " concurrent clients)",
      table);
  std::cout << "\nwarm speedup (median of " << kDaemons << " daemons): " << warm_speedup << "x; "
            << kClients << " concurrent sharded clients: " << concurrent_ms << " ms, "
            << served_jobs_per_s << " jobs/s, merge identical: "
            << (concurrent_identical ? "yes" : "no") << "\n";

  benchsupport::JsonSnapshot snapshot;
  snapshot.add("bench", std::string("E6"));
  snapshot.add("workload", std::string(kWorkload));
  snapshot.add("configurations", kCount);
  snapshot.add("clients", static_cast<std::uint64_t>(kClients));
  snapshot.add("total_jobs", total_jobs);
  snapshot.add("cold_misses", cold.outcome.request_cache.misses);
  snapshot.add("warm_hits", warm.outcome.request_cache.hits);
  snapshot.add("warm_misses", warm.outcome.request_cache.misses);
  snapshot.add("identical_outcomes", identical);
  snapshot.add("concurrent_merge_identical", concurrent_identical);
  snapshot.add("warm_cache_speedup", warm_speedup);
  snapshot.add("cold_wall_ms", cold_ms);
  snapshot.add("warm_wall_ms", warm_ms);
  snapshot.add("concurrent_wall_ms", concurrent_ms);
  snapshot.add("served_jobs_per_s", served_jobs_per_s);
  snapshot.write("BENCH_E6.json");
}

// ------------------------------------------------------- timed micro-series

void BM_ServeWarmSubmit(benchmark::State& state) {
  BenchServer daemon;
  serve::Client client(daemon.socket());
  serve::SweepRequest request = e6_request();
  request.count = 50;  // small enough for the timing loop, warm after once
  (void)client.submit(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.submit(request));
  }
}
BENCHMARK(BM_ServeWarmSubmit)->Unit(benchmark::kMillisecond);

void BM_ServePing(benchmark::State& state) {
  BenchServer daemon;
  serve::Client client(daemon.socket());
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.ping());
  }
}
BENCHMARK(BM_ServePing)->Unit(benchmark::kMicrosecond);

void print_tables() { print_e6_table(); }

#else  // !ARL_SERVE_HAS_UNIX_SOCKETS

void print_tables() {
  std::cout << "\nE6: skipped (no unix domain sockets on this platform)\n";
}

#endif  // ARL_SERVE_HAS_UNIX_SOCKETS

}  // namespace

ARL_BENCH_MAIN(print_tables)
