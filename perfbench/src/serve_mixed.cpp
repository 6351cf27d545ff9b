/// \file serve_mixed.cpp
/// The serve-mixed workload: a closed loop of two `serve::Client`
/// connections against an in-process `serve::SweepServer` (two workers,
/// default shared cache, artifact store on) restarted on a store that an
/// earlier daemon instance filled.
///
/// Latency is timed at the client from send to `done`, on the wall clock.
/// Every request hands off between five threads, and on a shared virtual
/// machine each hand-off may wait for the hypervisor to run a halted vCPU;
/// that wait is stolen time, and its share of the window swung between 1 %
/// and 57 % from run to run, moving the raw wall-clock figures by up to a
/// factor of two.  The bounded throughput and latencies are therefore the
/// wall-clock figures scaled by one minus the steal share measured over the
/// window (from /proc/stat).  The raw figures go to stderr and the share is
/// a per-layer metric, so a change that adds hand-offs, and with them
/// stolen time, still shows there.
///
/// Request k of the seed's stream is one of three classes, fixed by the
/// seed: a repeat of a sweep this daemon already answered (memory hits), a
/// sweep only the earlier daemon compiled (store loads), or a new sweep
/// (classify, compile, store save).  Each client takes the next index from
/// a shared counter and sends it only after its previous request is done.
///
/// The class shares are an assumption: the repository has no record of how
/// `arl serve` is used.  They are equal, one request of each class in every
/// three, so that every class gets the same number of latency samples and
/// each class's cost is resolved equally well.

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <sys/vfs.h>
#include <unistd.h>
#include <thread>

#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr const char* kWorkload = "random:n=128,p=0.05,sigma=32";
constexpr std::uint64_t kCount = 16;  ///< configurations per request
constexpr unsigned kWorkers = 2;
constexpr int kClients = 2;
constexpr int kSetupRepeats = 101;
/// Requests a run sends per second of its window, at most: a run ends after
/// this many or when the window closes, whichever comes first.  It is set
/// below the closed loop's throughput on a 4-vCPU machine (45-100 requests
/// per second), so the count usually ends a run, and the response bytes a
/// run retains do not grow with the daemon's speed.  The earlier daemon
/// compiles every store-class request among them, so this also sizes the
/// preparation.
constexpr double kRequestsPerSecond = 50.0;
/// Requests the traced replay covers: a prefix of whole blocks, so it has
/// the class counts of the timed stream.
constexpr std::uint64_t kReplayRequests = 60;
/// A memory-hit request repeats one of the previous kRepeatWindow requests,
/// skipping the one just before it, which may still be in flight.
constexpr std::uint64_t kRepeatWindow = 8;

/// Named in kRequestClassNames, in this order.
enum class RequestClass { MemoryHit, StoreLoad, New };

struct PlannedRequest {
  RequestClass kind = RequestClass::New;
  std::uint64_t seed = 0;
};

/// Each block of 3 consecutive requests holds one memory hit, one store load
/// and one new sweep, in an order the seed picks.  The first two requests
/// have nothing to repeat, so block 0 puts its hit last.  Every prefix of
/// whole blocks therefore has the same class mix.
std::vector<PlannedRequest> plan_requests(std::uint64_t master_seed, std::uint64_t count) {
  constexpr std::uint64_t kBlock = 3;
  const support::Rng stream(master_seed);
  const support::Rng blocks = stream.split(~std::uint64_t{0});
  std::vector<PlannedRequest> plan;
  plan.reserve(static_cast<std::size_t>(count));
  std::uint64_t hit_slot = 0;
  std::uint64_t store_slot = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    if (k % kBlock == 0) {
      support::Rng block = blocks.split(k / kBlock);
      hit_slot = k == 0 ? 2 : block.below(kBlock);
      store_slot = (hit_slot + 1 + block.below(kBlock - 1)) % kBlock;
    }
    support::Rng rng = stream.split(k);
    if (k % kBlock == hit_slot) {
      const std::uint64_t back = 2 + rng.below(std::min<std::uint64_t>(k - 1, kRepeatWindow));
      plan.push_back({RequestClass::MemoryHit, plan[static_cast<std::size_t>(k - back)].seed});
    } else {
      plan.push_back(
          {k % kBlock == store_slot ? RequestClass::StoreLoad : RequestClass::New, rng.next()});
    }
  }
  return plan;
}

serve::SweepRequest make_request(const engine::WorkloadSpec& workload, std::uint64_t seed,
                                 std::vector<core::ProtocolSpec> protocols = {
                                     core::ProtocolSpec::canonical(),
                                     core::ProtocolSpec::classify_only()}) {
  serve::SweepRequest request;
  request.workload = workload;
  request.protocols = std::move(protocols);
  request.seed = seed;
  request.count = kCount;
  return request;
}

serve::ServerOptions server_options(const std::string& socket_path) {
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.threads = kWorkers;
  options.store_directory = "store";
  return options;
}

/// A SweepServer with its accept loop on a thread; the destructor stops it
/// and waits for the drain.
class RunningServer {
 public:
  explicit RunningServer(serve::ServerOptions options)
      : server_(std::move(options)), loop_([this] {
          try {
            server_.run();
          } catch (const std::exception& failure) {
            std::cerr << "perfbench: daemon stopped: " << failure.what() << "\n";
          }
        }) {}
  ~RunningServer() {
    server_.request_stop();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] serve::SweepServer& server() { return server_; }

 private:
  serve::SweepServer server_;
  std::thread loop_;
};

/// The filesystem type under the store, for the record.
std::string filesystem_name(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x9123683E:
      return "btrfs";
    case 0x58465342:
      return "xfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      std::ostringstream out;
      out << "0x" << std::hex << info.f_type;
      return out.str();
    }
  }
}

/// One request of the timed loop, as the client saw it.
struct Record {
  bool sent = false;
  bool ok = false;
  double ms = 0.0;
  std::string report;
  std::string error;
};

bool same_shard(const dist::ShardReport& a, const dist::ShardReport& b) {
  return a.key == b.key && a.ranges == b.ranges && engine::same_results(a.report, b.report);
}

}  // namespace

void run_serve_workload(const RunSettings& settings, RunResult& result) {
  const engine::WorkloadSpec workload = engine::parse_workload(kWorkload);
  const auto max_requests = static_cast<std::uint64_t>(
      std::max(kRequestsPerSecond * settings.seconds, static_cast<double>(kReplayRequests)));
  const std::vector<PlannedRequest> plan = plan_requests(settings.seed, max_requests);
  std::vector<serve::SweepRequest> requests;
  requests.reserve(plan.size());
  for (const PlannedRequest& planned : plan) {
    requests.push_back(make_request(workload, planned.seed));
  }
  std::cerr << "perfbench: inputs serve-mixed seed=" << settings.seed
            << " first-config-fingerprint="
            << config::fingerprint(
                   requests[0].workload.instantiate(requests[0].seed, requests[0].protocols)
                       .source(0)
                       .configuration)
            << "\n";

  // ---- preparation: the earlier daemon compiles every store-class sweep.
  // It gets only the canonical jobs, which compile and save each
  // configuration exactly once, so the store it leaves does not depend on
  // thread timing (configuration i of a seed is the same for any protocol
  // list).
  const auto preparation_start = std::chrono::steady_clock::now();
  fs::remove_all("store");
  std::uint64_t store_class = 0;
  {
    const RunningServer earlier(server_options("prefill.sock"));
    serve::Client client("prefill.sock");
    for (const PlannedRequest& planned : plan) {
      if (planned.kind == RequestClass::StoreLoad) {
        if (!client.submit(make_request(workload, planned.seed, {core::ProtocolSpec::canonical()}))
                 .ok()) {
          throw std::runtime_error("the earlier daemon failed a store-class request");
        }
        store_class += 1;
      }
    }
  }
  const std::vector<std::string> replay_stores = {"store-untraced", "store-traced",
                                                  "store-traced-again"};
  if (settings.trace) {
    for (const std::string& copy : replay_stores) {
      fs::remove_all(copy);
      fs::copy("store", copy, fs::copy_options::recursive);
    }
  }
  // Flush the store (and its copies) now: otherwise the first fsync'd saves
  // of the window pay for writing them back.
  ::sync();
  std::cerr << "perfbench: earlier daemon stored " << store_class << " sweeps on "
            << filesystem_name("store") << " (preparation " << seconds_since(preparation_start)
            << " s)\n";

  // ---- set-up: workload instantiation, daemon bind, store open, pool
  // start and client connections, on the wall clock; then once more for the
  // run
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    [[maybe_unused]] const engine::CountedSweep first = requests[0].workload.instantiate(
        requests[0].seed, requests[0].protocols, {.count = kCount});
    const RunningServer timed(server_options("serve.sock"));
    std::vector<std::unique_ptr<serve::Client>> timed_clients;
    for (int c = 0; c < kClients; ++c) {
      timed_clients.push_back(std::make_unique<serve::Client>("serve.sock"));
    }
    setups.push_back(seconds_since(start));
  }
  auto daemon = std::make_unique<RunningServer>(server_options("serve.sock"));
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<serve::Client>("serve.sock"));
  }

  // ---- timed: the closed loop
  std::vector<Record> records(plan.size());
  std::atomic<std::uint64_t> next{0};
  const CpuTicks ticks_before = read_cpu_ticks();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(settings.seconds);
  const auto client_loop = [&](serve::Client& client) {
    for (;;) {
      const std::uint64_t k = next.fetch_add(1);
      if (k >= plan.size() ||
          (std::chrono::steady_clock::now() >= deadline && k >= kReplayRequests)) {
        return;
      }
      Record& record = records[static_cast<std::size_t>(k)];
      record.sent = true;
      const auto sent_at = std::chrono::steady_clock::now();
      try {
        serve::SubmitResult response = client.submit(requests[static_cast<std::size_t>(k)]);
        record.ms = seconds_since(sent_at) * 1e3;
        record.ok = response.ok();
        record.report = std::move(response.report);
        if (!record.ok) {
          record.error = serve::format_response(response.outcome);
        }
      } catch (const std::exception& failure) {
        record.ms = seconds_since(sent_at) * 1e3;
        record.error = failure.what();
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, std::ref(*clients[static_cast<std::size_t>(c)]));
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  const double elapsed = seconds_since(start);
  const double stolen = steal_share(ticks_before, read_cpu_ticks());
  const double rss = peak_rss_mb();
  DaemonCounters daemon_counters;
  daemon_counters.cache = daemon->server().cache_stats();
  daemon_counters.store = daemon->server().store_stats();
  daemon_counters.server = daemon->server().stats();
  clients.clear();
  daemon.reset();

  // ---- checks: every response parses strictly and equals a local
  // BatchRunner run of the same request (one reference per distinct seed)
  engine::BatchOptions reference_options;
  reference_options.threads = kWorkers;
  engine::BatchRunner reference_runner(reference_options);
  std::map<std::uint64_t, dist::ShardReport> references;
  std::vector<dist::ShardReport> responses(kReplayRequests);
  std::vector<double> latencies_ms;
  std::vector<double> class_latencies_ms[kRequestClassNames.size()];
  std::uint64_t sent = 0;
  std::uint64_t retained_bytes = 0;
  for (std::size_t k = 0; k < records.size(); ++k) {
    const Record& record = records[k];
    if (!record.sent) {
      continue;
    }
    sent += 1;
    retained_bytes += record.report.size();
    class_latencies_ms[static_cast<std::size_t>(plan[k].kind)].push_back(record.ms);
    latencies_ms.push_back(record.ms);
    bool ok = record.ok;
    if (!ok) {
      std::cerr << "perfbench: request " << k << " failed: " << record.error << "\n";
    }
    auto reference = references.find(plan[k].seed);
    if (reference == references.end()) {
      const serve::SweepRequest& request = requests[k];
      const engine::CountedSweep sweep =
          request.workload.instantiate(request.seed, request.protocols, {.count = kCount});
      engine::RunOverrides overrides;
      overrides.seed = request.seed;
      dist::ShardReport expected = dist::make_shard_report(
          sweep_key(request, sweep.count), {0, sweep.count},
          reference_runner.run_range(0, sweep.count, sweep.source, overrides));
      if (settings.corrupt_reference && references.empty()) {
        expected.report.jobs[0].feasible = !expected.report.jobs[0].feasible;
      }
      reference = references.emplace(plan[k].seed, std::move(expected)).first;
    }
    if (ok) {
      try {
        std::istringstream in(record.report);
        dist::ShardReport response = dist::read_shard_report(in);
        ok = same_shard(response, reference->second);
        if (k < kReplayRequests) {
          responses[k] = std::move(response);
        }
      } catch (const dist::ReportFormatError& failure) {
        std::cerr << "perfbench: request " << k << " report rejected: " << failure.what() << "\n";
        ok = false;
      }
    }
    result.count(ok);
  }
  daemon_counters.requests = sent;
  for (std::size_t c = 0; c < kRequestClassNames.size(); ++c) {
    daemon_counters.class_ms_p50[c] = median(class_latencies_ms[c]);
  }
  const double requests_per_s = static_cast<double>(sent) / elapsed;
  std::cerr << "perfbench: " << sent << " requests in " << elapsed << " s wall: "
            << requests_per_s << " requests/s, " << stolen * 100
            << "% of busy CPU time stolen; raw wall-clock latency p50 " << median(latencies_ms)
            << " ms (";
  for (std::size_t c = 0; c < kRequestClassNames.size(); ++c) {
    std::cerr << (c == 0 ? "" : ", ") << kRequestClassNames[c] << " "
              << class_latencies_ms[c].size() << " at p50 " << daemon_counters.class_ms_p50[c]
              << " ms";
  }
  std::cerr << "), over " << latencies_ms.size() << " samples, p99 has "
            << beyond_p99(latencies_ms.size()) << " beyond it; " << retained_bytes
            << " bytes of responses retained in the window\n";

  // Wall-clock figures with the stolen share of the window taken out.
  const double unstolen = 1.0 - stolen;
  for (double& class_ms : daemon_counters.class_ms_p50) {
    class_ms *= unstolen;
  }
  if (!settings.trace) {
    result.add("jobs_per_s", requests_per_s / unstolen * static_cast<double>(kCount * 2), "1/s");
    result.add("request_ms_p50", percentile(latencies_ms, 0.50) * unstolen, "ms");
    result.add("peak_rss_mb", rss, "MB");
    result.add("setup_s", median(setups), "s");
    return;
  }
  result.add("request_ms_p99", percentile(latencies_ms, 0.99) * unstolen, "ms");
  result.add("host.steal_share", stolen, "ratio");

  // ---- traced: the first kReplayRequests requests in index order, without
  // the socket, untraced once and traced twice, each pass on its own copy of
  // the earlier daemon's store; only the tracer differs between the passes.
  store::TieredScheduleCache untraced_cache(replay_stores[0],
                                            engine::ScheduleCache::kDefaultCapacity);
  Replay untraced(nullptr, &untraced_cache);
  store::TieredScheduleCache first_cache(replay_stores[1], engine::ScheduleCache::kDefaultCapacity);
  Tracer first_tracer;
  Replay first(&first_tracer, &first_cache);
  store::TieredScheduleCache second_cache(replay_stores[2],
                                          engine::ScheduleCache::kDefaultCapacity);
  Tracer second_tracer;
  Replay second(&second_tracer, &second_cache);
  bool same_as_daemon = true;
  bool same_as_untraced = true;
  bool repeated = true;
  std::vector<dist::ShardReport> untraced_reports;
  const auto untraced_start = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < kReplayRequests; ++k) {
    untraced_reports.push_back(untraced.request(requests[k], k));
  }
  const double untraced_seconds = seconds_since(untraced_start);
  for (std::uint64_t k = 0; k < kReplayRequests; ++k) {
    const dist::ShardReport traced = first.request(requests[k], k);
    same_as_daemon = same_as_daemon && same_shard(traced, responses[k]);
    same_as_untraced = same_as_untraced && same_shard(traced, untraced_reports[k]);
    repeated = repeated && same_shard(second.request(requests[k], k), traced);
  }
  result.check(same_as_daemon, "traced replay shard reports differ from the daemon's");
  result.check(same_as_untraced, "traced replay shard reports differ from the untraced replay's");
  result.check(repeated, "two traced replays differ");
  check_counters_repeat(result, first.counters(), second.counters());
  check_counters_repeat(result, first.counters(), untraced.counters());
  first_tracer.write(settings.trace_dir + "/serve-mixed-seed" + std::to_string(settings.seed) +
                     ".spans.tsv");
  add_layer_metrics(result, first_tracer, first.counters(), untraced_seconds, daemon_counters);
}

}  // namespace perfbench
