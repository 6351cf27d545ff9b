/// \file arl_cli.cpp
/// Command-line front end for the library.
///
///   arl gen       — emit a configuration in the text format
///   arl classify  — decide feasibility (Classifier) and show the partition
///   arl elect     — run the full pipeline and report the election
///   arl sweep     — batch many elections across the thread pool (engine);
///                   --shard=i/K emits one shard of a distributed sweep,
///                   --workers=K forks K local worker processes and merges
///   arl merge     — reassemble shard report files into the sweep's report
///   arl serve     — sweep service daemon on a unix socket: one shared
///                   engine + schedule cache across requests (serve/)
///   arl submit    — submit one sweep to a running service
///   arl stats     — live statistics of a running service (queue, latency)
///   arl workloads — list the registered sweep workloads (engine/workload.hpp)
///   arl faults    — list the registered fault specs (fault/fault.hpp)
///   arl trace     — replay the canonical DRIP with a per-round trace
///   arl schedule  — compile and print the canonical schedule (deployable)
///   arl dot       — Graphviz rendering of a configuration
///   arl orbits    — symmetry analysis (orbits of indistinguishable nodes)
///   arl validate  — simulate + independently validate the execution
///   arl help      — this reference
///
/// Configurations are read from a file path argument or stdin.
///
/// Exit codes: 0 success (`help` and no-args print the reference and exit
/// 0); 1 runtime failure (an election did not verify, a worker died); 2
/// usage error (unknown command, malformed flag value, unreadable input,
/// unmergeable shard reports).

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ARL_CLI_HAS_FORK 1
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#else
#define ARL_CLI_HAS_FORK 0
#endif

#include "config/families.hpp"
#include "config/io.hpp"
#include "core/canonical_drip.hpp"
#include "core/election.hpp"
#include "core/fast_classifier.hpp"
#include "core/protocol.hpp"
#include "core/quotient.hpp"
#include "core/schedule_io.hpp"
#include "dist/merge.hpp"
#include "dist/report_io.hpp"
#include "dist/shard.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "obs/json_snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/trace.hpp"
#include "serve/client.hpp"
#include "serve/serve_proto.hpp"
#include "serve/server.hpp"
#include "radio/validator.hpp"
#include "support/cli.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace arl;

void print_usage(std::ostream& out) {
  out <<
      R"(arl — deterministic leader election in anonymous radio networks

usage: arl <command> [flags] [config-file]

commands:
  gen        generate a configuration
               --family=h|g|s|staggered|single-hop|random  (default h)
               --m=N          family parameter, in [1, 1000000] (default 3)
               --n=N          node count for staggered/random, in
                              [1, 1000000], and for single-hop, in
                              [1, 4096]                    (default 8)
               --sigma=N      span for random, in [0, 1000000] (default 3)
               --p=X          edge probability for random, a decimal in
                              [0, 1]                       (default 0.3)
               --seed=N       RNG seed for random          (default 1)
  classify   decide feasibility; print verdict, iterations, partition
               --model=cd|nocd   channel feedback          (default cd)
               --fast            use the hashed classifier
  elect      classify + run the canonical DRIP + verify
               --model=cd|nocd
  sweep      run a batch of elections across the thread pool
               --workload=SPEC   registry workload to sweep (see `arl
                                 workloads`), e.g. random:n=16,p=0.3,sigma=3,
                                 grid:rows=8,cols=8,sigma=3, hypercube:d=6,
                                 exhaustive:n=4,tau=2, mutations:family-h
                                 (default random)
               --count=N         configurations in the batch  (default 100;
                                 conflicts with self-counting workloads)
               --family=random|staggered|h|g|s   legacy alias constructing
                                 the same workload spec (conflicts with
                                 --workload)
               --protocol=NAME   protocol to run: canonical, classify,
                                 binary-search[:BITS], tree-split[:BITS],
                                 randomized[:SLOTS]           (default canonical)
                                 repeatable — several protocols make the batch a
                                 cross product (every configuration under every
                                 protocol) with a per-protocol comparison table
               --n=N             node count for --family=random      (default 16)
               --sigma=N         span for --family=random            (default 3)
               --p=X             edge probability, --family=random   (default 0.3)
               --seed=N          batch master seed            (default 1)
               --fault=SPEC      deterministic fault plan applied to every
                                 job (see `arl faults`): none (default),
                                 drop:P[,SPLIT], corrupt:P, crash:K[,WINDOW],
                                 adversarial-wake:W — same seed, same spec,
                                 same outcomes at any shard/thread count
               --threads=N       worker threads in [0, 256]; 0 = hardware
               --model=cd|nocd   channel feedback (with the legacy aliases;
                                 a --workload spec spells it as model=nocd)
               --fast            use the hashed classifier (with the legacy
                                 aliases; a --workload spec spells fast=1)
               --shard=i/K       run only shard i of K (contiguous job-id
                                 ranges; bit-identical to the same ids of an
                                 unsharded run) and emit a shard report
               --shard=B-E       run exactly the global job-id range [B, E)
                                 — the resume notation `arl merge --missing`
                                 emits for a partially completed sweep
               --out=FILE        write the shard report to FILE (with
                                 --shard only; default stdout)
               --workers=K       fork K local worker processes, one shard
                                 each, and merge their reports (the
                                 zero-infrastructure distributed driver)
               --cache=on|off|N  schedule/classification cache shared by the
                                 workers: on (default capacity), off, or a
                                 capacity in entries; jobs sharing a
                                 configuration classify once, and the summary
                                 reports hit/miss/evict counts (default off)
               --store=DIR       persistent artifact store: compiled
                                 classifications/schedules are read from and
                                 written to DIR (created if missing) through
                                 crash-safe files, so a later cache-cold
                                 sweep preloads them; implies --cache=on
                                 (conflicts with --cache=off); outcomes are
                                 bit-identical with the store on, off or
                                 pre-populated
               --engine=MODE     simulation path: auto (default), scalar (the
                                 reference loop) or wavefront (the
                                 event-driven fast path, faulted runs
                                 included; auto = wavefront); results are
                                 bit-identical, only throughput differs
               --metrics-out=FILE  write the run's phase-timing metrics as a
                                 flat JSON object to FILE: per-phase counts
                                 (deterministic at --threads=1) plus total
                                 and p50/p90/p99 milliseconds (plain-path
                                 sweeps only; conflicts with --shard and
                                 --workers)
               --trace=FILE      machine-readable run telemetry: append one
                                 JSON line per job to FILE — job id, config
                                 fingerprint, disposition, per-phase
                                 nanoseconds (plain-path sweeps only)
               --classify-only   shorthand for --protocol=classify
  workloads  list the registered workloads and the spec grammar (exit 0)
  faults     list the registered fault specs and the spec grammar (exit 0)
  merge      reassemble shard report files into the sweep's report
               arl merge SHARD-FILE...
               verifies the shards describe one sweep (same spec digest,
               seed, protocols) and tile its job ids exactly; prints the
               usual sweep tables.  exit 2 on malformed or mismatched input
               --missing         instead of merging, report the job-id
                                 ranges the given shards do NOT cover and
                                 print (to stdout) the exact `arl sweep
                                 --shard=B-E --out=...` commands that fill
                                 them — the resume path after a killed
                                 worker; exit 0 whether or not gaps exist
  serve      run the sweep service: a unix-socket daemon executing sweep
             requests one at a time through one shared engine and one
             cross-request schedule cache (warm requests skip compiles)
               --socket=PATH     socket path to listen on (required; a stale
                                 socket left by a crashed daemon is detected
                                 and reclaimed, a live one is refused; the
                                 bound socket is chmod 0600)
               --threads=N       engine worker threads in [0, 256]; 0 = hardware
               --cache=on|off|N  shared schedule cache across requests:
                                 on (default), off, or a capacity in entries
               --store=DIR       persistent artifact store behind the shared
                                 cache: the daemon's warm cache survives
                                 restarts (requires the cache on)
               --queue=N         requests allowed to wait in [1, 4096]
                                 (default 8); past it submissions get `busy`
               SIGINT/SIGTERM drain gracefully: acknowledged requests finish
               and stream back, then the socket is unlinked
  submit     submit one sweep to a running service; prints the same tables
             as `arl sweep` (responses are shard reports, so --out files
             feed `arl merge` unchanged)
               --socket=PATH     the service socket (required)
               --ping            round-trip a ping and print the server's
                                 cumulative cache counters instead
               sweep axes as in `arl sweep`: --workload or the legacy
                 family flags, --protocol (repeatable), --count, --seed,
                 --fault=SPEC, --shard=i/K, --engine=MODE
               --threads=N       cap this request's workers in [1, 256]
                                 (omit for the server's full pool)
               --cache=off       opt this request out of the shared cache
               --store=off       opt this request out of the server's
                                 artifact store (the directory itself is a
                                 server-side --store option)
               --timeout=N       give up after N seconds without a server
                                 response, in [0, 86400] (default 0: wait
                                 forever); a timeout exits 1 with a
                                 diagnostic instead of blocking on a wedged
                                 server
               --out=FILE        write the raw shard report to FILE instead
                                 of printing tables (checked before
                                 connecting; written atomically, so an
                                 interrupt leaves no partial FILE)
  stats      query a running service for live statistics: uptime, queue
             depth, in-flight work, open sessions, request counters,
             cache/store totals, queue-wait and dispatch latency
             percentiles (the same snapshot the daemon prints on drain)
               --socket=PATH     the service socket (required)
               --timeout=N       give up after N seconds without a response,
                                 in [0, 86400] (default 0: wait forever)
  trace      replay the canonical DRIP round by round
               --verbose         also print listens and silences
  schedule   compile and print the canonical schedule (text format)
               --model=cd|nocd
  dot        Graphviz rendering
  orbits     symmetry analysis: orbits of indistinguishable nodes + quotient
  validate   simulate and re-validate the execution independently
  help       print this reference (exit 0)

configurations are read from the file argument, or stdin when absent.
exit codes: 0 success, 1 runtime failure, 2 usage error.
)";
}

config::Configuration read_configuration(const support::Args& args) {
  if (args.positional().size() > 1) {
    std::ifstream file(args.positional()[1]);
    support::require(file.is_open(), "cannot open " + args.positional()[1]);
    return config::from_text(file);
  }
  return config::from_text(std::cin);
}

#if ARL_CLI_HAS_FORK

// ---- interrupt handling -----------------------------------------------
//
// Three commands own cleanup obligations a Ctrl-C must not skip: `sweep
// --workers` (forked children to terminate and temp shard files to remove),
// a report file written by `sweep --shard --out` or `submit --out` (a
// half-written file that must never appear under the final name, see
// ReportFile) and `serve` (a graceful drain).  Handlers are installed
// without SA_RESTART so blocking syscalls return EINTR, and every handler
// body is async-signal-safe (flag writes, unlink, write, _exit).

/// Set by the --workers parent's handler; the waitpid loop turns it into
/// SIGTERM for the children plus temp-file cleanup.
volatile std::sig_atomic_t g_interrupted = 0;

void flag_interrupt(int) { g_interrupted = 1; }

/// The temp file a ReportFile is writing, which the handler removes.
char g_report_tmp_path[4096] = {0};

void report_interrupt(int) {
  ::unlink(g_report_tmp_path);  // set before the handler is installed
  ::_exit(130);
}

/// The serve stop pipe (SweepServer::stop_fd); one byte requests a drain.
int g_serve_stop_fd = -1;

void serve_interrupt(int) {
  if (g_serve_stop_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t rc = ::write(g_serve_stop_fd, &byte, 1);
  }
}

/// Installs one handler for SIGINT and SIGTERM, restoring the previous
/// dispositions on scope exit (so one command's handler never leaks into
/// another's run).
class ScopedSignalHandlers {
 public:
  explicit ScopedSignalHandlers(void (*handler)(int)) {
    struct sigaction action {};
    action.sa_handler = handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: blocked syscalls must see EINTR
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedSignalHandlers() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  ScopedSignalHandlers(const ScopedSignalHandlers&) = delete;
  ScopedSignalHandlers& operator=(const ScopedSignalHandlers&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// The private temp directory the --workers children write their shard
/// reports into, removed with those files when the parent is done however
/// it is done.  mkdtemp makes it 0700, so no other local user can swap a
/// shard file for a symlink between the worker's write and the parent's
/// read-back.
struct ShardDir {
  explicit ShardDir(std::uint32_t workers) {
    const char* tmpdir = std::getenv("TMPDIR");
    path = std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
           "/arl-workers-XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) {
      // Environment failure, not misuse: std::runtime_error exits 1.
      throw std::runtime_error("cannot create a temp directory for shard reports");
    }
    for (std::uint32_t w = 0; w < workers; ++w) {
      files.push_back(path + "/shard-" + std::to_string(w) + ".txt");
    }
  }
  ~ShardDir() {
    for (const std::string& file : files) {
      ::unlink(file.c_str());
    }
    ::rmdir(path.c_str());
  }
  ShardDir(const ShardDir&) = delete;
  ShardDir& operator=(const ShardDir&) = delete;

  std::string path;
  std::vector<std::string> files;  ///< one shard report per worker
};

#endif  // ARL_CLI_HAS_FORK

/// Where a shard report goes: stdout, or the --out file of `sweep --shard`
/// and `submit`.  The file is opened before any work runs, so a bad path
/// exits 2 before a sweep or a server spends anything on it.  It is written
/// as `<out>.tmp.<pid>`, which commit() renames onto `<out>` once complete;
/// until then a SIGINT/SIGTERM handler unlinks it and exits 130, and an
/// uncommitted ReportFile removes it.  So the final name only ever holds a
/// complete report, never a truncated file a later `arl merge` must reject.
/// (Without fork() there is no such handler or rename-over: the file is
/// written in place, and removed when the report fails.)
class ReportFile {
 public:
  /// `path` empty means stdout.
  explicit ReportFile(std::string path) : path_(std::move(path)) {
    if (path_.empty()) {
      return;
    }
#if ARL_CLI_HAS_FORK
    tmp_path_ = path_ + ".tmp." + std::to_string(::getpid());
    support::require(tmp_path_.size() < sizeof(g_report_tmp_path), "--out path is too long");
    std::snprintf(g_report_tmp_path, sizeof(g_report_tmp_path), "%s", tmp_path_.c_str());
    guard_.emplace(report_interrupt);
#else
    tmp_path_ = path_;
#endif
    file_.open(tmp_path_);
    support::require(file_.is_open(), "cannot open " + path_ + " for writing");
  }
  ~ReportFile() {
    if (!tmp_path_.empty()) {  // not committed
      file_.close();
      std::remove(tmp_path_.c_str());
    }
  }
  ReportFile(const ReportFile&) = delete;
  ReportFile& operator=(const ReportFile&) = delete;

  [[nodiscard]] std::ostream& stream() { return path_.empty() ? std::cout : file_; }

  /// Flushes the report and moves a file into place.  A lost or truncated
  /// report must not exit as if it were emitted: std::runtime_error (exit
  /// 1 — an environment failure such as a full disk, not misuse).
  void commit() {
    if (path_.empty()) {
      if (!std::cout.flush()) {
        throw std::runtime_error("writing the shard report to stdout failed");
      }
      return;
    }
    file_.close();
    if (!file_) {
      throw std::runtime_error("writing " + path_ + " failed");
    }
#if ARL_CLI_HAS_FORK
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      throw std::runtime_error("renaming " + tmp_path_ + " to " + path_ + " failed");
    }
#endif
    tmp_path_.clear();
  }

 private:
  std::string path_;
  std::string tmp_path_;  ///< the file being written; empty once committed
  std::ofstream file_;
#if ARL_CLI_HAS_FORK
  std::optional<ScopedSignalHandlers> guard_;
#endif
};

// ---- flags --------------------------------------------------------------
//
// One flag reads, and fails, the same way in every command.  A usage error
// throws support::ContractViolation, which main() prints and exits 2 on.

/// The value of --NAME (`fallback` when absent): digits only
/// (Args::get_int) and in [min, max]; anything else is a usage error
/// "--NAME must be in [MIN, MAX]NOTE".
std::int64_t int_flag(const support::Args& args, const std::string& name, std::int64_t fallback,
                      std::int64_t min, std::int64_t max, const std::string& note = "") {
  const std::int64_t value = args.get_int(name, fallback);
  support::require(value >= min && value <= max, "--" + name + " must be in [" +
                                                      std::to_string(min) + ", " +
                                                      std::to_string(max) + "]" + note);
  return value;
}

/// The value of a --NAME=PATH flag, or "" when absent.  An empty value is
/// a mangled flag (e.g. an unset shell variable), not a request for the
/// default: a usage error "--NAME needs a WHAT".
std::string path_flag(const support::Args& args, const std::string& name,
                      const std::string& what) {
  const std::string value = args.get_string(name, "");
  support::require(!args.has(name) || !value.empty(), "--" + name + " needs a " + what);
  return value;
}

/// The --socket every service command requires; `what` says which socket.
std::string socket_flag(const support::Args& args, const std::string& what) {
  const std::string value = args.get_string("socket", "");
  support::require(!value.empty(),
                   args.positional().front() + " needs --socket=PATH (" + what + ")");
  return value;
}

/// The --timeout of the service clients, in seconds (0 = wait forever).
unsigned timeout_flag(const support::Args& args) {
  return static_cast<unsigned>(
      int_flag(args, "timeout", 0, 0, 86400, " seconds (0 = wait forever)"));
}

/// The --p edge probability of the random family (default 0.3), in the
/// grammar a `--workload=random:p=X` spec uses (support::parse_probability:
/// no sign, hex float or inf/nan), so every value a sweep writes into a
/// shard report parses back.
double probability_flag(const support::Args& args) {
  if (!args.has("p")) {
    return 0.3;
  }
  const double p = support::parse_probability(args.get_string("p", ""), "--p");
  support::require(p <= 1.0, "--p must be in [0, 1]");
  return p;
}

radio::ChannelModel parse_model(const support::Args& args) {
  const std::optional<radio::ChannelModel> model =
      radio::parse_channel_model(args.get_string("model", "cd"));
  if (!model) {
    throw support::ContractViolation("--model must be cd or nocd");
  }
  return *model;
}

/// The --seed of `gen`, `sweep` and `submit` (default 1): any u64, in the
/// strict digits-only grammar, so every seed `arl merge --missing` prints
/// back runs the same sweep.
std::uint64_t seed_flag(const support::Args& args) {
  if (!args.has("seed")) {
    return 1;
  }
  return support::parse_integer(args.get_string("seed", ""), "--seed",
                                std::numeric_limits<std::uint64_t>::max());
}

int cmd_gen(const support::Args& args) {
  const std::string family = args.get_string("family", "h");
  // A malformed --m or --n exits 2 in every family; a family that reads one
  // range-checks it with the registry's bounds before any narrowing cast.
  static_cast<void>(args.get_int("m", 0));
  static_cast<void>(args.get_int("n", 0));
  const auto m = [&]() { return static_cast<config::Tag>(int_flag(args, "m", 3, 1, 1'000'000)); };
  // single-hop builds K_n, so its n stops at 4096 (8,386,560 edges).
  const auto n = [&](std::int64_t max = 1'000'000) {
    return static_cast<graph::NodeId>(int_flag(args, "n", 8, 1, max));
  };
  std::optional<config::Configuration> generated;
  if (family == "h") {
    generated = config::family_h(m());
  } else if (family == "g") {
    generated = config::family_g(m());
  } else if (family == "s") {
    generated = config::family_s(m());
  } else if (family == "staggered") {
    generated = config::staggered_path(n());
  } else if (family == "single-hop") {
    std::vector<config::Tag> tags(n(4096));
    std::iota(tags.begin(), tags.end(), config::Tag{0});
    generated = config::single_hop(tags);
  } else if (family == "random") {
    const graph::NodeId nodes = n();
    support::Rng rng(seed_flag(args));
    const auto sigma = static_cast<config::Tag>(int_flag(args, "sigma", 3, 0, 1'000'000));
    const double p = probability_flag(args);
    generated = config::random_tags_with_span(graph::gnp_connected(nodes, p, rng), sigma, rng);
  } else {
    std::cerr << "unknown family '" << family << "'\n";
    return 2;
  }
  config::to_text(*generated, std::cout);
  return 0;
}

int cmd_classify(const support::Args& args) {
  const config::Configuration c = read_configuration(args);
  const radio::ChannelModel model = parse_model(args);
  const core::ClassifierResult result = args.has("fast")
                                            ? core::FastClassifier(model).run(c)
                                            : core::Classifier(model).run(c);
  std::cout << "verdict:    " << (result.feasible() ? "feasible" : "infeasible") << '\n';
  std::cout << "iterations: " << result.iterations << '\n';
  std::cout << "steps:      " << result.steps << '\n';
  if (result.feasible()) {
    std::cout << "leader:     node " << result.leader << " (class " << result.leader_class
              << ")\n";
  }
  std::cout << "partition:  ";
  const auto& final_classes = result.records.back().clazz;
  for (std::size_t v = 0; v < final_classes.size(); ++v) {
    std::cout << (v ? " " : "") << final_classes[v];
  }
  std::cout << '\n';
  return result.feasible() ? 0 : 1;
}

int cmd_elect(const support::Args& args) {
  const config::Configuration c = read_configuration(args);
  core::ElectionOptions options;
  options.channel_model = parse_model(args);
  const core::ElectionReport report = core::elect(c, options);
  std::cout << "protocol:      " << report.protocol << '\n';
  std::cout << "feasible:      " << (report.feasible ? "yes" : "no") << '\n';
  std::cout << "disposition:   " << core::to_string(report.disposition) << '\n';
  if (report.leader) {
    std::cout << "leader:        node " << *report.leader << '\n';
  }
  std::cout << "local rounds:  " << report.local_rounds << '\n';
  std::cout << "global rounds: " << report.global_rounds << '\n';
  std::cout << "transmissions: " << report.stats.transmissions << '\n';
  std::cout << "max node tx:   " << report.stats.max_node_transmissions << '\n';
  std::cout << "max node awake:" << ' ' << report.stats.max_node_awake_rounds << '\n';
  std::cout << "verified:      " << (report.valid ? "ok" : "FAILED") << '\n';
  return report.valid ? 0 : 1;
}

/// Parses the sweep's --cache flag into a cache capacity (0 = disabled):
/// "on" picks the default capacity, "off" disables, a non-negative integer
/// sets the capacity in entries.  Throws on anything else.
std::size_t parse_cache_capacity(const support::Args& args) {
  if (!args.has("cache")) {
    return 0;
  }
  const std::string value = args.get_string("cache", "");
  if (value == "on" || value.empty()) {  // bare --cache reads as --cache=on
    return engine::ScheduleCache::kDefaultCapacity;
  }
  if (value == "off") {
    return 0;
  }
  if (!value.empty() && value.find_first_not_of("0123456789") == std::string::npos &&
      value.size() <= 9) {
    return static_cast<std::size_t>(std::stoull(value));
  }
  throw support::ContractViolation("--cache must be on, off, or a capacity in [0, 999999999]");
}

/// Parses the --store flag shared by `sweep` and `serve`: a non-empty
/// directory path, or "" when the flag is absent.  The store rides on the
/// cache (its memory tier), so pairing it with an explicit --cache=off is a
/// contradiction, not a preference.  Throws support::ContractViolation
/// (exit 2) on misuse.
std::string parse_store_directory(const support::Args& args) {
  const std::string value = path_flag(args, "store", "directory path");
  // `submit` spells per-request opt-out as --store=off; for sweep/serve the
  // flag's absence is off, and "off" would name a directory.
  support::require(value != "off",
                   "--store takes a directory here (omit the flag to run without a store)");
  support::require(value.empty() || !args.has("cache") || parse_cache_capacity(args) != 0,
                   "--store conflicts with --cache=off (the store is the cache's disk tier)");
  return value;
}

/// Parses the sweep's --engine flag (default auto).  Throws on anything
/// else, reaching the usage-error handler (exit 2).
engine::EngineMode parse_engine(const support::Args& args) {
  const std::string value = args.get_string("engine", "auto");
  if (value == "auto") {
    return engine::EngineMode::Auto;
  }
  if (value == "scalar") {
    return engine::EngineMode::Scalar;
  }
  if (value == "wavefront") {
    return engine::EngineMode::Wavefront;
  }
  throw support::ContractViolation("--engine must be auto, scalar or wavefront");
}

/// The workload the sweep flags describe: --workload=SPEC picks any registry
/// workload; the legacy --family/--n/--sigma/--p flags are parsed aliases
/// that construct the same spec (byte-identical sweeps either way), and
/// combining the two axes is contradictory.  Throws
/// support::ContractViolation on conflicts and out-of-range values (exit 2).
engine::WorkloadSpec sweep_workload(const support::Args& args) {
  if (args.has("workload")) {
    // Every workload-identity parameter has one spelling: inside the spec.
    // A bare flag next to --workload would either silently override the
    // spec's own key (model/fast) or duplicate it (family/n/sigma/p), so
    // both combinations are contradictions, not preferences.
    for (const char* flag : {"family", "n", "sigma", "p", "model", "fast"}) {
      support::require(!args.has(flag), std::string("--workload conflicts with --") + flag +
                                            "; put the parameter inside the spec instead (e.g. "
                                            "--workload=random:n=8,model=nocd)");
    }
    return engine::parse_workload(args.get_string("workload", ""));
  }

  const std::string family = args.get_string("family", "random");
  engine::WorkloadSpec spec;
  if (family == "random") {
    const std::int64_t n = int_flag(args, "n", 16, 1, 1'000'000);
    const std::int64_t sigma = int_flag(args, "sigma", 3, 0, 1'000'000);
    spec = engine::WorkloadSpec::random(static_cast<std::uint32_t>(n), probability_flag(args),
                                        static_cast<std::uint32_t>(sigma));
  } else if (family == "staggered") {
    spec = engine::WorkloadSpec::staggered();
  } else if (family == "h") {
    spec = engine::WorkloadSpec::family_h();
  } else if (family == "g") {
    spec = engine::WorkloadSpec::family_g();
  } else if (family == "s") {
    spec = engine::WorkloadSpec::family_s();
  } else {
    throw support::ContractViolation("unknown family '" + family +
                                     "' (a legacy alias; --workload reaches the full "
                                     "registry: " +
                                     engine::workload_names() + ")");
  }
  // The --model/--fast execution flags are workload identity too (sweeps
  // classifying under different channel feedback must not merge), which is
  // why the --workload spelling carries them inside the spec.
  if (args.has("model")) {
    spec.model = parse_model(args);
  }
  if (args.has("fast")) {
    spec.fast = true;
  }
  return spec;
}

/// The fault axis shared by `sweep` and `submit`: --fault=SPEC parsed
/// through the fault registry (absence means none).  A malformed spec
/// throws support::ContractViolation whose message lists the registered
/// faults, so a typo'd flag exits 2 with the registry in view — the same
/// contract as --workload and --protocol.
fault::FaultSpec sweep_fault(const support::Args& args) {
  if (!args.has("fault")) {
    return fault::FaultSpec::none();
  }
  return fault::parse_fault(args.get_string("fault", ""));
}

/// The protocol axis shared by `sweep` and `submit`: repeatable --protocol
/// flags validated against the registry (several protocols make the batch a
/// head-to-head cross product), with --classify-only as a shorthand that
/// conflicts with explicit flags.  Throws support::ContractViolation on the
/// conflict (exit 2).
std::vector<core::ProtocolSpec> sweep_protocols(const support::Args& args) {
  std::vector<core::ProtocolSpec> protocols;
  for (const std::string& name : args.get_strings("protocol")) {
    protocols.push_back(core::parse_protocol(name));
  }
  support::require(!args.has("classify-only") || protocols.empty(),
                   "--classify-only conflicts with --protocol; use --protocol=classify instead");
  if (protocols.empty()) {
    protocols.push_back(args.has("classify-only") ? core::ProtocolSpec::classify_only()
                                                  : core::ProtocolSpec::canonical());
  }
  return protocols;
}

/// The --count of an unbounded workload (default 100), in [min, max]; none
/// for a self-counting workload, whose count an explicit --count would
/// contradict (a usage error, not a preference).
std::optional<std::uint64_t> sweep_count(const support::Args& args,
                                         const engine::WorkloadSpec& workload, std::int64_t min,
                                         std::int64_t max) {
  if (workload.bounded()) {
    static_cast<void>(args.get_int("count", 0));  // a malformed value is reported as such first
    support::require(!args.has("count"), "--count conflicts with the self-counting workload '" +
                                             workload.name() +
                                             "' (its configuration count is implied)");
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(int_flag(args, "count", 100, min, max));
}

/// The sweep axes `sweep` and `submit` share — workload (--workload or the
/// legacy alias flags), protocols, seed, fault, count and engine — read by
/// the same functions into the request a submission sends; `sweep` runs
/// the same fields locally.  `submit`'s own knobs (shard, threads, cache,
/// store) are left at their defaults.
serve::SweepRequest sweep_axes(const support::Args& args, std::int64_t min_count,
                               std::int64_t max_count) {
  serve::SweepRequest axes;
  axes.workload = sweep_workload(args);
  axes.protocols = sweep_protocols(args);
  axes.seed = seed_flag(args);
  axes.fault = sweep_fault(args);
  axes.count = sweep_count(args, axes.workload, min_count, max_count);
  axes.engine = parse_engine(args);
  return axes;
}

/// Prints the summary, cache and per-protocol tables of a batch report —
/// shared by `sweep` (single-process and --workers), `merge` and `submit`,
/// so a reassembled or served sweep reads exactly like a local one.
/// Returns the exit status: 0 when every job verified, 1 otherwise.
int print_report(const engine::BatchReport& report) {
  // Feasibility is a verdict only the classifying protocols produce, so the
  // percentage is over their jobs — not over baseline jobs that never
  // classify (which would understate it in mixed-protocol sweeps).
  std::uint64_t classified_jobs = 0;
  std::uint64_t simulated_jobs = 0;
  for (const engine::ProtocolBreakdown& row : report.by_protocol) {
    if (row.protocol.classifies()) {
      classified_jobs += row.jobs;
    }
    if (row.protocol.simulates()) {
      simulated_jobs += row.jobs;
    }
  }
  support::Table table({"metric", "value"});
  table.set_precision(3);
  table.add_row({std::string("jobs"), static_cast<std::int64_t>(report.jobs.size())});
  table.add_row({std::string("worker threads"), static_cast<std::int64_t>(report.threads_used)});
  table.add_row({std::string("feasible"), static_cast<std::int64_t>(report.feasible_count)});
  table.add_row({std::string("feasible %"),
                 classified_jobs == 0 ? 0.0
                                      : 100.0 * static_cast<double>(report.feasible_count) /
                                            static_cast<double>(classified_jobs)});
  table.add_row({std::string("verified"), static_cast<std::int64_t>(report.valid_count)});
  // Rounds only accrue on simulating protocols, so average over their jobs
  // (same reasoning as the feasible % denominator above).
  table.add_row({std::string("avg local rounds"),
                 simulated_jobs == 0 ? 0.0
                                     : static_cast<double>(report.total_local_rounds) /
                                           static_cast<double>(simulated_jobs)});
  table.add_row({std::string("max local rounds"),
                 static_cast<std::int64_t>(report.max_local_rounds)});
  table.add_row({std::string("global rounds"),
                 static_cast<std::int64_t>(report.total_global_rounds)});
  table.add_row({std::string("radio transmissions"),
                 static_cast<std::int64_t>(report.total_stats.transmissions)});
  // Per-node energy maxima (Kowalski–Mosteiro accounting): the busiest
  // node's transmission and awake-round budgets across the whole batch.
  table.add_row({std::string("max node transmissions"),
                 static_cast<std::int64_t>(report.total_stats.max_node_transmissions)});
  table.add_row({std::string("max node awake rounds"),
                 static_cast<std::int64_t>(report.total_stats.max_node_awake_rounds)});
  table.add_row({std::string("wall time ms"), report.wall_millis});
  table.add_row({std::string("jobs per second"), report.throughput()});
  table.add_row({std::string("node-rounds per second"), report.node_rounds_per_second()});
  table.print_markdown(std::cout);

  // Fault-injection summary, printed exactly when a fault plan was active
  // (so scripts can key on the "fault:" prefix; a --fault=none sweep prints
  // byte-identically to one without the flag).
  if (report.fault.active()) {
    std::cout << "\nfault: " << report.fault.name() << " — "
              << report.total_stats.injected_drops << " drops, "
              << report.total_stats.injected_corruptions << " corruptions, "
              << report.total_stats.injected_crashes << " crashes, "
              << report.total_stats.delayed_wakeups << " delayed wakeups\n";
  }

  // Cache counters, printed exactly when the cache ran (so scripts can key
  // on the "schedule cache:" prefix).
  if (report.cache) {
    const engine::ScheduleCacheStats& cache = *report.cache;
    std::cout << "\nschedule cache: " << cache.hits << " hits, " << cache.misses << " misses, "
              << cache.evictions << " evictions, " << cache.schedule_builds
              << " schedule builds, " << cache.entries << " entries ("
              << static_cast<int>(cache.hit_rate() * 1000.0) / 10.0 << "% hit rate)\n";
  }

  // Disk-tier counters, printed exactly when a --store ran (same scripting
  // contract as the cache line: key on the "artifact store:" prefix).
  if (report.artifact_store) {
    const store::ArtifactStoreStats& disk = *report.artifact_store;
    std::cout << "artifact store: " << disk.hits << " loads, " << disk.misses << " misses, "
              << disk.rejected << " rejected, " << disk.saves << " saves, " << disk.skipped
              << " skipped, " << disk.errors << " errors\n";
  }

  // Head-to-head comparison: one row per protocol in the batch.
  std::cout << "\nper-protocol breakdown:\n\n";
  // The "faulted" column (jobs whose verification failure was attributed to
  // injected faults) appears only on faulted sweeps, keeping unfaulted
  // output byte-identical to what it was before fault injection existed.
  std::vector<std::string> headers = {"protocol", "jobs",       "feasible",   "elected",
                                      "no leader", "failed",     "verified",   "avg rounds",
                                      "max rounds", "transmissions"};
  if (report.fault.active()) {
    headers.insert(headers.begin() + 6, "faulted");
  }
  support::Table comparison(headers);
  comparison.set_precision(3);
  for (const engine::ProtocolBreakdown& row : report.by_protocol) {
    std::vector<support::Cell> cells = {
        row.protocol.name(),
        static_cast<std::int64_t>(row.jobs),
        static_cast<std::int64_t>(row.feasible),
        static_cast<std::int64_t>(row.elected),
        static_cast<std::int64_t>(row.no_leader),
        static_cast<std::int64_t>(row.failed),
        static_cast<std::int64_t>(row.valid),
        row.average_local_rounds(),
        static_cast<std::int64_t>(row.max_local_rounds),
        static_cast<std::int64_t>(row.stats.transmissions)};
    if (report.fault.active()) {
      cells.insert(cells.begin() + 6, support::Cell(static_cast<std::int64_t>(row.detected_fault)));
    }
    comparison.add_row(std::move(cells));
  }
  comparison.print_markdown(std::cout);

  // Phase-timing breakdown, present exactly when the metrics registry ran
  // during this process's own execution (merged and served reports carry no
  // phases: timings are execution circumstances, not results).  Printed
  // last so scripts diffing reports can drop the block with one
  // `sed '/^phase timings:/,$d'`.
  if (report.phases && !report.phases->empty()) {
    std::cout << "\nphase timings:\n\n";
    support::Table timings({"phase", "count", "total ms", "p50 ms", "p90 ms", "p99 ms"});
    timings.set_precision(3);
    for (const obs::Phase phase : obs::all_phases()) {
      const obs::HistogramSnapshot& histogram = (*report.phases)[phase];
      if (histogram.count() == 0) {
        continue;
      }
      timings.add_row({std::string(obs::phase_name(phase)),
                       static_cast<std::int64_t>(histogram.count()),
                       static_cast<double>(histogram.total) / 1e6,
                       static_cast<double>(histogram.percentile(0.50)) / 1e6,
                       static_cast<double>(histogram.percentile(0.90)) / 1e6,
                       static_cast<double>(histogram.percentile(0.99)) / 1e6});
    }
    timings.print_markdown(std::cout);
  }
  return report.valid_count == report.jobs.size() ? 0 : 1;
}

/// Merges shard reports that cover one sweep completely and prints its
/// report (print_report's exit status).  Throws dist::MergeError on shards
/// of different sweeps, overlaps and gaps.
int print_merged(const std::vector<dist::ShardReport>& shards) {
  return print_report(dist::complete_report(dist::merge_shards(shards)));
}

/// Reads the shard report files `paths` names, in order.  Throws
/// support::ContractViolation naming the file when one cannot be opened or
/// parsed: misuse for `arl merge` (exit 2); `sweep --workers`, whose own
/// children wrote the files, rethrows it as a runtime failure.
std::vector<dist::ShardReport> read_reports(const std::vector<std::string>& paths) {
  std::vector<dist::ShardReport> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream file(path);
    support::require(file.is_open(), "cannot open " + path);
    try {
      shards.push_back(dist::read_shard_report(file));
    } catch (const dist::ReportFormatError& error) {
      throw support::ContractViolation(path + ": " + error.what());
    }
  }
  return shards;
}

/// The `--metrics-out` payload: the sweep's phase-timing snapshot as a flat
/// JSON object in the bench_gate-consumable shape.  Every phase emits all
/// five keys whether or not it ran — bench_gate fails on keys present in
/// only one snapshot, so the key set must be fixed, not data-dependent.
/// Counts are exact-match fields (deterministic at --threads=1 without a
/// cache); the `_ms` fields are informational timings.
void write_metrics_json(const engine::BatchReport& report, const std::string& path) {
  obs::JsonSnapshot snapshot;
  snapshot.add("schema", std::string("arl-metrics 1"));
  snapshot.add("jobs", static_cast<std::uint64_t>(report.jobs.size()));
  const obs::MetricsSnapshot phases = report.phases.value_or(obs::MetricsSnapshot{});
  for (const obs::Phase phase : obs::all_phases()) {
    const obs::HistogramSnapshot& histogram = phases[phase];
    std::string key = "phase_";
    for (const char c : obs::phase_name(phase)) {
      key += c == '-' ? '_' : c;
    }
    snapshot.add(key + "_count", histogram.count());
    snapshot.add(key + "_total_ms", static_cast<double>(histogram.total) / 1e6);
    snapshot.add(key + "_p50_ms", static_cast<double>(histogram.percentile(0.50)) / 1e6);
    snapshot.add(key + "_p90_ms", static_cast<double>(histogram.percentile(0.90)) / 1e6);
    snapshot.add(key + "_p99_ms", static_cast<double>(histogram.percentile(0.99)) / 1e6);
  }
  // Injected-event totals: exact-match fields (fault dice are pure functions
  // of seed/round/node, so the counts are thread- and shard-invariant).
  snapshot.add("injected_drops", report.total_stats.injected_drops);
  snapshot.add("injected_corruptions", report.total_stats.injected_corruptions);
  snapshot.add("injected_crashes", report.total_stats.injected_crashes);
  snapshot.add("delayed_wakeups", report.total_stats.delayed_wakeups);
  if (!snapshot.write_file(path)) {
    throw std::runtime_error("writing the metrics snapshot to " + path + " failed");
  }
}

/// Runs one shard range of the sweep and writes its report to `out` — the
/// one shard-emission path, shared by `--shard`, the forked `--workers`
/// children and the no-fork fallback.  Returns true when every job in the
/// shard verified.
bool emit_shard(const engine::CountedSweep& sweep, const dist::SweepKey& key,
                const dist::JobRange& range, const engine::BatchOptions& batch_options,
                std::ostream& out) {
  engine::BatchRunner runner(batch_options);
  engine::BatchReport report = runner.run_range(range.begin, range.end, sweep.source);
  const bool all_valid = report.valid_count == report.jobs.size();
  dist::write_shard_report(dist::make_shard_report(key, range, std::move(report)), out);
  return all_valid;
}

/// The zero-infrastructure distributed driver: split the sweep into
/// `workers` shards, run each in its own forked process writing a shard
/// report to a temp file, then merge the files end-to-end — the exact
/// pipeline a multi-host run performs, on one machine.
int run_workers_sweep(const engine::CountedSweep& sweep, const dist::SweepKey& key,
                      const engine::BatchOptions& batch_options, std::uint32_t workers) {
  std::vector<dist::ShardReport> shards;
#if ARL_CLI_HAS_FORK
  // With the default --threads=0 every forked worker would size its pool
  // to the full hardware concurrency, oversubscribing the machine K-fold;
  // split the cores across the workers instead, remainder included, so no
  // core idles.  An explicit --threads is taken as a deliberate per-worker
  // choice and honoured as given.  (The no-fork fallback below runs the
  // shards sequentially, so it keeps the flag untouched and lets each
  // shard use the whole machine.)
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const auto worker_threads = [&](std::uint32_t w) {
    if (batch_options.threads != 0) {
      return batch_options.threads;
    }
    return std::max(1u, cores / workers + (w < cores % workers ? 1 : 0));
  };
  const std::vector<dist::JobRange> ranges = dist::shard_ranges(sweep.count, workers);

  // Fork before any BatchRunner exists: the children must not inherit a
  // half-alive thread pool, and each builds its own below.  From here on,
  // SIGINT/SIGTERM only set a flag: the wait loop converts it into SIGTERM
  // for every child, and `dir` (destroyed before `guard`) removes the shard
  // files on the way out, so a Ctrl-C orphans no worker and leaks no file.
  g_interrupted = 0;
  const ScopedSignalHandlers guard(flag_interrupt);
  const ShardDir dir(workers);
  std::vector<pid_t> children;
  bool fork_failed = false;  // the workers already started are reaped first
  std::cout.flush();
  std::cerr.flush();
  for (std::uint32_t w = 0; w < workers && !fork_failed; ++w) {
    const pid_t pid = ::fork();
    fork_failed = pid < 0;
    if (pid == 0) {
      // Worker: back to default signal dispositions (a terminal Ctrl-C
      // delivers SIGINT to the whole foreground process group, and the
      // default action — die — is exactly right for a child whose partial
      // shard file the parent removes).
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      // Worker: run shard w, write its report, and _exit without touching
      // the parent's stdio buffers (or running the parent's destructors).
      // Failures are reported on the inherited (unbuffered) stderr before
      // _exit, so the parent's generic "a worker failed" has a cause next
      // to it in the terminal.
      int code = 3;
      try {
        engine::BatchOptions options = batch_options;
        options.threads = worker_threads(w);
        std::ofstream file(dir.files[w]);
        support::require(file.is_open(), "cannot open " + dir.files[w] + " for writing");
        const bool all_valid = emit_shard(sweep, key, ranges[w], options, file);
        if (!file.flush()) {
          throw std::runtime_error("writing " + dir.files[w] + " failed");
        }
        code = all_valid ? 0 : 1;
      } catch (const std::exception& error) {
        std::cerr << "error: worker " << w << ": " << error.what() << '\n';
      } catch (...) {
        std::cerr << "error: worker " << w << ": unknown failure\n";
      }
      ::_exit(code);
    }
    if (pid > 0) {
      children.push_back(pid);
    }
  }

  bool worker_failed = false;
  bool children_signalled = false;
  // On interrupt, forward SIGTERM to every child once, then keep reaping —
  // no child may be left running.  Checked both on EINTR and between
  // waits, because the signal may land while no wait is in flight.
  const auto forward_interrupt = [&]() {
    if (g_interrupted != 0 && !children_signalled) {
      children_signalled = true;
      for (const pid_t worker : children) {
        ::kill(worker, SIGTERM);
      }
    }
  };
  for (const pid_t child : children) {
    int status = 0;
    pid_t reaped;
    for (;;) {
      forward_interrupt();
      reaped = ::waitpid(child, &status, 0);
      if (reaped >= 0 || errno != EINTR) {
        break;
      }
    }
    // A wait that never succeeded leaves the child's fate unknown — treat
    // it as a failure rather than reading a file it may still be writing.
    if (reaped != child || !WIFEXITED(status) || WEXITSTATUS(status) > 1) {
      worker_failed = true;
    }
  }
  if (g_interrupted != 0) {
    // Interrupted after every child was terminated and reaped: the
    // (possibly partial) shard files go with `dir`, and the run exits with
    // the conventional interrupted status instead of merging a torso.
    std::cerr << "error: sweep interrupted; workers terminated, shard files removed\n";
    return 130;
  }
  if (fork_failed) {
    // Environment failure, not misuse: std::runtime_error exits 1.
    throw std::runtime_error("fork failed while starting sweep workers");
  }
  if (worker_failed) {
    throw std::runtime_error("a sweep worker process failed");
  }
  try {
    shards = read_reports(dir.files);
  } catch (const support::ContractViolation& error) {
    throw std::runtime_error(error.what());  // the workers' output, not the user's: exit 1
  }
#else
  // No fork() on this platform: run the same shard/merge pipeline
  // sequentially in-process — wire format included — so --workers stays
  // meaningful (and equally exercised) everywhere.
  for (const dist::JobRange& range : dist::shard_ranges(sweep.count, workers)) {
    std::stringstream wire;
    (void)emit_shard(sweep, key, range, batch_options, wire);
    shards.push_back(dist::read_shard_report(wire));
  }
#endif
  return print_merged(shards);
}

int cmd_sweep(const support::Args& args) {
  // Guard against pathological worker counts: a typo'd --threads must fail
  // with a usage error, not silently spawn thousands of threads.
  engine::BatchOptions batch_options;
  batch_options.threads =
      static_cast<unsigned>(int_flag(args, "threads", 0, 0, 256, " (0 = hardware concurrency)"));
  batch_options.cache_capacity = parse_cache_capacity(args);
  batch_options.store_directory = parse_store_directory(args);

  // The distributed axis: --shard=i/K emits one shard report, --workers=K
  // forks local workers and merges; they are drivers of the same sweep, so
  // combining them is a usage error.
  // Two shard notations: "i/K" (the planner's range) and "B-E" (an
  // explicit global job-id range — what `arl merge --missing` emits to
  // resume a partial sweep).  A dash dispatches to the range form.
  std::optional<dist::ShardSpec> shard;
  std::optional<dist::JobRange> resume_range;
  if (args.has("shard")) {
    const std::string value = args.get_string("shard", "");
    if (value.find('-') != std::string::npos) {
      resume_range = dist::parse_job_range(value);
    } else {
      shard = dist::parse_shard(value);
    }
  }
  const bool sharded = shard || resume_range;
  std::optional<std::uint32_t> workers;
  if (args.has("workers")) {
    workers = static_cast<std::uint32_t>(int_flag(args, "workers", 0, 1, 256));
  }
  support::require(!sharded || !workers,
                   "--shard and --workers conflict; --shard runs one piece of a "
                   "distributed sweep, --workers drives all of them locally");
  support::require(!args.has("out") || sharded,
                   "--out only applies to --shard runs (the shard report destination)");
  const std::string out_path =
      path_flag(args, "out", "file path (omit the flag to write to stdout)");

  // The observability flags are plain-path features: shard reports carry no
  // phase data (timings are execution circumstances, excluded from the wire
  // format), and forked workers would interleave one trace file.
  const std::string metrics_out = path_flag(args, "metrics-out", "file path");
  const std::string trace_path = path_flag(args, "trace", "file path");
  support::require(!(args.has("metrics-out") || args.has("trace")) || !(sharded || workers),
                   "--metrics-out and --trace apply to plain sweeps only "
                   "(not --shard or --workers runs)");

  // The sweep axes, read as `submit` reads them.  The workload's identity
  // (name + digest) feeds the shard reports, so every workload shards,
  // merges and caches uniformly.
  const serve::SweepRequest axes = sweep_axes(args, 0, std::numeric_limits<std::int64_t>::max());
  batch_options.seed = axes.seed;
  batch_options.fault = axes.fault;
  batch_options.engine = axes.engine;
  const engine::CountedSweep sweep = axes.workload.instantiate(
      axes.seed, axes.protocols, {.count = static_cast<std::size_t>(axes.count.value_or(0))});
  const dist::SweepKey key = dist::make_sweep_key(axes.workload, axes.protocols, axes.seed,
                                                  axes.fault, sweep.count);
  if (sharded) {
    const dist::JobRange range = shard ? dist::shard_range(sweep.count, *shard) : *resume_range;
    support::require(range.end <= sweep.count,
                     "--shard range [" + std::to_string(range.begin) + ", " +
                         std::to_string(range.end) + ") exceeds the sweep's " +
                         std::to_string(sweep.count) + " jobs");
    ReportFile sink(out_path);
    const bool all_valid = emit_shard(sweep, key, range, batch_options, sink.stream());
    sink.commit();
    return all_valid ? 0 : 1;
  }
  if (workers) {
    return run_workers_sweep(sweep, key, batch_options, *workers);
  }

  std::optional<obs::JsonLinesTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink.emplace(trace_path);
    batch_options.job_trace = &*trace_sink;
  }
  engine::BatchRunner runner(batch_options);
  const engine::BatchReport report = runner.run(sweep.count, sweep.source);
  if (trace_sink) {
    trace_sink->flush();
  }
  if (!metrics_out.empty()) {
    write_metrics_json(report, metrics_out);
  }
  return print_report(report);
}

/// `arl workloads` and `arl faults` — a registry listing, symmetric to the
/// registry CLI errors show: one row per registered spec (its canonical
/// default-parameter name and what it does) plus the spec grammar.
template <typename Spec>
int list_registry(const std::vector<Spec>& specs, const char* noun, const char* column,
                  const char* grammar, const std::string& names) {
  support::Table table({noun, column});
  for (const Spec& spec : specs) {
    table.add_row({spec.name(), spec.describe()});
  }
  table.print_markdown(std::cout);
  std::cout << "\nspec grammar: " << grammar << " — " << names << '\n';
  return 0;
}

int cmd_workloads(const support::Args&) {
  return list_registry(engine::registered_workloads(), "workload", "configurations",
                       "kind[:key=value,...]", engine::workload_names());
}

int cmd_faults(const support::Args&) {
  return list_registry(fault::registered_faults(), "fault", "effect", "kind[:param,...]",
                       fault::fault_names());
}

/// `arl merge --missing`: which job ids do the surviving shard files NOT
/// cover, and what exact commands re-run them.  Exit 0 either way — an
/// incomplete sweep is the expected input here, not an error.
int print_missing(const dist::ShardReport& merged) {
  const std::vector<dist::JobRange> gaps = dist::missing_ranges(merged);
  if (gaps.empty()) {
    std::cerr << "coverage complete: all " << merged.key.total_jobs
              << " jobs present; `arl merge` (without --missing) yields the report\n";
    return 0;
  }

  // Reconstruct the sweep flags from the merged identity.  The workload
  // name is the canonical registry spelling (the report parser verified
  // the round trip), so it feeds --workload verbatim; unbounded workloads
  // additionally need the --count that produced total_jobs (= count × P).
  std::string flags = "--workload=" + merged.key.description;
  for (const std::string& protocol : merged.key.protocols) {
    flags += " --protocol=" + protocol;
  }
  flags += " --seed=" + std::to_string(merged.key.seed);
  if (merged.key.fault != "none") {
    flags += " --fault=" + merged.key.fault;
  }
  if (!engine::parse_workload(merged.key.description).bounded()) {
    flags += " --count=" + std::to_string(merged.key.total_jobs / merged.key.protocols.size());
  }

  engine::JobId missing_jobs = 0;
  for (const dist::JobRange& gap : gaps) {
    missing_jobs += gap.size();
    const std::string span = std::to_string(gap.begin) + "-" + std::to_string(gap.end);
    std::cout << "arl sweep " << flags << " --shard=" << span << " --out=resume-" << span
              << ".txt\n";
  }
  std::cerr << "coverage incomplete: " << missing_jobs << " of " << merged.key.total_jobs
            << " jobs missing across " << gaps.size()
            << " range(s); run the command(s) above, then merge the surviving and resumed "
               "shard files together\n";
  return 0;
}

/// `arl merge SHARD-FILE...` — parse every shard report, verify they are
/// disjoint covering pieces of one sweep, and print the reassembled report
/// exactly as `arl sweep` would have.  Malformed or mismatched input exits
/// 2; nothing is ever merged silently.
int cmd_merge(const support::Args& args) {
  const std::vector<std::string> paths(args.positional().begin() + 1, args.positional().end());
  support::require(!paths.empty(), "merge needs at least one shard report file");
  const std::vector<dist::ShardReport> shards = read_reports(paths);
  // Shards of different sweeps and overlaps — and, without --missing, gaps
  // — are misuse as well.
  try {
    return args.has("missing") ? print_missing(dist::merge_shards(shards)) : print_merged(shards);
  } catch (const dist::MergeError& error) {
    throw support::ContractViolation(error.what());
  }
}

/// `arl serve` — run the sweep service until SIGINT/SIGTERM, then drain.
/// ServeError (bad socket, unsupported platform) reaches main()'s generic
/// handler and exits 1.
int cmd_serve(const support::Args& args) {
  serve::ServerOptions options;
  options.socket_path = socket_flag(args, "the unix socket to listen on");
  options.threads =
      static_cast<unsigned>(int_flag(args, "threads", 0, 0, 256, " (0 = hardware concurrency)"));
  options.queue_limit = static_cast<std::size_t>(int_flag(args, "queue", 8, 1, 4096));
  // Unlike `sweep`, the cache defaults ON: cross-request reuse is the
  // service's whole point, so opting *out* is the explicit choice.
  options.cache_capacity = args.has("cache") ? parse_cache_capacity(args)
                                             : engine::ScheduleCache::kDefaultCapacity;
  options.store_directory = parse_store_directory(args);

  serve::SweepServer server(std::move(options));
#if ARL_CLI_HAS_FORK
  g_serve_stop_fd = server.stop_fd();
  const ScopedSignalHandlers guard(serve_interrupt);
#endif
  std::cerr << "arl serve: listening on " << server.options().socket_path << " (queue "
            << server.options().queue_limit << ", cache " << server.options().cache_capacity
            << " entries";
  if (!server.options().store_directory.empty()) {
    std::cerr << ", store " << server.options().store_directory;
  }
  std::cerr << ")\n";
  server.run();
  // The drain summary is the same ServerStats snapshot a `stats` request
  // returns, printed through the same formatter — the daemon's log and
  // `arl stats` can never disagree on a counter.
  std::cerr << "arl serve: drained\n";
  serve::print_stats(std::cerr, "arl serve: ", server.stats());
  return 0;
}

/// `arl stats` — query a running service for its live statistics snapshot.
/// The same ServerStats the daemon prints on drain, fetched over the wire.
int cmd_stats(const support::Args& args) {
  const std::string socket_path = socket_flag(args, "a running `arl serve` socket");
  serve::Client client(socket_path, timeout_flag(args));
  serve::print_stats(std::cout, "", client.stats());
  return 0;
}

/// `arl submit` — one sweep against a running service.  The response *is* a
/// shard report, so --out files feed `arl merge` unchanged; without --out a
/// full-range submission prints exactly the `arl sweep` tables, and a
/// --shard submission prints the raw report (like `sweep --shard`).
int cmd_submit(const support::Args& args) {
  // Every flag is checked before connecting (and before --ping answers): a
  // bad value is a usage error whether or not a server is reachable, and
  // never costs the server a sweep.
  const std::string socket_path = socket_flag(args, "a running `arl serve` socket");
  const unsigned timeout = timeout_flag(args);
  serve::SweepRequest request =
      sweep_axes(args, 1, static_cast<std::int64_t>(serve::kMaxRequestCount));
  if (args.has("shard")) {
    request.shard = dist::parse_shard(args.get_string("shard", ""));
  }
  const std::int64_t threads =
      int_flag(args, "threads", 0, 0, static_cast<std::int64_t>(serve::kMaxRequestThreads),
               " (0 = the server's pool)");
  if (threads > 0) {
    request.threads = static_cast<std::uint64_t>(threads);
  }
  if (args.has("cache")) {
    const std::string value = args.get_string("cache", "");
    support::require(value == "on" || value == "off" || value.empty(),
                     "--cache must be on or off for submit (capacity is a server-side option)");
    request.use_cache = value != "off";
  }
  if (args.has("store")) {
    support::require(args.get_string("store", "") == "off",
                     "--store must be off for submit (the directory is a server-side option)");
    request.use_store = false;
  }
  const std::string out_path = path_flag(args, "out", "file path (omit the flag to print tables)");

  if (args.has("ping")) {
    serve::Client client(socket_path, timeout);
    const serve::Response pong = client.ping();
    std::cout << "pong: cache " << pong.totals.hits << " hits, " << pong.totals.misses
              << " misses, " << pong.totals.entries << " entries\n";
    return 0;
  }

  // A raw report (--out, or a single shard, which is not the whole sweep)
  // goes through the sink, opened before the server runs anything.
  std::optional<ReportFile> sink;
  if (!out_path.empty() || request.shard) {
    sink.emplace(out_path);
  }
  serve::Client client(socket_path, timeout);
  const serve::SubmitResult result = client.submit(request);
  if (result.outcome.kind == serve::Response::Kind::Busy) {
    throw std::runtime_error("server busy (queue limit " +
                             std::to_string(result.outcome.queue_limit) + "); try again");
  }
  if (result.outcome.kind == serve::Response::Kind::Error) {
    throw std::runtime_error("server: " + result.outcome.message);
  }

  // The per-request / cumulative cache attribution from the done line, on
  // stderr so --out keeps stdout clean and scripts can key on the prefix.
  const serve::RequestCacheUse& used = result.outcome.request_cache;
  const serve::CacheTotals& totals = result.outcome.totals;
  std::cerr << "serve cache: " << used.hits << " hits, " << used.misses << " misses, "
            << used.schedule_builds << " schedule builds this request; cumulative "
            << totals.hits << " hits, " << totals.misses << " misses, " << totals.entries
            << " entries\n";

  // Parse the report even when only writing it out: the exit code promises
  // every job verified, and the end-line digest check catches a response
  // corrupted in flight.
  std::istringstream body(result.report);
  const dist::ShardReport shard = dist::read_shard_report(body);
  if (!sink) {
    return print_merged({shard});
  }
  sink->stream() << result.report;
  sink->commit();
  return shard.report.valid_count == shard.report.jobs.size() ? 0 : 1;
}

int cmd_trace(const support::Args& args) {
  const config::Configuration c = read_configuration(args);
  const auto schedule = core::make_schedule(c, parse_model(args));
  radio::StreamTrace trace(std::cout, args.has("verbose"));
  radio::SimulatorOptions options;
  options.trace = &trace;
  options.channel_model = schedule->model;
  const core::CanonicalDrip drip(schedule);
  const radio::RunResult run = radio::simulate(c, drip, options);
  const auto leaders = run.leaders();
  std::cout << (leaders.size() == 1
                    ? "leader: node " + std::to_string(leaders.front())
                    : "no unique leader")
            << '\n';
  return 0;
}

int cmd_schedule(const support::Args& args) {
  const config::Configuration c = read_configuration(args);
  const auto schedule = core::make_schedule(c, parse_model(args));
  core::schedule_to_text(*schedule, std::cout);
  return 0;
}

int cmd_dot(const support::Args& args) {
  config::to_dot(read_configuration(args), std::cout);
  return 0;
}

int cmd_orbits(const support::Args& args) {
  const config::Configuration c = read_configuration(args);
  const core::SymmetryReport report = core::analyze_symmetry(c);
  std::cout << (report.feasible() ? "feasible" : "infeasible") << ": " << report.orbits.size()
            << " orbit(s) of indistinguishable nodes\n";
  for (const core::Orbit& orbit : report.orbits) {
    std::cout << "  orbit " << orbit.id << " {";
    for (std::size_t i = 0; i < orbit.members.size(); ++i) {
      std::cout << (i ? " " : "") << orbit.members[i];
    }
    std::cout << "}" << (orbit.members.size() == 1 ? "  <- electable" : "") << '\n';
  }
  std::cout << "quotient graph: " << report.quotient.node_count() << " orbit(s), "
            << report.quotient.edge_count() << " edge(s)\n";
  return report.feasible() ? 0 : 1;
}

int cmd_validate(const support::Args& args) {
  const config::Configuration c = read_configuration(args);
  const auto schedule = core::make_schedule(c, parse_model(args));
  const core::CanonicalDrip drip(schedule);
  radio::ExecutionRecorder recorder;
  radio::SimulatorOptions options;
  options.trace = &recorder;
  options.history_window = 0;
  options.channel_model = schedule->model;
  const radio::RunResult run = radio::simulate(c, drip, options);
  const radio::ValidationReport report =
      radio::validate_execution(c, recorder, run, schedule->model);
  if (report.ok) {
    std::cout << "execution valid (" << report.checks << " checks)\n";
    return 0;
  }
  std::cout << "execution INVALID: " << report.error << '\n';
  return 1;
}

/// The command table `main` dispatches through.
struct Command {
  const char* name;
  int (*run)(const support::Args&);
};

constexpr Command kCommands[] = {
    {"gen", cmd_gen},           {"classify", cmd_classify},   {"elect", cmd_elect},
    {"sweep", cmd_sweep},       {"merge", cmd_merge},         {"serve", cmd_serve},
    {"submit", cmd_submit},     {"stats", cmd_stats},         {"workloads", cmd_workloads},
    {"faults", cmd_faults},     {"trace", cmd_trace},         {"schedule", cmd_schedule},
    {"dot", cmd_dot},           {"orbits", cmd_orbits},       {"validate", cmd_validate},
};

}  // namespace

int main(int argc, char** argv) {
  const support::Args args(argc, argv);
  // `arl`, `arl help` and `arl --help` are all requests for the reference,
  // not mistakes: print it to stdout and exit 0.
  if (args.has("help") || args.positional().empty() || args.positional().front() == "help") {
    print_usage(std::cout);
    return 0;
  }
  const std::string& command = args.positional().front();
  try {
    for (const Command& entry : kCommands) {
      if (command == entry.name) {
        return entry.run(args);
      }
    }
    throw support::ContractViolation("unknown command '" + command + "' (see `arl help`)");
  } catch (const support::ContractViolation& error) {
    // Contract violations are misuse — bad flag values, unreadable input —
    // and exit 2 like every other usage error; runtime failures exit 1.
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
