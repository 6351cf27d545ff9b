/// \file test_simulator_fast.cpp
/// Differential suite for the simulator's event-driven fast path: it must
/// produce RunResults bit-identical to the scalar reference loop — same
/// per-node outcomes including full histories and energy counters, same
/// RunStats including the injected-fault counters — across channel models,
/// wake policies, history windows, protocols (with and without
/// listen_streak), every fault kind, horizon cut-offs, scratch reuse (the
/// program pool across drips included), wake calendars over tags of several
/// bytes, and the batch engine's scalar/wavefront modes at several thread
/// counts.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/binary_search.hpp"
#include "baselines/randomized.hpp"
#include "config/configuration.hpp"
#include "config/families.hpp"
#include "config/mutations.hpp"
#include "core/canonical_drip.hpp"
#include "core/schedule.hpp"
#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "radio/simulator.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;

/// Full bit-identity over two runs: everything RunResult exposes.
void expect_same_run(const radio::RunResult& scalar, const radio::RunResult& fast,
                     const std::string& what) {
  ASSERT_EQ(scalar.nodes.size(), fast.nodes.size()) << what;
  EXPECT_EQ(scalar.rounds_executed, fast.rounds_executed) << what;
  EXPECT_EQ(scalar.all_terminated, fast.all_terminated) << what;
  EXPECT_TRUE(scalar.stats == fast.stats) << what;
  for (std::size_t v = 0; v < scalar.nodes.size(); ++v) {
    const radio::NodeOutcome& a = scalar.nodes[v];
    const radio::NodeOutcome& b = fast.nodes[v];
    const std::string node_what = what + ", node " + std::to_string(v);
    EXPECT_EQ(a.wake_round, b.wake_round) << node_what;
    EXPECT_EQ(a.forced_wake, b.forced_wake) << node_what;
    EXPECT_EQ(a.terminated, b.terminated) << node_what;
    EXPECT_EQ(a.done_round, b.done_round) << node_what;
    EXPECT_EQ(a.elected, b.elected) << node_what;
    EXPECT_EQ(a.crashed, b.crashed) << node_what;
    EXPECT_EQ(a.awake_rounds, b.awake_rounds) << node_what;
    EXPECT_EQ(a.transmissions, b.transmissions) << node_what;
    EXPECT_EQ(a.history_dropped, b.history_dropped) << node_what;
    ASSERT_EQ(a.history.size(), b.history.size()) << node_what;
    for (std::size_t t = 0; t < a.history.size(); ++t) {
      EXPECT_TRUE(a.history[t] == b.history[t]) << node_what << ", entry " << t;
    }
  }
}

/// Runs `options` through both engines (fresh scratches) and asserts
/// bit-identity; returns the scalar run.
radio::RunResult expect_same_on_both(const config::Configuration& configuration,
                                     const radio::Drip& drip, radio::SimulatorOptions options,
                                     const std::string& what) {
  radio::SimulatorScratch scalar_scratch;
  radio::SimulatorScratch fast_scratch;
  options.engine = radio::SimulatorEngine::Scalar;
  radio::RunResult scalar = radio::simulate(configuration, drip, options, scalar_scratch);
  options.engine = radio::SimulatorEngine::Event;
  const radio::RunResult fast = radio::simulate(configuration, drip, options, fast_scratch);
  expect_same_run(scalar, fast, what);
  return scalar;
}

/// The 8 option variants the suite crosses for every (configuration, drip):
/// {CD, NoCD} x {HearAll, SilentWake} x {unwindowed, windowed}.  The
/// windowed variant evicts aggressively but never below the drip's own
/// declared minimum — a smaller window would violate the program's history
/// contract, which is a caller bug, not an engine difference.
std::vector<radio::SimulatorOptions> option_variants(const radio::Drip& drip,
                                                     std::uint64_t coin_seed) {
  const std::size_t window = std::max<std::size_t>(3, drip.history_window().value_or(0));
  std::vector<radio::SimulatorOptions> variants;
  for (const radio::ChannelModel model :
       {radio::ChannelModel::CollisionDetection, radio::ChannelModel::NoCollisionDetection}) {
    for (const radio::WakePolicy policy :
         {radio::WakePolicy::HearAll, radio::WakePolicy::SilentWake}) {
      for (const bool windowed : {false, true}) {
        radio::SimulatorOptions options;
        options.channel_model = model;
        options.wake_policy = policy;
        // 0 retains everything, even for drips that declare a window.
        options.history_window = windowed ? window : 0;
        options.coin_seed = coin_seed;
        variants.push_back(options);
      }
    }
  }
  return variants;
}

std::string describe(const radio::SimulatorOptions& options) {
  std::string out =
      options.channel_model == radio::ChannelModel::CollisionDetection ? "cd" : "nocd";
  out += options.wake_policy == radio::WakePolicy::HearAll ? "/hearall" : "/silentwake";
  out += options.history_window == std::size_t{0} ? "/full" : "/windowed";
  return out;
}

/// Runs every variant through both engines and asserts bit-identity, under
/// `fault` (default: none).  Returns how many fault events the runs injected.
std::uint64_t expect_differential(const config::Configuration& configuration,
                                  const radio::Drip& drip, std::uint64_t coin_seed,
                                  const std::string& what, fault::FaultPlan fault = {}) {
  std::uint64_t injected = 0;
  for (radio::SimulatorOptions options : option_variants(drip, coin_seed)) {
    options.fault = fault;
    const std::string variant = what + " [" + describe(options) + "]";
    const radio::RunStats stats = expect_same_on_both(configuration, drip, options, variant).stats;
    injected += stats.injected_drops + stats.injected_corruptions + stats.injected_crashes +
                stats.delayed_wakeups;
  }
  return injected;
}

/// A compiled canonical drip for `configuration` (robust mismatch policy, so
/// windowed runs that starve the program of history terminate cleanly
/// instead of asserting).
std::unique_ptr<core::CanonicalDrip> canonical_for(const config::Configuration& configuration,
                                                   radio::ChannelModel model) {
  return std::make_unique<core::CanonicalDrip>(core::make_schedule(configuration, model),
                                               core::MismatchPolicy::Robust);
}

config::Configuration random_configuration(support::Rng& rng) {
  const auto n = static_cast<graph::NodeId>(2 + rng.next() % 9);  // 2..10
  const double p = 0.15 + 0.1 * static_cast<double>(rng.next() % 8);
  const auto sigma = static_cast<config::Tag>(rng.next() % 7);
  graph::Graph graph = graph::gnp_connected(n, p, rng);
  if (sigma == 0) {
    return config::Configuration(std::move(graph),
                                 std::vector<config::Tag>(n, config::Tag{0}));
  }
  return config::random_tags_with_span(std::move(graph), sigma, rng);
}

/// Every connected n-node configuration with tags in [0, tau], in the
/// exhaustive workload's order.
std::vector<config::Configuration> census(graph::NodeId n, config::Tag tau) {
  const engine::CountedSweep sweep =
      engine::WorkloadSpec::exhaustive(n, tau).instantiate(1, {core::ProtocolSpec::canonical()});
  std::vector<config::Configuration> configurations;
  for (engine::JobId id = 0; id < sweep.count; ++id) {
    configurations.push_back(sweep.source(id).configuration);
  }
  return configurations;
}

// ---------------------------------------------------------------- exhaustive

TEST(SimulatorFast, ExhaustiveSmallConfigurationsBeacon) {
  // Every connected 3-node configuration with tags in [0, 2], and every
  // connected 4-node configuration with tags in [0, 1]: the beacon drip
  // fires early, so these runs are dense in forced wakeups and collisions.
  for (const auto& [n, tau] : std::vector<std::pair<graph::NodeId, config::Tag>>{{3, 2}, {4, 1}}) {
    const std::vector<config::Configuration> configurations = census(n, tau);
    for (std::size_t i = 0; i < configurations.size(); ++i) {
      const testkit::BeaconDrip beacon(1 + i % 3, /*payload=*/7, /*lifetime=*/6);
      expect_differential(configurations[i], beacon, /*coin_seed=*/i,
                          "exhaustive n=" + std::to_string(n) + " #" + std::to_string(i));
    }
  }
}

TEST(SimulatorFast, ExhaustiveSmallConfigurationsCanonical) {
  // The canonical DRIP over the full 3-node census: the protocol whose
  // listen_streak() parks nodes on the fast path.
  const std::vector<config::Configuration> configurations = census(3, 2);
  for (std::size_t i = 0; i < configurations.size(); ++i) {
    for (const radio::ChannelModel model :
         {radio::ChannelModel::CollisionDetection, radio::ChannelModel::NoCollisionDetection}) {
      const auto drip = canonical_for(configurations[i], model);
      expect_differential(configurations[i], *drip, /*coin_seed=*/i,
                          "exhaustive canonical #" + std::to_string(i));
    }
  }
}

// -------------------------------------------------------------- random fuzz

TEST(SimulatorFast, RandomConfigurationsFuzz) {
  // 10000 random configurations (n in [2, 10], random density, span in
  // [0, 6] including the all-equal-tags symmetric case), rotating through
  // the protocol zoo: beacons (collisions + forced wakeups), silence
  // (termination discipline), the coin-flipping randomized baseline (the
  // coin-seed cache), and the canonical DRIP (listen_streak parking).
  // Each runs under all 8 option variants on both engines.
  constexpr std::size_t kConfigs = 10000;
  support::Rng rng(20260808);
  for (std::size_t i = 0; i < kConfigs; ++i) {
    const config::Configuration configuration = random_configuration(rng);
    const std::string what = "fuzz #" + std::to_string(i);
    switch (i % 16) {
      case 0: {
        // Canonical DRIP every 16th config (schedule compilation is the
        // expensive part, and the exhaustive census above already covers it
        // densely on small n).
        const auto drip =
            canonical_for(configuration, radio::ChannelModel::CollisionDetection);
        expect_differential(configuration, *drip, i, what + " canonical");
        break;
      }
      case 1: {
        const testkit::SilentDrip silent(2 + i % 5);
        expect_differential(configuration, silent, i, what + " silent");
        break;
      }
      case 2:
      case 3: {
        const baselines::RandomizedElection randomized(/*max_slots=*/64);
        expect_differential(configuration, randomized, i, what + " randomized");
        break;
      }
      default: {
        const testkit::BeaconDrip beacon(1 + i % 4, /*payload=*/1 + i % 3,
                                         /*lifetime=*/5 + i % 7);
        expect_differential(configuration, beacon, i, what + " beacon");
        break;
      }
    }
  }
}

// ------------------------------------------------------------------ faults

TEST(SimulatorFast, EveryFaultKindMatchesTheScalarLoop) {
  // Faulted runs take the fast path: the drop/corrupt dice must land on the
  // same (round, listener) pairs, crashes and staggered wakes at the same
  // rounds, and every injected-event counter must agree.  Each fault kind
  // runs the canonical DRIP (robust, so a fault ends it cleanly), beacons
  // (dense receptions, collisions and forced wakeups) and the randomized
  // baseline (no listen streak: every node decides every round), under all
  // 8 option variants.
  constexpr std::size_t kConfigs = 24;
  support::Rng rng(20261019);
  std::vector<config::Configuration> configurations;
  for (std::size_t i = 0; i < kConfigs; ++i) {
    configurations.push_back(random_configuration(rng));
  }
  for (const char* text :
       {"drop:0.02", "drop:0.3,7", "corrupt:0.1", "crash:2", "crash:3,8", "adversarial-wake:8"}) {
    const fault::FaultSpec spec = fault::parse_fault(text);
    std::uint64_t injected = 0;
    for (std::size_t i = 0; i < kConfigs; ++i) {
      const config::Configuration& configuration = configurations[i];
      const fault::FaultPlan plan{spec, /*seed=*/1000 + i};
      const std::string what = std::string(text) + " #" + std::to_string(i);
      const auto canonical = canonical_for(configuration, radio::ChannelModel::CollisionDetection);
      const testkit::BeaconDrip beacon(1 + i % 4, /*payload=*/1 + i % 3, /*lifetime=*/5 + i % 7);
      const baselines::RandomizedElection randomized(/*max_slots=*/64);
      injected += expect_differential(configuration, *canonical, i, what + " canonical", plan);
      injected += expect_differential(configuration, beacon, i, what + " beacon", plan);
      injected += expect_differential(configuration, randomized, i, what + " randomized", plan);
    }
    // The comparison is only as strong as the faults that fired.
    EXPECT_GT(injected, 0u) << text;
  }
}

// ------------------------------------------------------- long windowed runs

/// A labeled drip whose nodes transmit about every `label + 1`-th local
/// round (label 0: never) for `lifetime` rounds: long runs dense in
/// messages and collisions, so a small history window evicts many recorded
/// events.  When a node transmits, and what, depends on every entry of its
/// retained window, so one wrong retained entry changes the rest of the
/// run.
class ChatterDrip final : public radio::Drip {
 public:
  explicit ChatterDrip(config::Round lifetime) : lifetime_(lifetime) {}

  std::unique_ptr<radio::NodeProgram> instantiate(const radio::NodeEnv& env) const override {
    class Program final : public radio::NodeProgram {
     public:
      Program(config::Round period, config::Round lifetime)
          : period_(period), lifetime_(lifetime) {}
      radio::Action decide(config::Round i, const radio::HistoryView& history) override {
        if (i > lifetime_) {
          return radio::Action::terminate();
        }
        radio::Message heard = 0;
        history.for_each_event(history.first_kept(), history.length(),
                               [&](std::size_t, radio::HistoryEntry entry) {
                                 heard += entry.is_message() ? entry.payload() : 7;
                                 return true;
                               });
        if (period_ > 1 && (i + heard) % period_ == 0) {
          return radio::Action::transmit(1 + heard % 5);
        }
        return radio::Action::listen();
      }

     private:
      config::Round period_;
      config::Round lifetime_;
    };
    const auto period = static_cast<config::Round>(env.label.value_or(0) + 1);
    return std::make_unique<Program>(period, lifetime_);
  }
  std::string name() const override { return "chatter"; }

 private:
  config::Round lifetime_;
};

TEST(SimulatorFast, LongWindowedRunsEvictSparseEventsLikeTheDenseWindow) {
  // A star whose hub and two leaves chatter at different periods for 300
  // rounds: the hub hears messages and collisions, the quiet leaves hear
  // the hub.  Under the 3-entry window the fast path prunes evicted events
  // from its sparse store many times over; the retained windows must still
  // equal the dense store's, entry for entry.
  const config::Configuration configuration(graph::star(6), {0, 0, 1, 0, 2, 0});
  const ChatterDrip chatter(300);
  for (radio::SimulatorOptions options : option_variants(chatter, /*coin_seed=*/1)) {
    options.labels = {4, 1, 2, 0, 0, 0};
    const std::string what = "chatter [" + describe(options) + "]";
    const radio::RunResult scalar = expect_same_on_both(configuration, chatter, options, what);
    EXPECT_GT(scalar.stats.clean_receptions, 100u);
    if (options.channel_model == radio::ChannelModel::CollisionDetection) {
      EXPECT_GT(scalar.stats.collisions_heard, 0u);
    }
  }
}

// ---------------------------------------------------- benchmark-scale runs

TEST(SimulatorFast, CanonicalAtTheSparseBenchmarkShape) {
  // The perfbench canonical-sparse workload (n=256, sparse G(n,p), tag span
  // 200): phases hundreds of rounds long, a schedule-sized history window,
  // and about 600 listening rounds per node against one transmission.  Each
  // configuration runs fault-free and under drop:0.02, with the drip's own
  // window and with full retention.
  const engine::WorkloadSpec workload = engine::parse_workload("random:n=256,p=0.03,sigma=200");
  const std::vector<core::ProtocolSpec> protocols = {core::ProtocolSpec::canonical()};
  const engine::CountedSweep sweep = workload.instantiate(/*seed=*/9, protocols, {.count = 8});
  for (engine::JobId id = 0; id < sweep.count; ++id) {
    const config::Configuration configuration = sweep.source(id).configuration;
    const auto drip = canonical_for(configuration, radio::ChannelModel::CollisionDetection);
    for (const fault::FaultSpec& spec : {fault::FaultSpec::none(), fault::FaultSpec::drop(0.02)}) {
      for (const std::optional<std::size_t> window :
           {std::optional<std::size_t>{}, std::optional<std::size_t>{0}}) {
        radio::SimulatorOptions options;
        options.history_window = window;
        options.fault = {spec, /*seed=*/id};
        const std::string what =
            "sparse #" + std::to_string(id) + " " + spec.name() + (window ? " full" : "");
        const radio::RunResult scalar = expect_same_on_both(configuration, *drip, options, what);
        EXPECT_EQ(scalar.stats.transmissions, 256u);
      }
    }
  }
}

// ------------------------------------------------------- horizon + fallback

TEST(SimulatorFast, HorizonGuardParity) {
  // The immortal drip never terminates: both engines must abort at the
  // horizon with identical truncated results.
  const config::Configuration configuration = config::staggered_path(5);
  const testkit::ImmortalDrip immortal;
  for (radio::SimulatorOptions options : option_variants(immortal, /*coin_seed=*/3)) {
    options.max_rounds = 50;
    const std::string what = "horizon [" + describe(options) + "]";
    const radio::RunResult scalar = expect_same_on_both(configuration, immortal, options, what);
    EXPECT_FALSE(scalar.all_terminated);
  }
}

TEST(SimulatorFast, HorizonCutsACanonicalRunWhileNodesAreParked) {
  // The canonical DRIP parks every node between its transmission round and
  // the phase boundary, so a horizon inside a phase cuts the run while the
  // fast path has nodes parked past it.  Lengths, awake rounds and the
  // retained windows must still match the scalar loop's, at every cut.
  support::Rng rng(515);
  const config::Configuration configuration =
      config::random_tags_with_span(graph::gnp_connected(12, 0.3, rng), 40, rng);
  const auto drip = canonical_for(configuration, radio::ChannelModel::CollisionDetection);
  radio::SimulatorOptions options;
  options.history_window = 0;
  const radio::RunResult full = expect_same_on_both(configuration, *drip, options, "uncut");
  ASSERT_TRUE(full.all_terminated);
  const config::Round sigma = 40;
  // Cuts in the listening stretches: the first transmission block, the
  // trailing sigma rounds before the final boundary, and the last round.
  const config::Round last = full.rounds_executed - 1;
  for (const config::Round cut : {sigma + 2, last - sigma / 2, last}) {
    for (radio::SimulatorOptions variant : option_variants(*drip, /*coin_seed=*/cut)) {
      variant.max_rounds = cut;
      const std::string what = "cut at " + std::to_string(cut) + " [" + describe(variant) + "]";
      const radio::RunResult scalar = expect_same_on_both(configuration, *drip, variant, what);
      if (variant.channel_model == radio::ChannelModel::CollisionDetection) {
        // The model the schedule was compiled for: the run is conformant,
        // so the cut is what stops it.  (Without collision detection the
        // robust program may give up first.)
        EXPECT_FALSE(scalar.all_terminated);
        EXPECT_EQ(scalar.rounds_executed, cut);
      }
    }
  }
}

TEST(SimulatorFast, TraceForcesScalarFallback) {
  // A trace sink pins the run to the scalar loop even under Event; the
  // recorded transmissions must match a plain scalar run.
  const config::Configuration configuration = config::staggered_path(4);
  const testkit::BeaconDrip beacon(1, 9, 5);

  testkit::TransmissionLog scalar_log;
  radio::SimulatorOptions options;
  options.engine = radio::SimulatorEngine::Scalar;
  options.trace = &scalar_log;
  const radio::RunResult scalar = radio::simulate(configuration, beacon, options);

  testkit::TransmissionLog event_log;
  options.engine = radio::SimulatorEngine::Event;
  options.trace = &event_log;
  const radio::RunResult traced = radio::simulate(configuration, beacon, options);

  expect_same_run(scalar, traced, "trace fallback");
  EXPECT_EQ(scalar_log.entries(), event_log.entries());
}

// ------------------------------------------------------------ scratch reuse

TEST(SimulatorFast, ScratchReuseStaysBitIdentical) {
  // One scratch driven through an interleaved sequence of configurations,
  // sizes, drips and seeds — every run must equal the same run on a fresh
  // scratch.  This is the engine-worker usage pattern (one scratch, many
  // jobs) plus the repeated-run pattern (same config twice in a row).
  support::Rng rng(99);
  std::vector<config::Configuration> configurations;
  for (int i = 0; i < 6; ++i) {
    configurations.push_back(random_configuration(rng));
  }
  radio::SimulatorScratch reused;
  for (const radio::SimulatorEngine engine :
       {radio::SimulatorEngine::Scalar, radio::SimulatorEngine::Event}) {
    int step = 0;
    for (const std::size_t index : {0u, 1u, 0u, 2u, 3u, 3u, 4u, 5u, 0u}) {
      const config::Configuration& configuration = configurations[index];
      const testkit::BeaconDrip beacon(1 + step % 3, 5, 6);
      radio::SimulatorOptions options;
      options.engine = engine;
      options.coin_seed = static_cast<std::uint64_t>(step);
      const radio::RunResult with_reuse = radio::simulate(configuration, beacon, options, reused);
      radio::SimulatorScratch fresh;
      const radio::RunResult with_fresh = radio::simulate(configuration, beacon, options, fresh);
      expect_same_run(with_fresh, with_reuse,
                      "scratch reuse step " + std::to_string(step) +
                          (engine == radio::SimulatorEngine::Scalar ? " scalar" : " event"));
      ++step;
    }
  }
}

TEST(SimulatorFast, PooledProgramsResetBetweenDrips) {
  // The event engine hands the scratch's program pool to each run's drip,
  // and the canonical drip overwrites the CanonicalPrograms it finds there
  // with fresh ones instead of allocating.  One scratch runs an interleaved
  // sequence — canonical in strict mode on a three-phase schedule, canonical
  // in robust mode on a configuration its schedule was not compiled for (its
  // programs end failed), the binary-search baseline (its programs replace
  // canonical ones), the testkit drips, and canonical again — and every run
  // must equal the scalar loop's on a fresh scratch.  A reused program that
  // kept state of the earlier run (failed, done, phase, base, block) or a
  // slot left holding a program of the wrong type would show as a different
  // run.
  const config::Configuration g3 = config::family_g(3);
  const graph::NodeId n = g3.size();
  support::Rng rng(2026);
  const config::Configuration retagged = config::random_tags_with_span(g3.graph(), 9, rng);
  const config::Configuration single_hop = config::single_hop({0, 0, 0, 0, 0, 0, 0, 0});
  const config::Configuration small = random_configuration(rng);

  const std::shared_ptr<const core::CanonicalSchedule> schedule = core::make_schedule(g3);
  ASSERT_EQ(schedule->phases.size(), 3u);
  const core::CanonicalDrip strict(schedule, core::MismatchPolicy::Strict);
  const core::CanonicalDrip robust(schedule, core::MismatchPolicy::Robust);
  const auto robust_own = canonical_for(small, radio::ChannelModel::CollisionDetection);
  const baselines::BinarySearchElection binary_search(/*label_bits=*/3);
  const testkit::BeaconDrip beacon(2, /*payload=*/4, /*lifetime=*/7);
  const testkit::SilentDrip silent(5);
  const testkit::ImmortalDrip immortal;

  radio::SimulatorScratch pool;
  int step = 0;
  const auto check = [&](const config::Configuration& configuration, const radio::Drip& drip,
                         radio::SimulatorOptions options) {
    const std::string what = "pool step " + std::to_string(step++) + " " + drip.name();
    radio::SimulatorScratch fresh;
    options.engine = radio::SimulatorEngine::Scalar;
    const radio::RunResult scalar = radio::simulate(configuration, drip, options, fresh);
    options.engine = radio::SimulatorEngine::Event;
    const radio::RunResult pooled = radio::simulate(configuration, drip, options, pool);
    expect_same_run(scalar, pooled, what);
    return scalar;
  };
  radio::SimulatorOptions labeled;
  labeled.labels = {5, 3, 0, 7, 1, 6, 2, 4};
  radio::SimulatorOptions horizon;
  horizon.max_rounds = 30;

  for (int round = 0; round < 2; ++round) {
    const radio::RunResult elected = check(g3, strict, {});
    EXPECT_EQ(elected.leaders(), std::vector<graph::NodeId>{config::family_g_center(3)});

    // Robust on a configuration the schedule does not describe: some node
    // stops before the schedule's last round, so the pool holds failed
    // programs.
    const radio::RunResult failed = check(retagged, robust, {});
    bool stopped_early = false;
    for (graph::NodeId v = 0; v < n; ++v) {
      stopped_early =
          stopped_early || failed.nodes[v].done_round < robust.schedule().total_rounds();
    }
    EXPECT_TRUE(stopped_early);

    check(single_hop, binary_search, labeled);
    check(g3, strict, {});
    check(small, beacon, {});
    check(g3, silent, {});
    check(small, *robust_own, {});
    check(g3, immortal, horizon);
  }
}

// ------------------------------------------------------- keep_histories off

TEST(SimulatorFast, DroppedHistoriesPreserveEverythingElse) {
  // keep_histories = false empties the returned histories but must keep
  // history_length() and every other field identical, on both engines.
  support::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const config::Configuration configuration = random_configuration(rng);
    const testkit::BeaconDrip beacon(1 + i % 3, 2, 5 + i % 4);
    for (const radio::SimulatorEngine engine :
         {radio::SimulatorEngine::Scalar, radio::SimulatorEngine::Event}) {
      radio::SimulatorOptions options;
      options.engine = engine;
      const radio::RunResult kept = radio::simulate(configuration, beacon, options);
      options.keep_histories = false;
      const radio::RunResult dropped = radio::simulate(configuration, beacon, options);
      ASSERT_EQ(kept.nodes.size(), dropped.nodes.size());
      EXPECT_EQ(kept.rounds_executed, dropped.rounds_executed);
      EXPECT_EQ(kept.all_terminated, dropped.all_terminated);
      EXPECT_TRUE(kept.stats == dropped.stats);
      for (std::size_t v = 0; v < kept.nodes.size(); ++v) {
        EXPECT_TRUE(dropped.nodes[v].history.empty());
        EXPECT_EQ(kept.nodes[v].history_length(), dropped.nodes[v].history_length());
        EXPECT_EQ(kept.nodes[v].wake_round, dropped.nodes[v].wake_round);
        EXPECT_EQ(kept.nodes[v].forced_wake, dropped.nodes[v].forced_wake);
        EXPECT_EQ(kept.nodes[v].terminated, dropped.nodes[v].terminated);
        EXPECT_EQ(kept.nodes[v].done_round, dropped.nodes[v].done_round);
        EXPECT_EQ(kept.nodes[v].elected, dropped.nodes[v].elected);
      }
    }
  }
}

// ------------------------------------------------------------- batch engine

TEST(SimulatorFast, EngineModesProduceSameResultsAcrossThreadCounts) {
  // The engine layer: a mixed-protocol sweep through the scalar and
  // wavefront modes at 1, 2 and 8 worker threads (with and without the
  // schedule cache) must agree on every outcome and aggregate.
  const engine::WorkloadSpec workload = engine::parse_workload("random:n=8,p=0.3,sigma=3");
  const engine::CountedSweep sweep = workload.instantiate(
      /*seed=*/17,
      {core::ProtocolSpec::canonical(), core::ProtocolSpec::randomized()},
      {.count = 48});

  std::optional<engine::BatchReport> reference;
  for (const engine::EngineMode mode :
       {engine::EngineMode::Scalar, engine::EngineMode::Wavefront, engine::EngineMode::Auto}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const std::size_t cache : {std::size_t{0}, engine::ScheduleCache::kDefaultCapacity}) {
        engine::BatchRunner runner(
            {.threads = threads, .seed = 17, .cache_capacity = cache, .engine = mode});
        const engine::BatchReport report = runner.run(sweep.count, sweep.source);
        if (!reference) {
          reference = report;
          continue;
        }
        EXPECT_TRUE(engine::same_results(*reference, report))
            << "mode " << static_cast<int>(mode) << ", threads " << threads << ", cache "
            << cache;
      }
    }
  }
}

TEST(SimulatorFast, MutationSweepEngineParityAtN64) {
  // The E5 benchmark shape in miniature: single-tag mutations of an n=64
  // configuration with a large tag span, where nodes spend almost every
  // round parked on the fast path.  Scalar and wavefront reports must carry
  // identical results.
  support::Rng rng(4242);
  const config::Configuration base =
      config::random_tags_with_span(graph::gnp_connected(64, 0.1, rng), 256, rng);
  const std::vector<config::Configuration> neighbourhood =
      config::all_tag_mutations(base, base.span());
  std::vector<engine::BatchJob> jobs;
  for (std::size_t i = 0; i < neighbourhood.size() && jobs.size() < 12; i += 997) {
    jobs.push_back({neighbourhood[i], core::ProtocolSpec::canonical(), {}});
  }
  ASSERT_FALSE(jobs.empty());

  std::optional<engine::BatchReport> reference;
  for (const engine::EngineMode mode :
       {engine::EngineMode::Scalar, engine::EngineMode::Wavefront}) {
    engine::BatchRunner runner({.threads = 2,
                                .seed = 5,
                                .cache_capacity = engine::ScheduleCache::kDefaultCapacity,
                                .engine = mode});
    const engine::BatchReport report = runner.run(jobs);
    if (!reference) {
      reference = report;
    } else {
      EXPECT_TRUE(engine::same_results(*reference, report));
    }
  }
}

}  // namespace
