#pragma once

/// \file simulator.hpp
/// Discrete synchronous-round simulator for anonymous radio networks with
/// collision detection (the model of paper §1.1/§2).
///
/// Semantics implemented, per global round r:
///  1. Every sleeping node whose wakeup tag equals r wakes spontaneously.
///  2. Every node that woke in an earlier round and has not terminated runs
///     its program: local round i = r - wake_round, action = D(H[0..i-1]).
///     (A node never acts in its wake round — local round 0 — matching the
///     model: "the local clock has value 0 in the wakeup round and the node
///     starts executing in local round 1".)
///  3. Channel resolution at each node: 0 transmitting neighbours → silence,
///     exactly 1 → that message, >= 2 → noise (∗).  Transmitters hear (∅).
///  4. Sleeping nodes (round < tag): a clean message forces a wakeup with
///     H[0] = (M); noise does NOT wake them (a forced wakeup requires
///     *receiving a message*, §2.1).  Nodes that woke spontaneously in this
///     round record H[0] from the channel per the wake policy below.
///
/// Wake-round hearing policy: the paper specifies H[0] = (M) for forced
/// wakeups and (∅) for spontaneous ones, but leaves open what a node waking
/// at its tag hears if the channel is non-silent in exactly that round.
/// `WakePolicy::HearAll` (default) records the channel state (∅/M/∗);
/// `WakePolicy::SilentWake` records (∅) unless a clean message arrived.
/// Patient protocols — everything the paper's positive results execute —
/// never transmit while any node sleeps, so the policy is unobservable for
/// them (asserted by tests).
///
/// Two engines execute these semantics.  The scalar loop is the reference:
/// it walks every node in every round and keeps dense histories.  The
/// event-driven fast path does work only where something happens.  A node
/// whose program promises a listen streak (NodeProgram::listen_streak) is
/// parked in a calendar until its next decide() call; a round's channel is
/// resolved only around that round's transmitters; histories are sparse
/// (non-silent entries only).  Wakeups and crash-stops are calendar events
/// too, and the drop/corrupt dice are rolled on exactly the receptions the
/// scalar loop rolls them on, so faulted runs take the fast path as well.
/// Both engines return bit-identical RunResults.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "config/configuration.hpp"
#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "radio/history.hpp"
#include "radio/program.hpp"
#include "radio/trace.hpp"

namespace arl::radio {

/// What a node waking at its tag records when the channel is non-silent.
enum class WakePolicy : std::uint8_t {
  HearAll,     ///< record the channel state: (∅), (M) or (∗)
  SilentWake,  ///< record (∅) unless a clean message arrived
};

/// Which inner loop run() executes.  Both produce bit-identical results
/// (same RunResult including RunStats and histories); the scalar loop is the
/// reference and the only one that emits trace callbacks, so a trace sink
/// runs the scalar loop whichever engine is named.
enum class SimulatorEngine : std::uint8_t {
  Scalar,          ///< the reference per-node loop
  Event,           ///< the event-driven fast path (the default)
  Bitset = Event,  ///< former name of Event, kept for existing callers
};

/// Run-control knobs.
struct SimulatorOptions {
  /// Horizon guard: the run aborts (all_terminated = false) after this many
  /// global rounds, protecting against non-terminating protocols.
  config::Round max_rounds = 1'000'000;

  /// History retention override.  Unset: the protocol's
  /// Drip::history_window() decides.  Set to 0: retain everything (useful
  /// when a test wants full histories from a windowed protocol).  Set to W:
  /// retain a suffix of >= W entries.
  std::optional<std::size_t> history_window = {};

  /// Master seed from which per-node private-coin seeds derive.
  std::uint64_t coin_seed = 0;

  /// Per-node labels for non-anonymous baseline protocols; empty (the
  /// default) leaves NodeEnv::label unset.  When non-empty, size must equal
  /// the node count.
  std::vector<std::uint64_t> labels = {};

  /// Wake-round hearing policy (see file comment).
  WakePolicy wake_policy = WakePolicy::HearAll;

  /// Channel feedback strength; the paper's model has collision detection.
  /// Under NoCollisionDetection every (∗) becomes (∅) at the listeners.
  ChannelModel channel_model = ChannelModel::CollisionDetection;

  /// Inner-loop selection (see SimulatorEngine).
  SimulatorEngine engine = SimulatorEngine::Event;

  /// Fault plan (spec + per-job seed; see fault/fault.hpp).  The default
  /// `none` plan is inactive and leaves every code path exactly as without
  /// the field.  Both engines inject an active plan identically.
  fault::FaultPlan fault = {};

  /// When false, RunResult omits the per-node history vectors (the entries
  /// are still recorded internally, so NodeOutcome::history_length() and
  /// everything else stays identical).  Batch sweeps that only consume
  /// outcomes set this to skip the final history copy-out.
  bool keep_histories = true;

  /// Optional execution observer (not owned).
  TraceSink* trace = nullptr;
};

/// Per-node results of a run.
struct NodeOutcome {
  config::Round wake_round = 0;      ///< global round the node woke in
  bool forced_wake = false;          ///< woken by a message (vs. spontaneously)
  bool terminated = false;           ///< program reached terminate
  config::Round done_round = 0;      ///< paper's done_v: local round of termination
  bool elected = false;              ///< decision function output
  bool crashed = false;              ///< halted by an injected crash fault
  History history;                   ///< retained entries (suffix if windowed)
  std::size_t history_dropped = 0;   ///< entries evicted by the window

  // Per-node energy/communication accounting (Kowalski–Mosteiro style):
  // local rounds executed (the wake round is not counted; rounds a parked
  // node listened through without a decide() call are) and rounds spent
  // transmitting.  Summed over all nodes these equal RunStats::node_rounds
  // and RunStats::transmissions.
  std::uint64_t awake_rounds = 0;    ///< local rounds this node executed
  std::uint64_t transmissions = 0;   ///< rounds this node spent transmitting

  /// Total entries ever recorded (dropped + retained).
  [[nodiscard]] std::size_t history_length() const { return history_dropped + history.size(); }
};

/// Aggregate channel statistics.
struct RunStats {
  std::uint64_t transmissions = 0;      ///< node-rounds spent transmitting
  std::uint64_t clean_receptions = 0;   ///< messages heard by awake listeners
  std::uint64_t collisions_heard = 0;   ///< noise heard by awake listeners
  std::uint64_t forced_wakeups = 0;     ///< sleepers woken by a message
  std::uint64_t node_rounds = 0;        ///< total awake node-rounds simulated

  // Per-node energy maxima (the busiest node's budget — node_rounds and
  // transmissions above are the totals).
  std::uint64_t max_node_transmissions = 0;  ///< max NodeOutcome::transmissions
  std::uint64_t max_node_awake_rounds = 0;   ///< max NodeOutcome::awake_rounds

  // Injected-fault event counts (all zero for an inactive FaultPlan).
  std::uint64_t injected_drops = 0;        ///< messages erased to silence
  std::uint64_t injected_corruptions = 0;  ///< messages garbled to noise
  std::uint64_t injected_crashes = 0;      ///< nodes crash-stopped
  std::uint64_t delayed_wakeups = 0;       ///< spontaneous wakeups staggered

  friend bool operator==(const RunStats& a, const RunStats& b) = default;
};

/// Result of one simulation.
struct RunResult {
  std::vector<NodeOutcome> nodes;
  config::Round rounds_executed = 0;  ///< number of global rounds simulated
  bool all_terminated = false;        ///< false iff the horizon guard fired
  RunStats stats;

  /// Nodes whose decision function returned true.
  [[nodiscard]] std::vector<graph::NodeId> leaders() const;
};

/// Reusable per-run working memory.  A sweep that executes many simulations
/// on one thread (e.g. an engine worker) hands the same scratch to every
/// run() and amortizes the per-run allocations; contents are overwritten
/// each run and never leak information between runs (asserted by the
/// differential tests).  A fresh scratch allocates nothing.  It holds the
/// channel-resolution buffers both engines use, the fault state, and the
/// fast path's per-node state: a pool of programs that each run hands to
/// Drip::instantiate_into (so a drip may reuse them instead of allocating),
/// the sparse histories in one arena, a per-seed coin-seed cache, and the
/// calendars.  Every buffer keeps its capacity across runs, so once the
/// scratch has seen a workload's shape a run allocates only its result.
class SimulatorScratch {
 public:
  SimulatorScratch() = default;

 private:
  friend class Simulator;
  // Both engines: epoch-stamped channel-resolution buffers.
  std::vector<config::Round> stamp_;
  std::vector<std::uint32_t> transmitter_count_;
  std::vector<Message> pending_message_;
  std::vector<graph::NodeId> transmitters_;
  // Both engines: per-run fault state and effective (staggered) wakeup tags.
  fault::FaultContext fault_;
  std::vector<config::Round> effective_tag_;
  // Fast path: per-node coin seeds, cached per master seed (split() output
  // only depends on (seed, node id), so extending for a larger n is sound).
  std::uint64_t seeds_from_ = 0;
  bool seeds_valid_ = false;
  std::vector<std::uint64_t> coin_seeds_;
  // Fast path: per-node state.  A stopped node's history length is fixed
  // when it stops; an awake node's is the current round minus its wake
  // round, so parked rounds cost nothing.  Node v's sparse history is
  // events_[begin, begin + size) of one arena, in a segment of `capacity`
  // slots: one buffer for all nodes, so no per-node store regrows when a
  // later run's node hears more than the same slot's node before it.
  struct Segment {
    std::size_t begin = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<HistoryEvent> events_;
  std::vector<Segment> segments_;
  std::vector<std::uint8_t> phase_;
  std::vector<config::Round> wake_round_;
  std::vector<std::uint8_t> forced_;
  std::vector<std::size_t> stopped_length_;
  std::vector<config::Round> transmit_round_;
  std::vector<Message> outgoing_;
  // Fast path: calendars, each sorted or heap-ordered by global round, and
  // the round's worklists.  `due_` holds the nodes that decide next round
  // (programs without a streak); `parked_` is a min-heap of the others.
  std::vector<std::pair<config::Round, graph::NodeId>> wake_events_;
  std::vector<std::pair<std::uint64_t, graph::NodeId>> crash_events_;
  std::vector<std::pair<config::Round, graph::NodeId>> parked_;
  std::vector<graph::NodeId> due_;
  std::vector<graph::NodeId> acting_;
  std::vector<graph::NodeId> woke_;
  std::vector<graph::NodeId> touched_;
};

/// Executes one protocol on one configuration.
class Simulator {
 public:
  /// Captures references; `configuration` and `drip` must outlive run().
  Simulator(const config::Configuration& configuration, const Drip& drip,
            SimulatorOptions options = {});

  // Temporaries would dangle before run(); use the simulate() free function
  // for one-shot calls with temporaries.
  Simulator(config::Configuration&&, const Drip&, SimulatorOptions = {}) = delete;
  Simulator(const config::Configuration&, Drip&&, SimulatorOptions = {}) = delete;
  Simulator(config::Configuration&&, Drip&&, SimulatorOptions = {}) = delete;

  /// Runs to global termination (all programs terminated) or the horizon.
  [[nodiscard]] RunResult run() const;

  /// Same as run(), reusing `scratch`'s buffers instead of allocating.
  [[nodiscard]] RunResult run(SimulatorScratch& scratch) const;

 private:
  [[nodiscard]] RunResult run_scalar(SimulatorScratch& scratch) const;
  [[nodiscard]] RunResult run_event(SimulatorScratch& scratch) const;

  /// The history window in force (nullopt: retain everything).
  [[nodiscard]] std::optional<std::size_t> window() const;

  /// Rebinds the scratch's fault state to this run and, under an
  /// adversarial-wake plan, fills its staggered wakeup tags; returns the
  /// context.
  const fault::FaultContext& prepare_faults(SimulatorScratch& scratch) const;

  const config::Configuration& configuration_;
  const Drip& drip_;
  SimulatorOptions options_;
};

/// Convenience wrapper: construct and run.
[[nodiscard]] RunResult simulate(const config::Configuration& configuration, const Drip& drip,
                                 SimulatorOptions options = {});

/// Convenience wrapper with buffer reuse (see SimulatorScratch).
[[nodiscard]] RunResult simulate(const config::Configuration& configuration, const Drip& drip,
                                 SimulatorOptions options, SimulatorScratch& scratch);

}  // namespace arl::radio
