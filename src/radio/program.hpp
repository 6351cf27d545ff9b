#pragma once

/// \file program.hpp
/// The protocol interface: DRIPs and per-node programs (paper §2.2–2.3).
///
/// A DRIP is formally one function D shared by all (anonymous) nodes that
/// maps a history prefix to an action.  Here a `Drip` is a factory producing
/// one `NodeProgram` per node; programs may keep incremental state, which is
/// observationally equivalent as long as the state is a function of the
/// history — `decide` is invoked once per local round, in order, with the
/// history prefix the formal model prescribes, except in the rounds a
/// program's own listen_streak() lets the simulator skip.  Anonymity is
/// structural: a program never sees a node id.  Labels (for the
/// non-anonymous baseline protocols from the related-work landscape) and
/// private coin seeds (for randomized baselines) arrive through `NodeEnv`;
/// faithful paper protocols ignore both.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "config/configuration.hpp"
#include "radio/history.hpp"

namespace arl::radio {

/// What a node does in one local round.
struct Action {
  /// The three permitted behaviours.
  enum class Kind : std::uint8_t { Listen, Transmit, Terminate };

  Kind kind = Kind::Listen;
  Message message = 0;  ///< payload when kind == Transmit

  [[nodiscard]] static Action listen() { return {Kind::Listen, 0}; }
  [[nodiscard]] static Action transmit(Message payload) { return {Kind::Transmit, payload}; }
  [[nodiscard]] static Action terminate() { return {Kind::Terminate, 0}; }

  [[nodiscard]] bool is_listen() const { return kind == Kind::Listen; }
  [[nodiscard]] bool is_transmit() const { return kind == Kind::Transmit; }
  [[nodiscard]] bool is_terminate() const { return kind == Kind::Terminate; }

  friend bool operator==(const Action& a, const Action& b) = default;
};

/// Per-node execution environment.  Anonymous deterministic protocols must
/// ignore it entirely; it exists for the labeled / randomized baselines.
struct NodeEnv {
  std::uint64_t coin_seed = 0;                ///< seed for private coins
  std::optional<std::uint64_t> label = {};    ///< distinct id, if the model grants one
};

/// The state machine run by one node.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Action for local round `local_round` (>= 1), given the history
  /// H[0..local_round-1].  Called at most once per round, in increasing round
  /// order; rounds covered by a positive listen_streak() may be skipped
  /// (the program then listened in them, and its history still records
  /// whatever they observed).
  virtual Action decide(config::Round local_round, const HistoryView& history) = 0;

  /// Fast-path hint: how many consecutive local rounds, starting at
  /// `local_round`, this program listens whatever it hears.  `history` is
  /// H[0..local_round-1], the history the next decide() would see.  The
  /// event-driven simulator parks the node for that many rounds: it calls
  /// no decide() in them, records their receptions in the history, and
  /// wakes the node for decide(local_round + k).  A program returning k > 0
  /// promises that (a) decide(local_round + j) would return Listen for every
  /// j < k, whatever rounds local_round .. local_round + j - 1 observe, and
  /// (b) skipping those k calls changes neither a later decide() nor
  /// elected().  The default (0) opts out: the node then decides in every
  /// round.
  [[nodiscard]] virtual config::Round listen_streak(config::Round local_round,
                                                    const HistoryView& history) {
    (void)local_round;
    (void)history;
    return 0;
  }

  /// Decision function f applied to the node's own history after
  /// termination: true iff this node declares itself leader.
  [[nodiscard]] virtual bool elected() const { return false; }
};

/// A distributed radio interaction protocol: the shared algorithm installed
/// at every node.
class Drip {
 public:
  virtual ~Drip() = default;

  /// Creates the program for one node.
  [[nodiscard]] virtual std::unique_ptr<NodeProgram> instantiate(const NodeEnv& env) const = 0;

  /// Puts a fresh program for one node into `slot`, which may hold a program
  /// of an earlier run (of any drip) or nothing.  A drip may reuse a program
  /// of its own type in place instead of allocating; afterwards the slot
  /// must behave exactly as `instantiate(env)` would.  The default assigns
  /// instantiate(env).
  virtual void instantiate_into(std::unique_ptr<NodeProgram>& slot, const NodeEnv& env) const {
    slot = instantiate(env);
  }

  /// Human-readable protocol name (for traces and reports).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of most recent history entries the programs inspect, or nullopt
  /// when they need the full history.  The simulator uses this to bound
  /// memory on long runs.
  [[nodiscard]] virtual std::optional<std::size_t> history_window() const { return std::nullopt; }
};

}  // namespace arl::radio
