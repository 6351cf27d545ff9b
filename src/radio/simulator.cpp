#include "radio/simulator.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
#include <utility>

#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace arl::radio {

namespace {

/// Runtime state of one node.
struct NodeState {
  enum class Phase : std::uint8_t { Asleep, Awake, Terminated };

  Phase phase = Phase::Asleep;
  config::Round wake_round = 0;
  bool forced = false;
  bool woke_this_round = false;
  bool transmitting = false;
  Message outgoing = 0;
  std::unique_ptr<NodeProgram> program;
  History history;
  std::size_t dropped = 0;
};

/// Appends an entry, evicting the oldest entries in chunks when a window is
/// set (amortized O(1) per append).
void push_entry(NodeState& node, HistoryEntry entry, std::optional<std::size_t> window) {
  node.history.push_back(entry);
  if (window && node.history.size() > 2 * *window) {
    const std::size_t evict = node.history.size() - *window;
    node.history.erase(node.history.begin(),
                       node.history.begin() + static_cast<std::ptrdiff_t>(evict));
    node.dropped += evict;
  }
}

/// Fast-path node phases (SimulatorScratch::phase_).  kStopped covers both
/// termination and an injected crash.
constexpr std::uint8_t kAsleep = 0;
constexpr std::uint8_t kAwake = 1;
constexpr std::uint8_t kStopped = 2;

/// A round no run reaches: the initial channel and transmitter stamps.
constexpr config::Round kNoRound = std::numeric_limits<config::Round>::max();

/// Folds the per-node energy counters into the aggregate maxima.
void finish_energy_stats(RunResult& result) {
  for (const NodeOutcome& node : result.nodes) {
    result.stats.max_node_transmissions =
        std::max(result.stats.max_node_transmissions, node.transmissions);
    result.stats.max_node_awake_rounds =
        std::max(result.stats.max_node_awake_rounds, node.awake_rounds);
  }
}

}  // namespace

std::vector<graph::NodeId> RunResult::leaders() const {
  std::vector<graph::NodeId> out;
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    if (nodes[v].elected) {
      out.push_back(static_cast<graph::NodeId>(v));
    }
  }
  return out;
}

Simulator::Simulator(const config::Configuration& configuration, const Drip& drip,
                     SimulatorOptions options)
    : configuration_(configuration), drip_(drip), options_(options) {
  ARL_EXPECTS(options_.max_rounds > 0, "horizon must be positive");
}

RunResult Simulator::run() const {
  SimulatorScratch scratch;
  return run(scratch);
}

RunResult Simulator::run(SimulatorScratch& scratch) const {
  // Tracing is a scalar-loop feature: the fast path calls no decide() in a
  // parked node's rounds and visits nodes in calendar order, which the
  // results never show but a per-action trace would.
  if (options_.engine == SimulatorEngine::Scalar || options_.trace != nullptr) {
    return run_scalar(scratch);
  }
  return run_event(scratch);
}

std::optional<std::size_t> Simulator::window() const {
  const std::optional<std::size_t> window =
      options_.history_window ? options_.history_window : drip_.history_window();
  if (window && *window == 0) {
    return std::nullopt;  // 0 = explicit "retain everything" override
  }
  return window;
}

const fault::FaultContext& Simulator::prepare_faults(SimulatorScratch& scratch) const {
  // The crash schedule and staggered wakeup tags are precomputed here (the
  // obs fault-inject phase); the channel dice are pure functions of (seed,
  // round, node) rolled during the run.
  fault::FaultContext& fault = scratch.fault_;
  const graph::NodeId n = configuration_.graph().node_count();
  if (!options_.fault.active()) {
    fault.reset(options_.fault, n);
    return fault;
  }
  const obs::PhaseTimer span(obs::Phase::FaultInject);
  fault.reset(options_.fault, n);
  scratch.effective_tag_.clear();
  if (fault.max_wake_delay() > 0) {
    scratch.effective_tag_.resize(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::uint64_t staggered =
          static_cast<std::uint64_t>(configuration_.tag(v)) + fault.wake_delay(v);
      scratch.effective_tag_[v] = static_cast<config::Round>(
          std::min<std::uint64_t>(staggered, std::numeric_limits<config::Round>::max()));
    }
  }
  return fault;
}

RunResult Simulator::run_scalar(SimulatorScratch& scratch) const {
  const graph::Graph& graph = configuration_.graph();
  const graph::NodeId n = graph.node_count();
  const std::optional<std::size_t> window = this->window();
  TraceSink* trace = options_.trace;

  ARL_EXPECTS(options_.labels.empty() || options_.labels.size() == n,
              "labels must be absent or cover every node");
  support::Rng seeder(options_.coin_seed);
  std::vector<NodeState> nodes(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeEnv env;
    env.coin_seed = seeder.split(v).next();
    if (!options_.labels.empty()) {
      env.label = options_.labels[v];
    }
    nodes[v].program = drip_.instantiate(env);
    ARL_ENSURES(nodes[v].program != nullptr, "drip must produce a program");
  }

  const fault::FaultContext& fault = prepare_faults(scratch);
  const bool fault_on = fault.active();
  const bool staggered_wake = fault.max_wake_delay() > 0;
  auto wake_tag = [&](graph::NodeId v) -> config::Round {
    return staggered_wake ? scratch.effective_tag_[v] : configuration_.tag(v);
  };

  RunResult result;
  result.nodes.resize(n);

  // Per-round channel resolution uses epoch-stamped counters so no clearing
  // pass is needed between rounds.
  std::vector<config::Round>& stamp = scratch.stamp_;
  std::vector<std::uint32_t>& transmitter_count = scratch.transmitter_count_;
  std::vector<Message>& pending_message = scratch.pending_message_;
  std::vector<graph::NodeId>& transmitters = scratch.transmitters_;
  stamp.assign(n, kNoRound);
  transmitter_count.assign(n, 0);
  pending_message.assign(n, 0);
  transmitters.clear();

  std::uint32_t live = n;  // nodes not yet terminated

  config::Round round = 0;
  for (; round < options_.max_rounds && live > 0; ++round) {
    if (trace != nullptr) {
      trace->on_round_begin(round);
    }

    // 0. Injected crash-stops: a crashed node halts before acting this
    //    round and never terminates properly (NodeOutcome::terminated stays
    //    false, so a crashed run can only verify as a detected fault).
    if (fault_on) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (nodes[v].phase != NodeState::Phase::Terminated && fault.crash_round(v) == round) {
          nodes[v].phase = NodeState::Phase::Terminated;
          result.nodes[v].crashed = true;
          ++result.stats.injected_crashes;
          --live;
        }
      }
    }

    // 1. Spontaneous wakeups: (possibly staggered) tag == round.
    for (graph::NodeId v = 0; v < n; ++v) {
      NodeState& node = nodes[v];
      node.woke_this_round = false;
      node.transmitting = false;
      if (node.phase == NodeState::Phase::Asleep && wake_tag(v) == round) {
        node.phase = NodeState::Phase::Awake;
        node.wake_round = round;
        node.forced = false;
        node.woke_this_round = true;
        if (staggered_wake && scratch.effective_tag_[v] != configuration_.tag(v)) {
          ++result.stats.delayed_wakeups;
        }
      }
    }

    // 2. Actions of nodes awake since an earlier round.
    transmitters.clear();
    for (graph::NodeId v = 0; v < n; ++v) {
      NodeState& node = nodes[v];
      if (node.phase != NodeState::Phase::Awake || node.woke_this_round) {
        continue;
      }
      const config::Round local = round - node.wake_round;
      const HistoryView view(node.history, node.dropped);
      ARL_ASSERT(view.length() == local, "history length must equal the local round");
      const Action action = node.program->decide(local, view);
      ++result.stats.node_rounds;
      ++result.nodes[v].awake_rounds;
      if (trace != nullptr) {
        trace->on_action(v, round, local, action);
      }
      switch (action.kind) {
        case Action::Kind::Listen:
          break;
        case Action::Kind::Transmit:
          node.transmitting = true;
          node.outgoing = action.message;
          transmitters.push_back(v);
          ++result.stats.transmissions;
          ++result.nodes[v].transmissions;
          break;
        case Action::Kind::Terminate:
          node.phase = NodeState::Phase::Terminated;
          // H[done_v] is recorded as (∅): a terminating node no longer
          // interacts with the channel (same convention as a transmitter),
          // and the paper's decision function consumes H[0..done_v].
          push_entry(node, HistoryEntry::silence(), window);
          result.nodes[v].terminated = true;
          result.nodes[v].done_round = local;
          --live;
          break;
      }
    }

    // 3. Channel resolution: stamp the neighbourhoods of all transmitters.
    for (const graph::NodeId t : transmitters) {
      for (const graph::NodeId w : graph.neighbors(t)) {
        if (stamp[w] != round) {
          stamp[w] = round;
          transmitter_count[w] = 0;
        }
        ++transmitter_count[w];
        pending_message[w] = nodes[t].outgoing;
      }
    }
    auto channel_at = [&](graph::NodeId v) -> HistoryEntry {
      if (stamp[v] != round || transmitter_count[v] == 0) {
        return HistoryEntry::silence();
      }
      if (transmitter_count[v] == 1) {
        return HistoryEntry::message(pending_message[v]);
      }
      // Without collision detection, noise is indistinguishable from silence.
      return options_.channel_model == ChannelModel::CollisionDetection
                 ? HistoryEntry::collision()
                 : HistoryEntry::silence();
    };
    // Channel faults apply per listener on top of the resolved channel: a
    // clean message may be erased to silence (drop) or garbled to noise
    // (corrupt) by this listener's die.  Called at most once per node per
    // round, so the injected-event counters are exact.
    auto perceived_at = [&](graph::NodeId v) -> HistoryEntry {
      const HistoryEntry entry = channel_at(v);
      if (fault_on && entry.is_message()) {
        if (fault.drop_message(round, v)) {
          ++result.stats.injected_drops;
          return HistoryEntry::silence();
        }
        if (fault.corrupt_message(round, v)) {
          ++result.stats.injected_corruptions;
          // A garbled message sounds like a collision — which, without
          // collision detection, is indistinguishable from silence.
          return options_.channel_model == ChannelModel::CollisionDetection
                     ? HistoryEntry::collision()
                     : HistoryEntry::silence();
        }
      }
      return entry;
    };

    // 4. Record histories and process wakeups.
    for (graph::NodeId v = 0; v < n; ++v) {
      NodeState& node = nodes[v];
      switch (node.phase) {
        case NodeState::Phase::Terminated:
          break;
        case NodeState::Phase::Awake: {
          HistoryEntry entry = HistoryEntry::silence();
          if (node.woke_this_round) {
            // H[0] of a spontaneous wakeup, subject to the wake policy.
            const HistoryEntry channel = perceived_at(v);
            if (channel.is_message()) {
              // Tag round coincides with a clean reception: the paper counts
              // r <= t_v receptions as forced wakeups.
              node.forced = true;
              entry = channel;
              ++result.stats.forced_wakeups;
            } else if (options_.wake_policy == WakePolicy::HearAll) {
              entry = channel;
            }
            result.nodes[v].wake_round = node.wake_round;
            result.nodes[v].forced_wake = node.forced;
            if (trace != nullptr) {
              trace->on_wake(v, round, node.forced, entry);
            }
          } else if (node.transmitting) {
            entry = HistoryEntry::silence();  // a transmitter hears nothing
          } else {
            entry = perceived_at(v);
            if (entry.is_message()) {
              ++result.stats.clean_receptions;
            } else if (entry.is_collision()) {
              ++result.stats.collisions_heard;
            }
          }
          push_entry(node, entry, window);
          if (trace != nullptr && !node.woke_this_round) {
            trace->on_reception(v, round, entry);
          }
          break;
        }
        case NodeState::Phase::Asleep: {
          const HistoryEntry channel = perceived_at(v);
          if (channel.is_message()) {
            // Forced wakeup: a clean message wakes a sleeper; noise does not.
            node.phase = NodeState::Phase::Awake;
            node.wake_round = round;
            node.forced = true;
            node.woke_this_round = true;
            push_entry(node, channel, window);
            result.nodes[v].wake_round = round;
            result.nodes[v].forced_wake = true;
            ++result.stats.forced_wakeups;
            if (trace != nullptr) {
              trace->on_wake(v, round, true, channel);
            }
          }
          break;
        }
      }
    }

    if (trace != nullptr) {
      trace->on_round_end(round);
    }
  }

  result.rounds_executed = round;
  result.all_terminated = (live == 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeState& node = nodes[v];
    if (options_.keep_histories) {
      result.nodes[v].history = std::move(node.history);
      result.nodes[v].history_dropped = node.dropped;
    } else {
      result.nodes[v].history_dropped = node.dropped + node.history.size();
    }
    result.nodes[v].elected = node.program->elected();
    if (node.phase == NodeState::Phase::Awake || node.phase == NodeState::Phase::Terminated) {
      result.nodes[v].wake_round = node.wake_round;
      result.nodes[v].forced_wake = node.forced;
    }
  }
  finish_energy_stats(result);
  return result;
}

RunResult Simulator::run_event(SimulatorScratch& s) const {
  const graph::Graph& graph = configuration_.graph();
  const graph::NodeId n = graph.node_count();
  const std::optional<std::size_t> window = this->window();
  const config::Round horizon = options_.max_rounds;
  const bool cd = options_.channel_model == ChannelModel::CollisionDetection;

  ARL_EXPECTS(options_.labels.empty() || options_.labels.size() == n,
              "labels must be absent or cover every node");

  // Per-node coin seeds, cached per master seed.  split(v) depends only on
  // (seed, v), so a cache built for a smaller n extends in place.
  if (!s.seeds_valid_ || s.seeds_from_ != options_.coin_seed) {
    s.coin_seeds_.clear();
    s.seeds_from_ = options_.coin_seed;
    s.seeds_valid_ = true;
  }
  if (s.coin_seeds_.size() < n) {
    const support::Rng seeder(options_.coin_seed);
    const std::size_t known = s.coin_seeds_.size();
    s.coin_seeds_.resize(n);
    for (std::size_t v = known; v < n; ++v) {
      s.coin_seeds_[v] = seeder.split(v).next();
    }
  }

  // Programs are stateful and re-instantiated into a pool whose slots the
  // drip may reuse in place; the pool and the history arena keep their
  // capacity across runs.
  if (s.programs_.size() < n) {
    s.programs_.resize(n);
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeEnv env;
    env.coin_seed = s.coin_seeds_[v];
    if (!options_.labels.empty()) {
      env.label = options_.labels[v];
    }
    drip_.instantiate_into(s.programs_[v], env);
    ARL_ENSURES(s.programs_[v] != nullptr, "drip must produce a program");
  }
  s.events_.clear();
  s.segments_.assign(n, {});
  s.phase_.assign(n, kAsleep);
  s.wake_round_.assign(n, 0);
  s.forced_.assign(n, 0);
  s.stopped_length_.assign(n, 0);
  s.transmit_round_.assign(n, kNoRound);
  s.outgoing_.assign(n, 0);
  s.stamp_.assign(n, kNoRound);
  s.transmitter_count_.assign(n, 0);
  s.pending_message_.assign(n, 0);

  const fault::FaultContext& fault = prepare_faults(s);
  const bool fault_on = fault.active();
  const bool staggered_wake = fault.max_wake_delay() > 0;

  // The calendars: spontaneous wakeups and crash-stops sorted by round, and
  // parked nodes in a min-heap keyed by the round of their next decide().
  s.wake_events_.clear();
  for (graph::NodeId v = 0; v < n; ++v) {
    s.wake_events_.emplace_back(staggered_wake ? s.effective_tag_[v] : configuration_.tag(v), v);
  }
  std::sort(s.wake_events_.begin(), s.wake_events_.end());
  s.crash_events_.clear();
  if (fault_on) {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (fault.crash_round(v) != fault::FaultContext::kNeverCrashes) {
        s.crash_events_.emplace_back(fault.crash_round(v), v);
      }
    }
    std::sort(s.crash_events_.begin(), s.crash_events_.end());
  }
  s.parked_.clear();
  s.due_.clear();

  RunResult result;
  result.nodes.resize(n);

  // Records a non-silent H[index].  A full segment moves to the arena's
  // end with twice the room.  Under a window, events the window has evicted
  // are pruned once they outnumber the retained span, which keeps a segment
  // O(window) at amortized O(1) per event.
  auto record = [&](graph::NodeId v, std::size_t index, HistoryEntry entry) {
    SimulatorScratch::Segment& segment = s.segments_[v];
    if (segment.size == segment.capacity) {
      const std::size_t begin = s.events_.size();
      segment.capacity = std::max<std::size_t>(4, 2 * segment.capacity);
      s.events_.resize(begin + segment.capacity);
      std::copy_n(s.events_.data() + segment.begin, segment.size, s.events_.data() + begin);
      segment.begin = begin;
    }
    HistoryEvent* const events = s.events_.data() + segment.begin;
    events[segment.size++] = {index, entry};
    if (window && segment.size > 4 * *window + 2) {
      const std::size_t first_kept = window_first_kept(index + 1, window);
      const HistoryEvent* const kept_end =
          std::remove_if(events, events + segment.size,
                         [&](const HistoryEvent& e) { return e.index < first_kept; });
      segment.size = static_cast<std::size_t>(kept_end - events);
    }
  };
  auto events_of = [&](graph::NodeId v) {
    return std::span<const HistoryEvent>(s.events_).subspan(s.segments_[v].begin,
                                                            s.segments_[v].size);
  };
  auto view = [&](graph::NodeId v, std::size_t length) {
    return HistoryView(events_of(v), length, window_first_kept(length, window));
  };
  // Parks an awake node until its next decide(): next round when its
  // program promises no listen streak, else after the streak (never, when
  // the streak reaches the horizon).
  config::Round round = 0;
  auto schedule = [&](graph::NodeId v) {
    const config::Round local = round + 1 - s.wake_round_[v];
    const config::Round streak = s.programs_[v]->listen_streak(local, view(v, local));
    if (streak == 0) {
      s.due_.push_back(v);
      return;
    }
    const std::uint64_t at = std::uint64_t{round} + 1 + streak;
    if (at < horizon) {
      s.parked_.emplace_back(static_cast<config::Round>(at), v);
      std::push_heap(s.parked_.begin(), s.parked_.end(), std::greater<>());
    }
  };

  std::uint32_t live = n;
  config::Round executed = horizon;  // rounds_executed unless all stop first
  std::size_t next_wake = 0;
  std::size_t next_crash = 0;
  while (live > 0) {
    // Jump to the next round in which anything happens; every round in
    // between is silent for everyone and changes nothing but lengths.
    std::uint64_t next = s.due_.empty() ? horizon : std::uint64_t{round} + 1;
    if (next_wake < s.wake_events_.size()) {
      next = std::min<std::uint64_t>(next, s.wake_events_[next_wake].first);
    }
    if (next_crash < s.crash_events_.size()) {
      next = std::min(next, s.crash_events_[next_crash].first);
    }
    if (!s.parked_.empty()) {
      next = std::min<std::uint64_t>(next, s.parked_.front().first);
    }
    if (next >= horizon) {
      break;
    }
    round = static_cast<config::Round>(next);

    // 0. Injected crash-stops, before anyone acts (as in the scalar loop).
    while (next_crash < s.crash_events_.size() && s.crash_events_[next_crash].first == round) {
      const graph::NodeId v = s.crash_events_[next_crash++].second;
      if (s.phase_[v] == kStopped) {
        continue;
      }
      if (s.phase_[v] == kAwake) {
        s.stopped_length_[v] = round - s.wake_round_[v];
      }
      s.phase_[v] = kStopped;
      result.nodes[v].crashed = true;
      ++result.stats.injected_crashes;
      --live;
    }

    // 1. Spontaneous wakeups at the (possibly staggered) tag.
    s.woke_.clear();
    while (next_wake < s.wake_events_.size() && s.wake_events_[next_wake].first == round) {
      const graph::NodeId v = s.wake_events_[next_wake++].second;
      if (s.phase_[v] != kAsleep) {
        continue;  // force-woken or crashed earlier
      }
      s.phase_[v] = kAwake;
      s.wake_round_[v] = round;
      s.woke_.push_back(v);
      if (staggered_wake && s.effective_tag_[v] != configuration_.tag(v)) {
        ++result.stats.delayed_wakeups;
      }
    }

    // 2. Actions of the nodes due this round: last round's active list plus
    //    the nodes parked until now.
    s.acting_.clear();
    s.acting_.swap(s.due_);
    while (!s.parked_.empty() && s.parked_.front().first == round) {
      std::pop_heap(s.parked_.begin(), s.parked_.end(), std::greater<>());
      s.acting_.push_back(s.parked_.back().second);
      s.parked_.pop_back();
    }
    s.transmitters_.clear();
    for (const graph::NodeId v : s.acting_) {
      if (s.phase_[v] != kAwake) {
        continue;  // crashed while waiting
      }
      const config::Round local = round - s.wake_round_[v];
      const Action action = s.programs_[v]->decide(local, view(v, local));
      switch (action.kind) {
        case Action::Kind::Listen:
          break;
        case Action::Kind::Transmit:
          s.transmit_round_[v] = round;
          s.outgoing_[v] = action.message;
          s.transmitters_.push_back(v);
          ++result.stats.transmissions;
          ++result.nodes[v].transmissions;
          break;
        case Action::Kind::Terminate:
          // H[done_v] is (∅), as in the scalar loop.
          s.phase_[v] = kStopped;
          s.stopped_length_[v] = local + 1;
          result.nodes[v].terminated = true;
          result.nodes[v].done_round = local;
          --live;
          break;
      }
    }

    // 3. Channel resolution around the transmitters only: every other node
    //    hears silence, which its history records by omission.
    s.touched_.clear();
    for (const graph::NodeId t : s.transmitters_) {
      for (const graph::NodeId w : graph.neighbors(t)) {
        if (s.stamp_[w] != round) {
          s.stamp_[w] = round;
          s.transmitter_count_[w] = 0;
          s.touched_.push_back(w);
        }
        ++s.transmitter_count_[w];
        s.pending_message_[w] = s.outgoing_[t];
      }
    }
    for (const graph::NodeId w : s.touched_) {
      if (s.phase_[w] == kStopped || s.transmit_round_[w] == round) {
        continue;  // stopped nodes hear nothing; a transmitter hears (∅)
      }
      HistoryEntry heard = HistoryEntry::message(s.pending_message_[w]);
      if (s.transmitter_count_[w] > 1) {
        // Without collision detection, noise is indistinguishable from silence.
        heard = cd ? HistoryEntry::collision() : HistoryEntry::silence();
      }
      // Channel faults: the same dice on the same (round, listener) pairs
      // as the scalar loop — every clean message reaching a live listener.
      if (fault_on && heard.is_message()) {
        if (fault.drop_message(round, w)) {
          ++result.stats.injected_drops;
          heard = HistoryEntry::silence();
        } else if (fault.corrupt_message(round, w)) {
          ++result.stats.injected_corruptions;
          heard = cd ? HistoryEntry::collision() : HistoryEntry::silence();
        }
      }
      if (s.phase_[w] == kAsleep) {
        if (heard.is_message()) {
          // Forced wakeup: a clean message wakes a sleeper; noise does not.
          s.phase_[w] = kAwake;
          s.wake_round_[w] = round;
          s.forced_[w] = 1;
          record(w, 0, heard);
          ++result.stats.forced_wakeups;
          s.woke_.push_back(w);
        }
      } else if (s.wake_round_[w] == round) {
        // H[0] of a spontaneous wakeup, subject to the wake policy.
        if (heard.is_message()) {
          s.forced_[w] = 1;
          ++result.stats.forced_wakeups;
          record(w, 0, heard);
        } else if (options_.wake_policy == WakePolicy::HearAll && !heard.is_silence()) {
          record(w, 0, heard);
        }
      } else if (!heard.is_silence()) {
        if (heard.is_message()) {
          ++result.stats.clean_receptions;
        } else {
          ++result.stats.collisions_heard;
        }
        record(w, round - s.wake_round_[w], heard);
      }
    }

    // 4. Park every node that acted or woke until its next decide().
    for (const graph::NodeId v : s.acting_) {
      if (s.phase_[v] == kAwake) {
        schedule(v);
      }
    }
    for (const graph::NodeId v : s.woke_) {
      schedule(v);
    }

    if (live == 0) {
      executed = round + 1;
    }
  }

  result.rounds_executed = executed;
  result.all_terminated = (live == 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeOutcome& out = result.nodes[v];
    const std::size_t length =
        s.phase_[v] == kAwake ? executed - s.wake_round_[v] : s.stopped_length_[v];
    const std::size_t first_kept = window_first_kept(length, window);
    out.wake_round = s.wake_round_[v];
    out.forced_wake = s.forced_[v] != 0;
    out.awake_rounds = length > 0 ? length - 1 : 0;
    result.stats.node_rounds += out.awake_rounds;
    out.elected = s.programs_[v]->elected();
    if (options_.keep_histories) {
      out.history.assign(length - first_kept, HistoryEntry::silence());
      for (const HistoryEvent& event : events_of(v)) {
        if (event.index >= first_kept) {
          out.history[event.index - first_kept] = event.entry;
        }
      }
      out.history_dropped = first_kept;
    } else {
      out.history_dropped = length;
    }
  }
  finish_energy_stats(result);
  return result;
}

RunResult simulate(const config::Configuration& configuration, const Drip& drip,
                   SimulatorOptions options) {
  Simulator simulator(configuration, drip, std::move(options));
  return simulator.run();
}

RunResult simulate(const config::Configuration& configuration, const Drip& drip,
                   SimulatorOptions options, SimulatorScratch& scratch) {
  Simulator simulator(configuration, drip, std::move(options));
  return simulator.run(scratch);
}

}  // namespace arl::radio
