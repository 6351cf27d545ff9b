#pragma once

/// \file history.hpp
/// Node histories and the windowed view handed to protocols.
///
/// Formally a DRIP is a function of the full history H_v[0..i-1].  Storing
/// full histories for every node is quadratic in rounds x nodes; long
/// benchmark runs instead retain a sliding suffix window (protocols declare
/// how far back they look via Drip::history_window()).  HistoryView exposes
/// the total length plus the retained suffix, and traps any out-of-window
/// access as a contract violation, so windowing can never silently change
/// protocol behaviour.
///
/// A view reads one of two stores.  The dense store (`History`) holds every
/// retained entry; the scalar reference loop and the patient wrapper keep
/// it.  The sparse store (a run of `HistoryEvent`s, such as a
/// `SparseHistory`) holds only the non-silent entries as (index, entry)
/// pairs, with the length and the window's first retained index alongside;
/// the event-driven simulator keeps one per node, all in one arena, because
/// a canonical execution is almost all silence.  Both answer every query
/// the same way: silence in the gaps, the same out-of-window trap.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "radio/message.hpp"
#include "support/assert.hpp"

namespace arl::radio {

/// A node's full (or suffix-retained) history, oldest entry first.
using History = std::vector<HistoryEntry>;

/// One non-silent entry of a sparse history: H[index] = entry.
struct HistoryEvent {
  std::size_t index = 0;
  HistoryEntry entry;
};

/// A node's non-silent entries in increasing index order; every index
/// without an event is silence.
using SparseHistory = std::vector<HistoryEvent>;

/// Index of the oldest entry a window of `window` entries still retains
/// after `length` one-at-a-time appends (0 without a window).  The dense
/// store evicts in chunks: when it reaches 2W+1 entries it cuts back to the
/// newest W, so the oldest retained index advances by W+1 at a time.
[[nodiscard]] constexpr std::size_t window_first_kept(std::size_t length,
                                                      std::optional<std::size_t> window) {
  if (!window || length <= 2 * *window) {
    return 0;
  }
  return (*window + 1) * ((length - *window) / (*window + 1));
}

/// Read-only view over a possibly-windowed history.
class HistoryView {
 public:
  /// Dense: views `kept`, which holds entries [dropped, dropped + kept.size()).
  HistoryView(const History& kept, std::size_t dropped)
      : dense_(kept.data()), length_(dropped + kept.size()), first_kept_(dropped) {}

  /// Sparse: views H[0..length-1] whose non-silent entries are `events`.
  /// Entries below `first_kept` trap as out of window (events there may
  /// linger in the store; they are never read).
  HistoryView(std::span<const HistoryEvent> events, std::size_t length, std::size_t first_kept)
      : events_(events.data()),
        event_count_(events.size()),
        sparse_(true),
        length_(length),
        first_kept_(first_kept) {}

  /// Total number of entries ever recorded (H[0..length-1]).
  [[nodiscard]] std::size_t length() const { return length_; }

  /// Index of the oldest retained entry (0 when nothing was dropped).
  [[nodiscard]] std::size_t first_kept() const { return first_kept_; }

  /// Entry H[t]; requires first_kept() <= t < length().
  [[nodiscard]] HistoryEntry entry(std::size_t t) const {
    ARL_EXPECTS(t >= first_kept_, "history entry no longer retained (window too small)");
    ARL_EXPECTS(t < length_, "history entry not recorded yet");
    if (!sparse_) {
      return dense_[t - first_kept_];
    }
    // Programs mostly read the newest entry: answer it without a search.
    if (event_count_ == 0 || events_[event_count_ - 1].index < t) {
      return HistoryEntry::silence();
    }
    const HistoryEvent* const newest = events_ + event_count_ - 1;
    const HistoryEvent* const found = newest->index == t ? newest : lower_bound(t);
    return found->index == t ? found->entry : HistoryEntry::silence();
  }

  /// Most recent entry; requires length() > 0.
  [[nodiscard]] HistoryEntry last() const {
    ARL_EXPECTS(length_ > 0, "empty history has no last entry");
    return entry(length_ - 1);
  }

  /// True when no entry has been recorded.
  [[nodiscard]] bool empty() const { return length_ == 0; }

  /// Calls `visit(t, H[t])` for every non-silent entry with begin <= t <
  /// end, in increasing t, until a call returns false.  Requires
  /// first_kept() <= begin <= end <= length().  On a sparse view the walk
  /// costs the events in the range, not the rounds.
  template <typename Visit>
  void for_each_event(std::size_t begin, std::size_t end, Visit&& visit) const {
    ARL_EXPECTS(begin >= first_kept_, "history entry no longer retained (window too small)");
    ARL_EXPECTS(begin <= end && end <= length_, "history entry not recorded yet");
    if (!sparse_) {
      for (std::size_t t = begin; t < end; ++t) {
        const HistoryEntry& entry = dense_[t - first_kept_];
        if (!entry.is_silence() && !visit(t, entry)) {
          return;
        }
      }
      return;
    }
    const HistoryEvent* const stop = events_ + event_count_;
    for (const HistoryEvent* e = lower_bound(begin); e != stop && e->index < end; ++e) {
      if (!visit(e->index, e->entry)) {
        return;
      }
    }
  }

 private:
  [[nodiscard]] const HistoryEvent* lower_bound(std::size_t t) const {
    return std::lower_bound(events_, events_ + event_count_, t, before);
  }

  static bool before(const HistoryEvent& event, std::size_t index) { return event.index < index; }

  const HistoryEntry* dense_ = nullptr;   ///< retained entries (dense view)
  const HistoryEvent* events_ = nullptr;  ///< non-silent entries (sparse view)
  std::size_t event_count_ = 0;
  bool sparse_ = false;
  std::size_t length_;
  std::size_t first_kept_;
};

/// Renders a history as space-separated compact entries ("- m1 * -").
[[nodiscard]] std::string format_history(const History& history);

}  // namespace arl::radio
