#pragma once

/// \file label.hpp
/// Node labels used by the Classifier algorithm (paper §3.1).
///
/// During each Partitioner iteration, node v receives a label: the sorted
/// concatenation of triples (a, b, c) where `a` is the equivalence class of a
/// neighbour w (the transmission block in which w transmits), `b` = σ+1+t_w-t_v
/// is the local round within that block where v hears w, and `c` records
/// whether exactly one (1) or several (∗) neighbours land on that (a, b) slot.
/// Triples are ordered by the paper's ≺hist (Definition 3.1).
///
/// An iteration labels every node, so the Classifier keeps one iteration's
/// labels in a flat `LabelTable` (two allocations, not one per node); a
/// `Label` is the owning form of a single label, as schedules store them.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace arl::core {

/// Equivalence class number; 1-based as in the paper (0 = invalid).
using ClassId = std::uint32_t;

/// One (a, b, c) triple of a node label.
struct LabelTriple {
  ClassId cls = 0;          ///< a: the neighbour's class / transmission block
  std::uint32_t round = 0;  ///< b: σ+1+t_w-t_v, in [1, 2σ+1]
  bool star = false;        ///< c: false = exactly one transmitter, true = (∗)

  /// Lexicographic (cls, round, star) — exactly the paper's ≺hist, since
  /// c = 1 (star = false) precedes c = ∗ (star = true).
  friend auto operator<=>(const LabelTriple&, const LabelTriple&) = default;
};

/// A node label: triples sorted by ≺hist.  The empty label is the paper's
/// `null`.
using Label = std::vector<LabelTriple>;

/// The labels of every node of one Partitioner iteration, stored flat: all
/// triples back to back, node v's label being triples[offsets[v] ..
/// offsets[v+1]).  Built row by row: reset(), then each row's triples
/// appended to `triples` and closed by end_row().
struct LabelTable {
  std::vector<LabelTriple> triples;  ///< every label, in node order
  std::vector<std::size_t> offsets;  ///< n+1 row bounds (empty: no rows yet)

  /// Empties the table, with room for `rows` rows holding `capacity`
  /// triples in all.
  void reset(std::size_t rows, std::size_t capacity) {
    triples.clear();
    triples.reserve(capacity);
    offsets.clear();
    offsets.reserve(rows + 1);
    offsets.push_back(0);
  }

  /// Closes the row whose triples were appended since the previous one.
  void end_row() { offsets.push_back(triples.size()); }

  /// Number of rows (nodes).
  [[nodiscard]] std::size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }

  /// Node v's label.
  [[nodiscard]] std::span<const LabelTriple> operator[](std::size_t v) const {
    return std::span<const LabelTriple>(triples).subspan(offsets[v], offsets[v + 1] - offsets[v]);
  }

  friend bool operator==(const LabelTable& a, const LabelTable& b) = default;
};

/// Renders a label as "(a,b,1)(a,b,*)..." ("null" when empty).
[[nodiscard]] std::string format_label(const Label& label);

}  // namespace arl::core
