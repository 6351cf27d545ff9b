#pragma once

/// \file message.hpp
/// Messages and per-round history entries (paper §2.2).
///
/// A listening node hears, in each round, exactly one of: silence (∅), a
/// message M (exactly one neighbour transmitted), or noise (∗, collision of
/// two or more transmitters).  A transmitting node hears nothing, recorded as
/// (∅).  Messages are 64-bit integers; the model allows arbitrary strings but
/// any finite alphabet embeds into integers, and the canonical protocol only
/// ever transmits '1'.

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/assert.hpp"

namespace arl::radio {

/// Message payload transmitted over the radio channel.
using Message = std::uint64_t;

/// Channel feedback strength.  The paper assumes collision detection
/// (listeners distinguish silence, one transmitter, many transmitters);
/// the weaker no-CD variant — where noise is indistinguishable from silence,
/// as in classic no-CD radio networks and plain beeping models — is provided
/// as an extension for the feasibility-under-weaker-feedback experiments.
enum class ChannelModel : std::uint8_t {
  CollisionDetection,    ///< the paper's model: (∅) / (M) / (∗)
  NoCollisionDetection,  ///< collisions read as silence: (∅) / (M)
};

/// The one text spelling of a channel model, "cd" or "nocd": workload names,
/// schedule and classification text, store entries and `arl --model=`.
[[nodiscard]] constexpr std::string_view channel_model_token(ChannelModel model) {
  return model == ChannelModel::CollisionDetection ? "cd" : "nocd";
}

/// Reads channel_model_token's spelling and nothing else; nullopt otherwise,
/// so each reader words its own error.
[[nodiscard]] constexpr std::optional<ChannelModel> parse_channel_model(std::string_view token) {
  if (token == "cd") {
    return ChannelModel::CollisionDetection;
  }
  if (token == "nocd") {
    return ChannelModel::NoCollisionDetection;
  }
  return std::nullopt;
}

/// One entry of a node's history: what the node heard in one local round.
class HistoryEntry {
 public:
  /// The three observable channel states.
  enum class Kind : std::uint8_t {
    Silence,    ///< (∅) — transmitted, or listened and heard nothing
    Message,    ///< (M) — listened and exactly one neighbour transmitted
    Collision,  ///< (∗) — listened and two or more neighbours transmitted
  };

  /// Silence entry (∅).
  [[nodiscard]] static constexpr HistoryEntry silence() { return HistoryEntry(Kind::Silence, 0); }

  /// Message entry (M).
  [[nodiscard]] static constexpr HistoryEntry message(Message payload) {
    return HistoryEntry(Kind::Message, payload);
  }

  /// Collision entry (∗).
  [[nodiscard]] static constexpr HistoryEntry collision() {
    return HistoryEntry(Kind::Collision, 0);
  }

  /// Default-constructs silence.
  constexpr HistoryEntry() : HistoryEntry(Kind::Silence, 0) {}

  [[nodiscard]] constexpr Kind kind() const { return kind_; }
  [[nodiscard]] constexpr bool is_silence() const { return kind_ == Kind::Silence; }
  [[nodiscard]] constexpr bool is_message() const { return kind_ == Kind::Message; }
  [[nodiscard]] constexpr bool is_collision() const { return kind_ == Kind::Collision; }

  /// Payload of a message entry; requires is_message().
  [[nodiscard]] Message payload() const {
    ARL_EXPECTS(is_message(), "only message entries carry a payload");
    return payload_;
  }

  friend constexpr bool operator==(HistoryEntry a, HistoryEntry b) = default;

  /// Arbitrary-but-consistent total order (kind, then payload); lets history
  /// vectors key ordered containers.
  friend constexpr auto operator<=>(HistoryEntry a, HistoryEntry b) = default;

  /// Compact rendering: "-", "m<payload>", "*".
  [[nodiscard]] std::string to_string() const {
    switch (kind_) {
      case Kind::Silence:
        return "-";
      case Kind::Message: {
        std::string out = "m";
        out += std::to_string(payload_);
        return out;
      }
      case Kind::Collision:
        return "*";
    }
    return "?";
  }

 private:
  constexpr HistoryEntry(Kind kind, Message payload) : kind_(kind), payload_(payload) {}

  Kind kind_;
  Message payload_;
};

}  // namespace arl::radio
