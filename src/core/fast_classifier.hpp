#pragma once

/// \file fast_classifier.hpp
/// `FastClassifier`: the Classifier charged one step per bucket lookup.
///
/// Both classes run the same loop (`classify`) with the same hashed Refine,
/// so verdict, per-iteration partitions, class numbering, reps, labels and
/// leader are identical; only `steps` differs — `Classifier` charges the
/// paper's rep-scan count, `FastClassifier` one step per lookup.  The name
/// survives as a cache and store key space (`use_fast_classifier`).

#include "core/classifier.hpp"

namespace arl::core {

/// The Classifier with Refine::HashedPerLookup.
class FastClassifier {
 public:
  /// Same channel-model parameter as Classifier.
  explicit FastClassifier(radio::ChannelModel model = radio::ChannelModel::CollisionDetection)
      : model_(model) {}

  /// Runs the classification; same result contract as Classifier::run,
  /// except for what `steps` counts.
  [[nodiscard]] ClassifierResult run(const config::Configuration& configuration) const {
    return classify(configuration, model_, Refine::HashedPerLookup);
  }

 private:
  radio::ChannelModel model_;
};

}  // namespace arl::core
