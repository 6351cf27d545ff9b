#include "core/schedule.hpp"

#include <algorithm>
#include <span>

#include "support/assert.hpp"

namespace arl::core {

std::uint64_t CanonicalSchedule::phase_length(std::size_t phase_index) const {
  ARL_EXPECTS(phase_index < phases.size(), "phase index out of range");
  return phases[phase_index].num_classes * block_length() + sigma;
}

std::uint64_t CanonicalSchedule::total_rounds() const {
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < phases.size(); ++j) {
    total += phase_length(j);
  }
  return total + 1;  // the termination round r_{T} + 1
}

std::size_t CanonicalSchedule::suggested_window() const {
  std::uint64_t longest = 0;
  for (std::size_t j = 0; j < phases.size(); ++j) {
    longest = std::max(longest, phase_length(j));
  }
  return static_cast<std::size_t>(longest) + 2;
}

CanonicalSchedule build_schedule(const config::Configuration& configuration,
                                 const ClassifierResult& classification) {
  ARL_EXPECTS(classification.iterations >= 1, "classification must have run");
  ARL_EXPECTS(classification.records.size() == classification.iterations,
              "one record per iteration required");
  const std::uint32_t exit_iteration = classification.iterations;

  CanonicalSchedule schedule;
  schedule.sigma = configuration.span();
  schedule.model = classification.model;
  schedule.phases.resize(exit_iteration);

  // L_1 = [(1, null)]: all nodes share one class with no history.
  schedule.phases[0].num_classes = 1;
  schedule.phases[0].entries = {PhaseEntry{1, {}}};

  // L_j for j = 2..T: one entry per class representative after iteration
  // j-1, pairing its class at the end of iteration j-2 with the label it was
  // assigned during iteration j-1.
  for (std::uint32_t j = 2; j <= exit_iteration; ++j) {
    const IterationRecord& record = classification.records[j - 2];
    PhaseSpec& phase = schedule.phases[j - 1];
    phase.num_classes = record.num_classes;
    phase.entries.reserve(record.num_classes);
    for (ClassId k = 1; k <= record.num_classes; ++k) {
      const graph::NodeId rep = record.reps[k - 1];
      const std::span<const LabelTriple> label = record.labels[rep];
      phase.entries.push_back(
          PhaseEntry{classification.class_after(j - 2, rep), Label(label.begin(), label.end())});
    }
  }

  schedule.feasible = classification.feasible();
  if (schedule.feasible) {
    // The leader signature is the (old class, label) pair that would single
    // the leader out when matching the never-executed list L_{T+1}.
    const graph::NodeId leader = classification.leader;
    schedule.leader_old_class = classification.class_after(exit_iteration - 1, leader);
    const std::span<const LabelTriple> label =
        classification.records[exit_iteration - 1].labels[leader];
    schedule.leader_label.assign(label.begin(), label.end());
  }
  return schedule;
}

std::shared_ptr<const CanonicalSchedule> make_schedule(const config::Configuration& configuration,
                                                       radio::ChannelModel model) {
  const Classifier classifier(model);
  return std::make_shared<const CanonicalSchedule>(
      build_schedule(configuration, classifier.run(configuration)));
}

}  // namespace arl::core
