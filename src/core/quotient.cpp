#include "core/quotient.hpp"

#include <algorithm>

#include "core/fast_classifier.hpp"
#include "support/assert.hpp"

namespace arl::core {

SymmetryReport analyze_symmetry(const config::Configuration& configuration,
                                const ClassifierResult& classification) {
  ARL_EXPECTS(!classification.records.empty(), "classification must have run");
  const std::vector<ClassId>& clazz = classification.records.back().clazz;
  const ClassId num_classes = classification.records.back().num_classes;
  ARL_EXPECTS(clazz.size() == configuration.size(),
              "classification does not match the configuration");

  SymmetryReport report;
  report.orbits.resize(num_classes);
  for (ClassId k = 1; k <= num_classes; ++k) {
    report.orbits[k - 1].id = k;
  }
  for (graph::NodeId v = 0; v < configuration.size(); ++v) {
    report.orbits[clazz[v] - 1].members.push_back(v);
  }
  for (std::size_t index = 0; index < report.orbits.size(); ++index) {
    Orbit& orbit = report.orbits[index];
    ARL_ASSERT(!orbit.members.empty(), "every class has at least one node");
    if (orbit.members.size() == 1) {
      report.singleton_orbits.push_back(index);
    }
  }

  // Quotient graph over orbits: one edge per distinct pair of adjacent
  // classes, however many graph edges fall on it.
  std::vector<graph::Edge> class_pairs;
  for (graph::NodeId v = 0; v < configuration.size(); ++v) {
    for (const graph::NodeId w : configuration.graph().neighbors(v)) {
      const ClassId a = clazz[v] - 1;
      const ClassId b = clazz[w] - 1;
      if (v < w && a != b) {
        class_pairs.emplace_back(std::min(a, b), std::max(a, b));
      }
    }
  }
  std::sort(class_pairs.begin(), class_pairs.end());
  class_pairs.erase(std::unique(class_pairs.begin(), class_pairs.end()), class_pairs.end());
  report.quotient = graph::Graph::from_edges(num_classes, class_pairs);

  ARL_ENSURES(report.feasible() == classification.feasible(),
              "singleton orbits must coincide with the feasibility verdict");
  return report;
}

SymmetryReport analyze_symmetry(const config::Configuration& configuration) {
  return analyze_symmetry(configuration, FastClassifier{}.run(configuration));
}

}  // namespace arl::core
