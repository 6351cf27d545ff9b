/// \file bench_refine.cpp
/// E10 (design-choice ablation): the paper's rep-scan Refine (O(n²Δ) per
/// iteration), kept as the reference, vs the production Classifier's hashed
/// refinement (O(nΔ) expected), which still charges the rep scan's step
/// count in closed form.  Every row asserts the two results equal in every
/// field, `steps` included; the table quantifies what the paper's simpler
/// formulation leaves on the table.
///
/// BENCH_E10.json: per row the exact steps, iterations, verdict and equality
/// (exact-match fields), the two timings (informational `_ms`), and the
/// overall `refine_speedup` (total reference time over total hashed time),
/// the gated trajectory.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "bench_common.hpp"
#include "config/families.hpp"
#include "core/classifier.hpp"
#include "engine/workload.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace arl;

/// Best-of repeats per timing: the repeat the host disturbed least.
constexpr int kRepeats = 20;

/// Fastest of kRepeats runs of `classify`, in milliseconds, and its result.
template <typename Classify>
double best_millis(Classify classify, core::ClassifierResult& result) {
  double best = std::numeric_limits<double>::infinity();
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    support::Stopwatch watch;
    result = classify();
    best = std::min(best, watch.millis());
  }
  return best;
}

void print_tables() {
  support::Table table({"workload", "n", "iterations", "steps", "rep-scan ms", "hashed ms",
                        "speedup", "identical"});
  benchsupport::JsonSnapshot snapshot;
  snapshot.add("bench", std::string("E10"));
  double reference_total = 0.0;
  double hashed_total = 0.0;
  bool all_identical = true;
  auto row = [&](const std::string& name, const std::string& key, const config::Configuration& c) {
    const auto rep_scan = [&] {
      return core::classify(c, radio::ChannelModel::CollisionDetection, core::Refine::RepScan);
    };
    const auto production = [&] { return core::Classifier{}.run(c); };
    core::ClassifierResult reference;
    core::ClassifierResult hashed;
    const double reference_ms = best_millis(rep_scan, reference);
    const double hashed_ms = best_millis(production, hashed);
    const bool identical = reference == hashed;
    all_identical = all_identical && identical;
    reference_total += reference_ms;
    hashed_total += hashed_ms;
    const auto count = [](std::uint64_t value) { return static_cast<std::int64_t>(value); };
    const double speedup = reference_ms / std::max(hashed_ms, 1e-6);
    table.add_row({name, count(c.size()), count(hashed.iterations), count(hashed.steps),
                   reference_ms, hashed_ms, speedup, std::string(identical ? "yes" : "NO (BUG)")});
    snapshot.add(key + "_steps", hashed.steps);
    snapshot.add(key + "_iterations", static_cast<std::uint64_t>(hashed.iterations));
    snapshot.add(key + "_feasible", hashed.feasible());
    snapshot.add(key + "_identical", identical);
    snapshot.add(key + "_reference_ms", reference_ms);
    snapshot.add(key + "_hashed_ms", hashed_ms);
  };
  // Appending (rather than `"g" + std::to_string(m)`) keeps GCC 12's
  // -Wrestrict false positive on string insertion out of -Werror builds.
  const auto numbered = [](const char* prefix, std::uint32_t size) {
    std::string text = prefix;
    text += std::to_string(size);
    return text;
  };
  for (const config::Tag m : {8u, 16u, 32u, 64u}) {
    row("G_m path", numbered("g", m), config::family_g(m));
  }
  for (const graph::NodeId n : {64u, 128u, 256u}) {
    std::vector<config::Tag> tags(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      tags[v] = v % 3;
    }
    const config::Configuration configuration(graph::complete(n), std::move(tags));
    row("complete 3-tags", numbered("complete", n), configuration);
  }
  support::Rng rng(11);
  for (const graph::NodeId n : {64u, 128u, 256u}) {
    graph::Graph graph = graph::gnp_connected(n, 0.05, rng);
    row("gnp(0.05)", numbered("gnp", n), config::random_tags(std::move(graph), 4, rng));
  }
  // The classify-large benchmark shape: every node its own class after one
  // iteration, the rep scan's worst case.
  const char* const large = "random:n=1024,p=0.01,sigma=200";
  const engine::WorkloadSpec workload = engine::parse_workload(large);
  const auto sweep = workload.instantiate(1, {core::ProtocolSpec::classify_only()}, {.count = 1});
  row(large, "random1024", sweep.source(0).configuration);

  const double speedup = reference_total / std::max(hashed_total, 1e-6);
  snapshot.add("refine_speedup", speedup);
  snapshot.add("reference_total_ms", reference_total);
  snapshot.add("hashed_total_ms", hashed_total);
  const std::string title = "E10 — Refine ablation: rep-scan reference vs hashed Classifier";
  benchsupport::print_table(title, table);
  std::cout << "\ntotal speedup (rep-scan ms / hashed ms): " << speedup << "\n";
  snapshot.write("BENCH_E10.json");
  if (!all_identical) {
    std::cerr << "E10: the hashed Classifier differs from the rep-scan reference\n";
    std::exit(1);
  }
}

void BM_PaperRefine(benchmark::State& state) {
  const config::Configuration c = config::family_g(static_cast<config::Tag>(state.range(0)));
  const radio::ChannelModel model = radio::ChannelModel::CollisionDetection;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::classify(c, model, core::Refine::RepScan).verdict);
  }
}
BENCHMARK(BM_PaperRefine)->Arg(8)->Arg(16)->Arg(32);

void BM_HashedRefine(benchmark::State& state) {
  const config::Configuration c = config::family_g(static_cast<config::Tag>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Classifier{}.run(c).verdict);
  }
}
BENCHMARK(BM_HashedRefine)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

ARL_BENCH_MAIN(print_tables)
