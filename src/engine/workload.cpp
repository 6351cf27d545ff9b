#include "engine/workload.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>

#include "config/families.hpp"
#include "config/mutations.hpp"
#include "graph/enumeration.hpp"
#include "graph/generators.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"

namespace arl::engine {

namespace {

using support::ContractViolation;
using support::require;

/// Registry-order kind tokens (the part of a name before ':').
constexpr support::KindTokens<WorkloadKind, 12> kKinds = {{
    {WorkloadKind::Random, "random"},
    {WorkloadKind::Exhaustive, "exhaustive"},
    {WorkloadKind::FamilyG, "family-g"},
    {WorkloadKind::FamilyH, "family-h"},
    {WorkloadKind::FamilyS, "family-s"},
    {WorkloadKind::Staggered, "staggered"},
    {WorkloadKind::Grid, "grid"},
    {WorkloadKind::Torus, "torus"},
    {WorkloadKind::Hypercube, "hypercube"},
    {WorkloadKind::Tree, "tree"},
    {WorkloadKind::SingleHop, "single-hop"},
    {WorkloadKind::Mutations, "mutations"},
}};

/// A fresh spec of `kind` with that kind's default parameters — the one
/// construction path shared by the factories and parse_workload, so
/// member-wise equality never sees two spellings of the same workload.
WorkloadSpec blank(WorkloadKind kind) {
  WorkloadSpec spec;
  spec.kind = kind;
  switch (kind) {
    case WorkloadKind::Exhaustive:
      spec.nodes = 4;
      break;
    case WorkloadKind::Tree:
      spec.nodes = 64;
      break;
    case WorkloadKind::SingleHop:
      spec.nodes = 32;
      break;
    default:
      break;
  }
  return spec;
}

/// Parameter bounds, enforced by parse_workload AND instantiate (a spec
/// built by hand gets the same validation the grammar applies).
void validate(const WorkloadSpec& spec) {
  const std::string at = std::string("workload '") + support::kind_token(kKinds, spec.kind) + "': ";
  require(spec.span <= 1'000'000, at + "sigma must be in [0, 1000000]");
  // Only random names exact= (a topology with exact=0 would draw other tags
  // under the same name).
  require(spec.exact || spec.kind == WorkloadKind::Random, at + "exact=0 applies to random only");
  // Stretching tags to an exact positive span needs two nodes to stretch
  // between (config::random_tags_with_span's precondition) — reject at
  // parse time, not mid-batch inside a worker thread.
  const auto spannable = [&](std::uint64_t node_count) {
    require(spec.span == 0 || node_count >= 2, at + "a positive sigma needs at least 2 nodes");
  };
  switch (spec.kind) {
    case WorkloadKind::Random:
      require(spec.nodes >= 1 && spec.nodes <= 1'000'000, at + "n must be in [1, 1000000]");
      require(spec.edge_probability >= 0.0 && spec.edge_probability <= 1.0,
              at + "p must be in [0, 1]");
      if (spec.exact) {  // exact=0 draws uniform tags, legal on one node
        spannable(spec.nodes);
      }
      break;
    case WorkloadKind::Exhaustive:
      // The census is exponential in n (connected labelled graphs times the
      // (tau+1)^n tag odometer); beyond n = 6 a single shard is hopeless.
      require(spec.nodes >= 1 && spec.nodes <= 6, at + "n must be in [1, 6]");
      require(spec.max_tag <= 8, at + "tau must be in [0, 8]");
      break;
    case WorkloadKind::Grid:
      require(spec.rows >= 1 && spec.rows <= 1000, at + "rows must be in [1, 1000]");
      require(spec.cols >= 1 && spec.cols <= 1000, at + "cols must be in [1, 1000]");
      spannable(static_cast<std::uint64_t>(spec.rows) * spec.cols);
      break;
    case WorkloadKind::Torus:
      require(spec.rows >= 3 && spec.rows <= 1000, at + "rows must be in [3, 1000]");
      require(spec.cols >= 3 && spec.cols <= 1000, at + "cols must be in [3, 1000]");
      break;
    case WorkloadKind::Hypercube:
      require(spec.dimension >= 1 && spec.dimension <= 20, at + "d must be in [1, 20]");
      break;
    case WorkloadKind::Tree:
      require(spec.nodes >= 1 && spec.nodes <= 1'000'000, at + "n must be in [1, 1000000]");
      spannable(spec.nodes);
      break;
    case WorkloadKind::SingleHop:
      // K_n has n(n-1)/2 edges; K_4096's 8,386,560 stay below the largest
      // fixed topology, hypercube:d=20 (10,485,760).
      require(spec.nodes >= 1 && spec.nodes <= 4096, at + "n must be in [1, 4096]");
      spannable(spec.nodes);
      break;
    case WorkloadKind::Mutations:
      require(spec.base != nullptr, at + "needs a base workload (mutations:WORKLOAD)");
      require(spec.base->kind != WorkloadKind::Mutations,
              at + "base must not itself be a mutation neighbourhood");
      validate(*spec.base);
      break;
    default:
      break;
  }
}

/// The m-offset of the §4 families (G_m starts at m = 2, H_m/S_m at m = 1).
config::Tag family_offset(WorkloadKind kind) {
  return kind == WorkloadKind::FamilyG ? 2 : 1;
}

/// The graph of one configuration of the seeded kinds (`rng` is that
/// configuration's private stream; random and tree consume it).
graph::Graph topology(const WorkloadSpec& spec, support::Rng& rng) {
  switch (spec.kind) {
    case WorkloadKind::Random:
      return graph::gnp_connected(spec.nodes, spec.edge_probability, rng);
    case WorkloadKind::Grid:
      return graph::grid(spec.rows, spec.cols);
    case WorkloadKind::Torus:
      return graph::torus(spec.rows, spec.cols);
    case WorkloadKind::Hypercube:
      return graph::hypercube(spec.dimension);
    case WorkloadKind::Tree:
      return graph::random_tree(spec.nodes, rng);
    case WorkloadKind::SingleHop:
      return graph::complete(spec.nodes);
    default:
      ARL_EXPECTS(false, "not a seeded workload kind");
      return graph::Graph();
  }
}

/// A workload's configuration stream before the protocol cross product:
/// `count` configurations, configuration i built on demand as a pure
/// function of i (workers call it concurrently).
struct ConfigurationStream {
  JobId count = 0;
  std::function<config::Configuration(JobId)> configuration;
};

/// The configuration stream of a validated spec: `count` configurations for
/// the unbounded kinds, the implied count for the self-counting ones.
ConfigurationStream configurations(const WorkloadSpec& spec, std::uint64_t seed,
                                   std::size_t count) {
  ConfigurationStream stream{count, {}};
  switch (spec.kind) {
    case WorkloadKind::Random:
    case WorkloadKind::Grid:
    case WorkloadKind::Torus:
    case WorkloadKind::Hypercube:
    case WorkloadKind::Tree:
    case WorkloadKind::SingleHop: {
      // Configuration i draws from its own split of the configuration seed,
      // so any prefix or shard reproduces on any thread count.
      const std::uint64_t configuration_seed = sweep_configuration_seed(seed);
      stream.configuration = [spec, configuration_seed](JobId i) {
        support::Rng rng = support::Rng(configuration_seed).split(i);
        graph::Graph graph = topology(spec, rng);
        return spec.exact ? config::random_tags_with_span(std::move(graph), spec.span, rng)
                          : config::random_tags(std::move(graph), spec.span, rng);
      };
      break;
    }

    case WorkloadKind::FamilyG:
    case WorkloadKind::FamilyH:
    case WorkloadKind::FamilyS:
      stream.configuration = [kind = spec.kind](JobId i) {
        const auto m = static_cast<config::Tag>(i + family_offset(kind));
        return kind == WorkloadKind::FamilyG   ? config::family_g(m)
               : kind == WorkloadKind::FamilyH ? config::family_h(m)
                                               : config::family_s(m);
      };
      break;

    case WorkloadKind::Staggered:
      stream.configuration = [](JobId i) {
        return config::staggered_path(2 + static_cast<graph::NodeId>(i));
      };
      break;

    case WorkloadKind::Exhaustive: {
      // Only the graphs are materialized: their count is exponentially
      // smaller than the configuration count, so a census holds one
      // configuration per worker in memory.
      auto graphs = std::make_shared<std::vector<graph::Graph>>();
      graph::for_each_connected_graph(
          spec.nodes, [&graphs](const graph::Graph& graph) { graphs->push_back(graph); });
      const std::uint64_t base = static_cast<std::uint64_t>(spec.max_tag) + 1;
      std::uint64_t tag_vectors = 1;
      for (graph::NodeId v = 0; v < spec.nodes; ++v) {
        ARL_EXPECTS(tag_vectors <= std::numeric_limits<std::uint64_t>::max() / base,
                    "tag space exceeds 64 bits");
        tag_vectors *= base;
      }
      stream.count = static_cast<JobId>(graphs->size()) * tag_vectors;
      stream.configuration = [graphs, n = spec.nodes, base, tag_vectors](JobId i) {
        // Decode (graph index, tag odometer) from i; node 0 is the fastest
        // digit.
        std::uint64_t code = i % tag_vectors;
        std::vector<config::Tag> tags(n);
        for (graph::NodeId v = 0; v < n; ++v) {
          tags[v] = static_cast<config::Tag>(code % base);
          code /= base;
        }
        return config::Configuration((*graphs)[static_cast<std::size_t>(i / tag_vectors)],
                                     std::move(tags));
      };
      break;
    }

    case WorkloadKind::Mutations: {
      // The neighbour list is materialized once: every tag mutation of each
      // base configuration, in base order.
      const ConfigurationStream base = configurations(*spec.base, seed, count);
      auto mutated = std::make_shared<std::vector<config::Configuration>>();
      for (JobId i = 0; i < base.count; ++i) {
        const config::Configuration configuration = base.configuration(i);
        for (config::Configuration& neighbour :
             config::all_tag_mutations(configuration, configuration.span())) {
          mutated->push_back(std::move(neighbour));
        }
      }
      stream.count = mutated->size();
      stream.configuration = [mutated](JobId i) { return (*mutated)[static_cast<std::size_t>(i)]; };
      break;
    }
  }
  return stream;
}

}  // namespace

WorkloadSpec WorkloadSpec::random(std::uint32_t n, double p, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Random);
  spec.nodes = n;
  spec.edge_probability = p;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::exhaustive(std::uint32_t n, std::uint32_t tau) {
  WorkloadSpec spec = blank(WorkloadKind::Exhaustive);
  spec.nodes = n;
  spec.max_tag = tau;
  return spec;
}

WorkloadSpec WorkloadSpec::family_g() {
  return blank(WorkloadKind::FamilyG);
}

WorkloadSpec WorkloadSpec::family_h() {
  return blank(WorkloadKind::FamilyH);
}

WorkloadSpec WorkloadSpec::family_s() {
  return blank(WorkloadKind::FamilyS);
}

WorkloadSpec WorkloadSpec::staggered() {
  return blank(WorkloadKind::Staggered);
}

WorkloadSpec WorkloadSpec::grid(std::uint32_t rows, std::uint32_t cols, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Grid);
  spec.rows = rows;
  spec.cols = cols;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::torus(std::uint32_t rows, std::uint32_t cols, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Torus);
  spec.rows = rows;
  spec.cols = cols;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::hypercube(std::uint32_t d, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Hypercube);
  spec.dimension = d;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::tree(std::uint32_t n, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Tree);
  spec.nodes = n;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::single_hop(std::uint32_t n, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::SingleHop);
  spec.nodes = n;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::mutations(WorkloadSpec base) {
  WorkloadSpec spec = blank(WorkloadKind::Mutations);
  // The wrapper mirrors the base's execution identity so election_options()
  // and member-wise equality agree whichever level a caller inspects.
  spec.model = base.model;
  spec.fast = base.fast;
  spec.base = std::make_shared<const WorkloadSpec>(std::move(base));
  return spec;
}

bool operator==(const WorkloadSpec& a, const WorkloadSpec& b) {
  const auto fields = [](const WorkloadSpec& w) {
    return std::tie(w.kind, w.nodes, w.rows, w.cols, w.dimension, w.span, w.max_tag,
                    w.edge_probability, w.exact, w.model, w.fast);
  };
  if (fields(a) != fields(b) || (a.base == nullptr) != (b.base == nullptr)) {
    return false;
  }
  return a.base == nullptr || *a.base == *b.base;
}

std::string WorkloadSpec::name() const {
  if (kind == WorkloadKind::Mutations) {
    return std::string(support::kind_token(kKinds, kind)) + ":" + (base ? base->name() : "?");
  }
  std::vector<std::string> params;
  switch (kind) {
    case WorkloadKind::Random:
      params.push_back("n=" + std::to_string(nodes));
      params.push_back("p=" + support::shortest_double(edge_probability));
      params.push_back("sigma=" + std::to_string(span));
      if (!exact) {
        params.push_back("exact=0");
      }
      break;
    case WorkloadKind::Exhaustive:
      params.push_back("n=" + std::to_string(nodes));
      params.push_back("tau=" + std::to_string(max_tag));
      break;
    case WorkloadKind::Grid:
    case WorkloadKind::Torus:
      params.push_back("rows=" + std::to_string(rows));
      params.push_back("cols=" + std::to_string(cols));
      params.push_back("sigma=" + std::to_string(span));
      break;
    case WorkloadKind::Hypercube:
      params.push_back("d=" + std::to_string(dimension));
      params.push_back("sigma=" + std::to_string(span));
      break;
    case WorkloadKind::Tree:
    case WorkloadKind::SingleHop:
      params.push_back("n=" + std::to_string(nodes));
      params.push_back("sigma=" + std::to_string(span));
      break;
    default:  // the parameterless families
      break;
  }
  if (model != radio::ChannelModel::CollisionDetection) {
    params.push_back("model=" + std::string(radio::channel_model_token(model)));
  }
  if (fast) {
    params.push_back("fast=1");
  }
  std::string out = support::kind_token(kKinds, kind);
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += (i == 0 ? ':' : ',');
    out += params[i];
  }
  return out;
}

std::string WorkloadSpec::describe() const {
  switch (kind) {
    case WorkloadKind::Random:
      return "seeded connected G(n,p) with random span-sigma tags";
    case WorkloadKind::Exhaustive:
      return "every connected n-node configuration with tags in [0, tau] (self-counting)";
    case WorkloadKind::FamilyG:
      return "the paper's Prop. 4.1 paths G_m, m = 2, 3, ...";
    case WorkloadKind::FamilyH:
      return "the paper's Lemma 4.2 paths H_m, m = 1, 2, ...";
    case WorkloadKind::FamilyS:
      return "the paper's infeasible Prop. 4.5 paths S_m, m = 1, 2, ...";
    case WorkloadKind::Staggered:
      return "staggered paths n = 2, 3, ... (maximally asymmetric wakeup)";
    case WorkloadKind::Grid:
      return "rows x cols mesh with random span-sigma tags";
    case WorkloadKind::Torus:
      return "rows x cols wrap-around mesh with random span-sigma tags";
    case WorkloadKind::Hypercube:
      return "d-dimensional hypercube (2^d nodes) with random span-sigma tags";
    case WorkloadKind::Tree:
      return "uniformly random n-node tree with random span-sigma tags";
    case WorkloadKind::SingleHop:
      return "complete graph (single-hop network) with random span-sigma tags";
    case WorkloadKind::Mutations:
      return "every single-tag mutation of each base configuration (self-counting "
             "with a self-counting base)";
  }
  return "?";
}

std::uint64_t WorkloadSpec::digest() const {
  // Same domain seed as dist::sweep_digest, so the digest a spec computes is
  // exactly the digest shard reports carry over its name (asserted by
  // tests/test_dist.cpp).
  return support::hash_text(name(), /*seed=*/0xD157);
}

bool WorkloadSpec::bounded() const {
  if (kind == WorkloadKind::Exhaustive) {
    return true;
  }
  return kind == WorkloadKind::Mutations && base != nullptr && base->bounded();
}

core::ElectionOptions WorkloadSpec::election_options() const {
  if (kind == WorkloadKind::Mutations && base != nullptr) {
    return base->election_options();
  }
  core::ElectionOptions options;
  options.channel_model = model;
  options.use_fast_classifier = fast;
  return options;
}

CountedSweep WorkloadSpec::instantiate(std::uint64_t seed,
                                       std::vector<core::ProtocolSpec> protocols,
                                       const InstantiateOptions& run) const {
  validate(*this);
  ARL_EXPECTS(!protocols.empty(), "a workload needs at least one protocol");
  const ConfigurationStream stream = configurations(*this, seed, run.count);
  const auto cross = static_cast<JobId>(protocols.size());
  ARL_EXPECTS(stream.count <= std::numeric_limits<JobId>::max() / cross,
              "protocol cross product overflows the job-id space");
  const core::ElectionOptions options = election_options();
  CountedSweep sweep;
  sweep.count = stream.count * cross;
  // The one protocol cross product: job i runs configuration i / P under
  // protocols[i % P].
  sweep.source = [stream, protocols = std::move(protocols), cross, options](JobId id) {
    return BatchJob{stream.configuration(id / cross),
                    protocols[static_cast<std::size_t>(id % cross)], options};
  };
  return sweep;
}

std::uint64_t sweep_configuration_seed(std::uint64_t batch_seed) {
  // Stream id reserved for the configuration stream (any job-id collision
  // would correlate a job's configuration with its coins); the value is
  // arbitrary but fixed forever so published sweeps stay reproducible.
  constexpr std::uint64_t kConfigurationStream = 0x5EEDF00D;
  return support::Rng(batch_seed).split(kConfigurationStream).next();
}

const std::vector<WorkloadSpec>& registered_workloads() {
  static const std::vector<WorkloadSpec> registry = {
      WorkloadSpec::random(),
      WorkloadSpec::exhaustive(),
      WorkloadSpec::family_g(),
      WorkloadSpec::family_h(),
      WorkloadSpec::family_s(),
      WorkloadSpec::staggered(),
      WorkloadSpec::grid(),
      WorkloadSpec::torus(),
      WorkloadSpec::hypercube(),
      WorkloadSpec::tree(),
      WorkloadSpec::single_hop(),
      WorkloadSpec::mutations(WorkloadSpec::random()),
  };
  return registry;
}

std::string workload_names() {
  return "random[:n=N,p=X,sigma=S,exact=0], exhaustive[:n=N,tau=T], family-g, family-h, "
         "family-s, staggered, grid[:rows=R,cols=C,sigma=S], torus[:rows=R,cols=C,sigma=S], "
         "hypercube[:d=D,sigma=S], tree[:n=N,sigma=S], single-hop[:n=N,sigma=S], "
         "mutations:WORKLOAD; every kind also takes model=cd|nocd and fast=0|1";
}

WorkloadSpec parse_workload(std::string_view text) {
  const support::SpecText parts = support::split_spec(text);
  const WorkloadKind kind = support::find_kind(kKinds, parts.kind, text, "workload",
                                               workload_names);
  if (kind == WorkloadKind::Mutations) {
    if (!parts.params || parts.params->empty()) {
      throw ContractViolation("workload 'mutations' needs a base: mutations:WORKLOAD "
                              "(registered: " +
                              workload_names() + ")");
    }
    WorkloadSpec spec = WorkloadSpec::mutations(parse_workload(*parts.params));
    validate(spec);
    return spec;
  }

  WorkloadSpec spec = blank(kind);
  if (!parts.params) {
    validate(spec);
    return spec;
  }
  const std::string at = "workload '" + std::string(parts.kind) + "': ";
  const auto accepts = [&](std::initializer_list<WorkloadKind> kinds) {
    return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
  };
  const auto integer = [](std::string_view value, const std::string& what) {
    return static_cast<std::uint32_t>(support::parse_integer(value, what));
  };
  for (const auto& [key, value] : support::parse_key_values(*parts.params, at)) {
    const std::string what = at + std::string(key);
    if (key == "model") {
      const std::optional<radio::ChannelModel> model = radio::parse_channel_model(value);
      if (!model) {
        throw ContractViolation(what + " must be cd or nocd (got '" + std::string(value) + "')");
      }
      spec.model = *model;
    } else if (key == "fast") {
      spec.fast = support::parse_flag(value, what);
    } else if (key == "n" && accepts({WorkloadKind::Random, WorkloadKind::Exhaustive,
                                      WorkloadKind::Tree, WorkloadKind::SingleHop})) {
      spec.nodes = integer(value, what);
    } else if (key == "p" && accepts({WorkloadKind::Random})) {
      spec.edge_probability = support::parse_probability(value, what);
    } else if (key == "sigma" &&
               accepts({WorkloadKind::Random, WorkloadKind::Grid, WorkloadKind::Torus,
                        WorkloadKind::Hypercube, WorkloadKind::Tree,
                        WorkloadKind::SingleHop})) {
      spec.span = integer(value, what);
    } else if (key == "exact" && accepts({WorkloadKind::Random})) {
      spec.exact = support::parse_flag(value, what);
    } else if (key == "tau" && accepts({WorkloadKind::Exhaustive})) {
      spec.max_tag = integer(value, what);
    } else if ((key == "rows" || key == "cols") &&
               accepts({WorkloadKind::Grid, WorkloadKind::Torus})) {
      (key == "rows" ? spec.rows : spec.cols) = integer(value, what);
    } else if (key == "d" && accepts({WorkloadKind::Hypercube})) {
      spec.dimension = integer(value, what);
    } else {
      throw ContractViolation(at + "unknown parameter '" + std::string(key) + "'");
    }
  }
  validate(spec);
  return spec;
}

}  // namespace arl::engine
