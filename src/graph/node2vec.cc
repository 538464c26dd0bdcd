#include "graph/node2vec.h"

#include <unordered_set>

#include "graph/sgns.h"
#include "util/logging.h"
#include "util/rng.h"

namespace imr::graph {

namespace {

// Adjacency with per-vertex neighbour sets for O(1) "is x a neighbour of
// y" checks, needed by the second-order transition bias.
struct BiasedWalkGraph {
  std::vector<std::vector<int>> neighbors;
  std::vector<std::vector<double>> weights;
  std::vector<std::unordered_set<int>> neighbor_sets;

  explicit BiasedWalkGraph(const ProximityGraph& graph)
      : neighbors(static_cast<size_t>(graph.num_vertices())),
        weights(static_cast<size_t>(graph.num_vertices())),
        neighbor_sets(static_cast<size_t>(graph.num_vertices())) {
    for (const Edge& edge : graph.edges()) {
      neighbors[static_cast<size_t>(edge.source)].push_back(edge.target);
      weights[static_cast<size_t>(edge.source)].push_back(edge.weight);
      neighbors[static_cast<size_t>(edge.target)].push_back(edge.source);
      weights[static_cast<size_t>(edge.target)].push_back(edge.weight);
      neighbor_sets[static_cast<size_t>(edge.source)].insert(edge.target);
      neighbor_sets[static_cast<size_t>(edge.target)].insert(edge.source);
    }
  }

  // Second-order step: walker came from `previous` and sits at `current`.
  // Transition weight to candidate x is w(current,x) * bias(previous, x)
  // with bias 1/p when x == previous, 1 when x neighbours previous, and
  // 1/q otherwise. Sampled on the fly (the full alias precomputation is
  // O(E * avg_degree) memory, overkill for these graph sizes).
  int Step(int previous, int current, double p, double q,
           util::Rng* rng) const {
    const auto& nbrs = neighbors[static_cast<size_t>(current)];
    if (nbrs.empty()) return -1;
    const auto& wts = weights[static_cast<size_t>(current)];
    std::vector<double> biased(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      double bias = 1.0 / q;
      if (nbrs[i] == previous) {
        bias = 1.0 / p;
      } else if (previous >= 0 &&
                 neighbor_sets[static_cast<size_t>(previous)].count(
                     nbrs[i]) > 0) {
        bias = 1.0;
      }
      biased[i] = wts[i] * bias;
    }
    return nbrs[rng->Discrete(biased)];
  }
};

}  // namespace

EmbeddingStore TrainNode2Vec(const ProximityGraph& graph,
                             const Node2VecConfig& config) {
  IMR_CHECK_GT(config.p, 0.0);
  IMR_CHECK_GT(config.q, 0.0);
  const BiasedWalkGraph walk_graph(graph);
  DeepWalkConfig walks;
  walks.dim = config.dim;
  walks.walks_per_vertex = config.walks_per_vertex;
  walks.walk_length = config.walk_length;
  walks.window = config.window;
  walks.negative_samples = config.negative_samples;
  walks.initial_lr = config.initial_lr;
  walks.noise_power = config.noise_power;
  walks.seed = config.seed;
  walks.threads = config.threads;
  return internal::TrainWalkSgns(
      graph, walks,
      [&walk_graph, &config](int previous, int current, util::Rng* rng) {
        return walk_graph.Step(previous, current, config.p, config.q, rng);
      });
}

}  // namespace imr::graph
