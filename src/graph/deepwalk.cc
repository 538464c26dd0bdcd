#include "graph/deepwalk.h"

#include <memory>

#include "graph/alias_sampler.h"
#include "graph/sgns.h"
#include "util/rng.h"

namespace imr::graph {

namespace {

// Weighted adjacency with per-vertex alias samplers for O(1) next-step
// draws.
struct WalkGraph {
  std::vector<std::vector<int>> neighbors;
  std::vector<std::unique_ptr<AliasSampler>> samplers;

  explicit WalkGraph(const ProximityGraph& graph)
      : neighbors(static_cast<size_t>(graph.num_vertices())),
        samplers(static_cast<size_t>(graph.num_vertices())) {
    std::vector<std::vector<double>> weights(
        static_cast<size_t>(graph.num_vertices()));
    for (const Edge& edge : graph.edges()) {
      neighbors[static_cast<size_t>(edge.source)].push_back(edge.target);
      weights[static_cast<size_t>(edge.source)].push_back(edge.weight);
      neighbors[static_cast<size_t>(edge.target)].push_back(edge.source);
      weights[static_cast<size_t>(edge.target)].push_back(edge.weight);
    }
    for (size_t v = 0; v < neighbors.size(); ++v) {
      if (!neighbors[v].empty())
        samplers[v] = std::make_unique<AliasSampler>(weights[v]);
    }
  }

  int Step(int vertex, util::Rng* rng) const {
    const auto& sampler = samplers[static_cast<size_t>(vertex)];
    if (sampler == nullptr) return -1;
    return neighbors[static_cast<size_t>(vertex)]
                    [sampler->Sample(rng)];
  }
};

}  // namespace

EmbeddingStore TrainDeepWalk(const ProximityGraph& graph,
                             const DeepWalkConfig& config) {
  const WalkGraph walk_graph(graph);
  return internal::TrainWalkSgns(
      graph, config, [&walk_graph](int, int current, util::Rng* rng) {
        return walk_graph.Step(current, rng);
      });
}

}  // namespace imr::graph
