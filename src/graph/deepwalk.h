// DeepWalk-style network embedding (Perozzi et al. 2014): truncated random
// walks + skip-gram with negative sampling. Provided as an alternative to
// LINE for sourcing the implicit mutual relations — the ablation bench
// compares the two (the paper uses LINE; DeepWalk is the natural
// contemporaneous baseline).
#ifndef IMR_GRAPH_DEEPWALK_H_
#define IMR_GRAPH_DEEPWALK_H_

#include "graph/embedding_store.h"
#include "graph/proximity_graph.h"

namespace imr::graph {

struct DeepWalkConfig {
  int dim = 128;
  int walks_per_vertex = 10;
  int walk_length = 20;
  int window = 4;              // skip-gram context radius
  int negative_samples = 5;
  float initial_lr = 0.025f;
  double noise_power = 0.75;   // P_n(v) ~ deg^noise_power
  uint64_t seed = 131;
  // Cap on walk chunks rolled and SGNS buckets trained at once (see
  // graph/sgns.h); 0 defers to util::GlobalThreads(). The output is
  // bit-identical for every value.
  int threads = 0;
};

/// Trains DeepWalk on a finalised proximity graph. Walks choose the next
/// vertex proportionally to edge weight. Isolated vertices keep their
/// small random initialisation.
EmbeddingStore TrainDeepWalk(const ProximityGraph& graph,
                             const DeepWalkConfig& config);

}  // namespace imr::graph

#endif  // IMR_GRAPH_DEEPWALK_H_
