// node2vec (Grover & Leskovec 2016): second-order biased random walks +
// skip-gram. Generalises DeepWalk with the return parameter p and in-out
// parameter q; p = q = 1 recovers unbiased walks. Completes the trio of
// MR embedding sources (LINE / DeepWalk / node2vec) compared by the
// ablation bench.
#ifndef IMR_GRAPH_NODE2VEC_H_
#define IMR_GRAPH_NODE2VEC_H_

#include "graph/embedding_store.h"
#include "graph/proximity_graph.h"

namespace imr::graph {

struct Node2VecConfig {
  int dim = 128;
  int walks_per_vertex = 10;
  int walk_length = 20;
  int window = 4;
  int negative_samples = 5;
  float initial_lr = 0.025f;
  double noise_power = 0.75;
  double p = 1.0;  // return parameter: > 1 discourages backtracking
  double q = 1.0;  // in-out parameter: > 1 keeps walks local (BFS-like)
  uint64_t seed = 151;
  // Cap on walk chunks rolled and SGNS buckets trained at once (see
  // graph/sgns.h); 0 defers to util::GlobalThreads(). The output is
  // bit-identical for every value.
  int threads = 0;
};

/// Trains node2vec on a finalised proximity graph. Isolated vertices keep
/// their random initialisation.
EmbeddingStore TrainNode2Vec(const ProximityGraph& graph,
                             const Node2VecConfig& config);

}  // namespace imr::graph

#endif  // IMR_GRAPH_NODE2VEC_H_
