// LINE network embedding (Tang et al. 2015), as used by the paper to embed
// the entity proximity graph (Section III-A.2).
//
//  * First-order objective:  O1 = -sum_(i,j) w_ij log sigma(u_i . u_j)
//  * Second-order objective: O2 with context vectors and K negative samples
//    from P_n(v) ~ degree(v)^0.75.
//
// Training samples edges proportionally to their weight via alias tables
// and applies SGD with a linearly decaying learning rate, on the race-free
// bucket schedule of graph/sgns.h. The final entity vector concatenates the
// (L2-normalised) first- and second-order embeddings.
#ifndef IMR_GRAPH_LINE_H_
#define IMR_GRAPH_LINE_H_

#include <cstdint>

#include "graph/embedding_store.h"
#include "graph/proximity_graph.h"

namespace imr::graph {

struct LineConfig {
  int dim = 128;              // total output dim (paper ke = 128)
  bool first_order = true;    // train the O1 half
  bool second_order = true;   // train the O2 half
  int negative_samples = 5;   // K
  int64_t samples_per_edge = 400;  // total SGD samples = edges * this
  float initial_lr = 0.025f;
  double noise_power = 0.75;  // P_n(v) ~ deg^noise_power
  uint64_t seed = 97;
  // Cap on SGNS buckets trained at once; 0 defers to
  // util::GlobalThreads(). The output is bit-identical for every value.
  int threads = 0;
};

/// Trains LINE on a finalised proximity graph. When both orders are on,
/// each gets dim/2 dimensions; otherwise the single order gets all of dim.
/// Vertices with no edges keep small random vectors (the paper notes this
/// failure mode in its future-work discussion).
EmbeddingStore TrainLine(const ProximityGraph& graph,
                         const LineConfig& config);

}  // namespace imr::graph

#endif  // IMR_GRAPH_LINE_H_
