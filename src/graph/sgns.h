// Race-free parallel skip-gram with negative sampling (SGNS), the one
// training schedule behind LINE (first and second order), DeepWalk and
// node2vec.
//
// The vertices are split into P parts (vertex v lives in part v mod P),
// where P depends only on the vertex count. A training sample (center,
// context) belongs to bucket (part(center), part(context)) and draws its
// negatives from the context's part, so a bucket touches the embedding rows
// of one part and the context rows of one part only. Buckets run in waves
// whose members touch disjoint rows, after PyTorch-BigGraph (Lerer et al.
// 2019):
//   * separate context matrix (second-order LINE, walk skip-gram): a Latin
//     square, wave w = {(i, (i + w) mod P) : i < P};
//   * contexts that alias the embeddings (first-order LINE): a round-robin
//     pairing of the parts, each pair {i, j} running bucket (i, j) and then
//     (j, i), plus one wave of the diagonal buckets (i, i).
// Each bucket draws from its own rng, derived from (stream, sweep, bucket),
// and the learning rate decays with global progress, so the output is
// bit-identical at every thread count and pool size, 1 included. The
// `threads` argument only caps how many buckets of a wave run at once.
#ifndef IMR_GRAPH_SGNS_H_
#define IMR_GRAPH_SGNS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/alias_sampler.h"
#include "graph/deepwalk.h"
#include "graph/embedding_store.h"
#include "graph/proximity_graph.h"
#include "util/rng.h"

namespace imr::graph::internal {

/// Linearly decaying SGNS learning rate at `progress` in [0, 1], floored at
/// 1e-4 of the initial rate.
float DecayedLearningRate(float initial_lr, double progress);

/// An rng for one cell of a schedule, independent of every other
/// (stream, sweep, cell) triple.
util::Rng CellRng(uint64_t stream, uint64_t sweep, uint64_t cell);

/// Runs task(i) for every i in [0, n) on the global pool, at most `threads`
/// at once (0 defers to util::GlobalThreads()). Tasks must not depend on
/// each other's order.
void RunTasks(int64_t n, int threads,
              const std::function<void(int64_t)>& task);

class SgnsSchedule {
 public:
  /// `noise_weights` (one per vertex) is the negative-sampling distribution,
  /// renormalised within each part; a part whose weights are all zero
  /// samples uniformly. `shared_rows` is true when the context matrix is
  /// the embedding matrix itself (first-order LINE).
  SgnsSchedule(int vertices, const std::vector<double>& noise_weights,
               bool shared_rows);

  /// P for a graph of `vertices`: the largest power of two up to 16 that
  /// leaves every part at least 256 vertices (1 for small graphs).
  static int NumParts(int vertices);

  int num_buckets() const { return parts_ * parts_; }
  int PartOf(int vertex) const { return vertex % parts_; }
  int BucketOf(int center, int context) const {
    return PartOf(center) * parts_ + PartOf(context);
  }

  /// Runs visit(bucket) once for every bucket, wave by wave; the buckets of
  /// one wave run concurrently, at most `threads` at once.
  void RunSweep(int threads, const std::function<void(int)>& visit) const;

  /// One SGNS step on (center, context): maximises
  /// log sigma(ctx_context . emb_center) plus `negatives` terms
  /// log sigma(-ctx_n . emb_center), n drawn from the context's part.
  /// `embeddings` and `contexts` are [V x dim] row-major (the same buffer
  /// for first-order LINE); `grad` is the caller's dim-float scratch.
  void Update(float* embeddings, float* contexts, int dim, int center,
              int context, int negatives, float lr, util::Rng* rng,
              float* grad) const;

 private:
  int parts_;
  std::vector<AliasSampler> noise_;  // per part, over its own vertices
  // wave -> task -> buckets run in order by one worker
  std::vector<std::vector<std::vector<int>>> waves_;
};

/// Next vertex of a walk that came from `previous` (-1 at the start) and
/// sits at `current`, or -1 to stop. Called concurrently; must be const.
using WalkStep = std::function<int(int previous, int current, util::Rng*)>;

/// Rolls `walks_per_vertex` rounds of walks from every vertex (each round
/// in a fresh shuffled order) and trains skip-gram on them with the bucket
/// schedule above; node2vec passes its settings through DeepWalk's config.
/// Rows come back L2-normalised; isolated vertices keep their random
/// initialisation.
EmbeddingStore TrainWalkSgns(const ProximityGraph& graph,
                             const DeepWalkConfig& config,
                             const WalkStep& step);

}  // namespace imr::graph::internal

#endif  // IMR_GRAPH_SGNS_H_
