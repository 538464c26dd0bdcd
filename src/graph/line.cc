#include "graph/line.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "graph/alias_sampler.h"
#include "graph/sgns.h"
#include "util/logging.h"
#include "util/rng.h"

namespace imr::graph {

namespace {

// Samples one bucket runs per sweep, at the least, before the sweep count
// stops growing with the sample budget: enough work per bucket to outweigh
// a wave's fork and join.
constexpr int64_t kMinBucketSamples = 1024;

// Trains one LINE order into `embeddings`; `contexts` is a separate buffer
// for second order and aliases `embeddings` for first order. Each
// undirected edge is two directed samples of equal weight (LINE treats an
// undirected edge as two directed ones), filed under the bucket of
// (source part, target part); `stream` seeds the order's bucket rngs.
void TrainOrder(const ProximityGraph& graph, const LineConfig& config,
                int dim, float* embeddings, float* contexts,
                uint64_t stream) {
  const auto& edges = graph.edges();
  if (edges.empty()) return;

  std::vector<double> noise_weights(graph.degrees().size());
  for (size_t v = 0; v < noise_weights.size(); ++v)
    noise_weights[v] = std::pow(graph.degrees()[v], config.noise_power);
  const internal::SgnsSchedule schedule(graph.num_vertices(), noise_weights,
                                        embeddings == contexts);

  // Directed sample 2e runs edge e source -> target, 2e + 1 the reverse.
  const size_t buckets = static_cast<size_t>(schedule.num_buckets());
  std::vector<std::vector<int32_t>> samples(buckets);
  std::vector<std::vector<double>> weights(buckets);
  auto file = [&](int center, int context, size_t id, double weight) {
    const size_t b = static_cast<size_t>(schedule.BucketOf(center, context));
    samples[b].push_back(static_cast<int32_t>(id));
    weights[b].push_back(weight);
  };
  for (size_t e = 0; e < edges.size(); ++e) {
    file(edges[e].source, edges[e].target, 2 * e, edges[e].weight);
    file(edges[e].target, edges[e].source, 2 * e + 1, edges[e].weight);
  }
  std::vector<std::unique_ptr<AliasSampler>> samplers(buckets);
  std::vector<double> share(buckets, 0.0);
  double total_weight = 0;
  for (size_t b = 0; b < buckets; ++b) {
    for (double w : weights[b]) share[b] += w;
    total_weight += share[b];
    if (share[b] > 0) samplers[b] = std::make_unique<AliasSampler>(weights[b]);
    weights[b] = {};
  }
  for (double& s : share) s /= total_weight;

  // Each sweep runs every bucket once, its share of the budget spread
  // evenly over the sweeps.
  const int64_t total_samples =
      static_cast<int64_t>(edges.size()) * config.samples_per_edge;
  const int64_t sweeps = std::clamp<int64_t>(
      total_samples / (static_cast<int64_t>(buckets) * kMinBucketSamples), 1,
      std::max<int64_t>(1, config.samples_per_edge));
  auto samples_before = [&](size_t bucket, int64_t sweep) {
    return static_cast<int64_t>(share[bucket] *
                                static_cast<double>(total_samples) *
                                static_cast<double>(sweep) /
                                static_cast<double>(sweeps));
  };
  for (int64_t sweep = 0; sweep < sweeps; ++sweep) {
    schedule.RunSweep(config.threads, [&](int bucket) {
      const size_t b = static_cast<size_t>(bucket);
      const int64_t count =
          samples_before(b, sweep + 1) - samples_before(b, sweep);
      if (count <= 0 || samplers[b] == nullptr) return;
      util::Rng rng = internal::CellRng(stream, static_cast<uint64_t>(sweep),
                                        static_cast<uint64_t>(bucket));
      std::vector<float> grad(static_cast<size_t>(dim));
      for (int64_t k = 0; k < count; ++k) {
        const double progress =
            (static_cast<double>(sweep) +
             static_cast<double>(k) / static_cast<double>(count)) /
            static_cast<double>(sweeps);
        const int32_t id = samples[b][samplers[b]->Sample(&rng)];
        const Edge& edge = edges[static_cast<size_t>(id / 2)];
        const bool forward = id % 2 == 0;
        schedule.Update(embeddings, contexts, dim,
                        forward ? edge.source : edge.target,
                        forward ? edge.target : edge.source,
                        config.negative_samples,
                        internal::DecayedLearningRate(config.initial_lr,
                                                      progress),
                        &rng, grad.data());
      }
    });
  }
}

void RandomInit(float* data, size_t n, int dim, util::Rng* rng) {
  const float bound = 0.5f / static_cast<float>(dim);
  for (size_t i = 0; i < n; ++i)
    data[i] = static_cast<float>(rng->Uniform(-bound, bound));
}

// L2-normalises [V x dim] rows in place.
void NormalizeBlock(float* data, int vertices, int dim) {
  for (int v = 0; v < vertices; ++v) {
    float* row = data + static_cast<size_t>(v) * dim;
    double norm = 0;
    for (int d = 0; d < dim; ++d)
      norm += static_cast<double>(row[d]) * row[d];
    norm = std::sqrt(norm);
    if (norm <= 0) continue;
    const float inv = static_cast<float>(1.0 / norm);
    for (int d = 0; d < dim; ++d) row[d] *= inv;
  }
}

}  // namespace

EmbeddingStore TrainLine(const ProximityGraph& graph,
                         const LineConfig& config) {
  IMR_CHECK(config.first_order || config.second_order);
  IMR_CHECK_GT(config.dim, 1);
  util::Rng rng(config.seed);
  const int vertices = graph.num_vertices();
  const bool both = config.first_order && config.second_order;
  const int half = both ? config.dim / 2 : config.dim;

  EmbeddingStore store(vertices, both ? 2 * half : half);

  std::vector<float> first, second, second_context;
  if (config.first_order) {
    first.resize(static_cast<size_t>(vertices) * half);
    RandomInit(first.data(), first.size(), half, &rng);
    TrainOrder(graph, config, half, first.data(), first.data(), rng.Next());
    NormalizeBlock(first.data(), vertices, half);
  }
  if (config.second_order) {
    second.resize(static_cast<size_t>(vertices) * half);
    second_context.assign(static_cast<size_t>(vertices) * half, 0.0f);
    RandomInit(second.data(), second.size(), half, &rng);
    TrainOrder(graph, config, half, second.data(), second_context.data(),
               rng.Next());
    NormalizeBlock(second.data(), vertices, half);
  }

  for (int v = 0; v < vertices; ++v) {
    float* out = store.Vector(v);
    int offset = 0;
    if (config.first_order) {
      std::copy_n(first.data() + static_cast<size_t>(v) * half, half, out);
      offset = half;
    }
    if (config.second_order) {
      std::copy_n(second.data() + static_cast<size_t>(v) * half, half,
                  out + offset);
    }
  }
  return store;
}

}  // namespace imr::graph
