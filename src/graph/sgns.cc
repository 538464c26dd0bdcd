#include "graph/sgns.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace imr::graph::internal {

namespace {

constexpr int kMaxParts = 16;
constexpr int kMinPartVertices = 256;
// Walks rolled (and then trained on) per sweep, and per rng cell within it.
constexpr int kWalksPerSweep = 2048;
constexpr int kWalksPerChunk = 64;

// Fast, clamped sigmoid.
inline float FastSigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

// SplitMix64 finaliser.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

float DecayedLearningRate(float initial_lr, double progress) {
  return std::max(initial_lr * (1.0f - static_cast<float>(progress)),
                  initial_lr * 1e-4f);
}

util::Rng CellRng(uint64_t stream, uint64_t sweep, uint64_t cell) {
  return util::Rng(Mix64(Mix64(Mix64(stream) ^ sweep) ^ cell));
}

void RunTasks(int64_t n, int threads,
              const std::function<void(int64_t)>& task) {
  if (threads <= 0) threads = util::GlobalThreads();
  const int64_t lanes = std::min<int64_t>(n, threads);
  if (lanes <= 1) {
    for (int64_t i = 0; i < n; ++i) task(i);
    return;
  }
  // Each lane pulls the next task, so uneven tasks still balance; which
  // lane runs a task never changes what the task computes.
  std::atomic<int64_t> next{0};
  util::GlobalPool().ParallelFor(0, lanes, 1, [&](int64_t, int64_t) {
    for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
      task(i);
  });
}

int SgnsSchedule::NumParts(int vertices) {
  int parts = 1;
  while (parts < kMaxParts && vertices / (2 * parts) >= kMinPartVertices)
    parts *= 2;
  return parts;
}

SgnsSchedule::SgnsSchedule(int vertices,
                           const std::vector<double>& noise_weights,
                           bool shared_rows)
    : parts_(NumParts(vertices)) {
  IMR_CHECK_GT(vertices, 0);
  IMR_CHECK_EQ(noise_weights.size(), static_cast<size_t>(vertices));
  noise_.reserve(static_cast<size_t>(parts_));
  for (int part = 0; part < parts_; ++part) {
    std::vector<double> weights;
    for (int v = part; v < vertices; v += parts_)
      weights.push_back(noise_weights[static_cast<size_t>(v)]);
    if (std::all_of(weights.begin(), weights.end(),
                    [](double w) { return w <= 0; }))
      std::fill(weights.begin(), weights.end(), 1.0);
    noise_.emplace_back(weights);
  }

  if (!shared_rows) {
    // Latin square: wave w pairs embedding part i with context part i + w.
    for (int wave = 0; wave < parts_; ++wave) {
      std::vector<std::vector<int>> tasks;
      for (int i = 0; i < parts_; ++i)
        tasks.push_back({i * parts_ + (i + wave) % parts_});
      waves_.push_back(std::move(tasks));
    }
    return;
  }
  // Rows are shared, so a task may touch only its own two parts: the
  // circle method pairs the parts off in parts - 1 rounds (parts is a power
  // of two, so even unless it is 1), then the diagonal runs as one wave.
  const int ring = parts_ - 1;
  for (int round = 0; round < ring; ++round) {
    std::vector<std::vector<int>> tasks;
    for (int k = 0; k < parts_ / 2; ++k) {
      const int a = k == 0 ? ring : (round + k) % ring;
      const int b = k == 0 ? round : (round - k + ring) % ring;
      tasks.push_back({a * parts_ + b, b * parts_ + a});
    }
    waves_.push_back(std::move(tasks));
  }
  std::vector<std::vector<int>> diagonal;
  for (int i = 0; i < parts_; ++i) diagonal.push_back({i * parts_ + i});
  waves_.push_back(std::move(diagonal));
}

void SgnsSchedule::RunSweep(int threads,
                            const std::function<void(int)>& visit) const {
  for (const std::vector<std::vector<int>>& wave : waves_) {
    RunTasks(static_cast<int64_t>(wave.size()), threads, [&](int64_t task) {
      for (int bucket : wave[static_cast<size_t>(task)]) visit(bucket);
    });
  }
}

void SgnsSchedule::Update(float* embeddings, float* contexts, int dim,
                          int center, int context, int negatives, float lr,
                          util::Rng* rng, float* grad) const {
  float* center_vec = embeddings + static_cast<size_t>(center) * dim;
  std::fill_n(grad, dim, 0.0f);
  const int part = PartOf(context);
  const AliasSampler& noise = noise_[static_cast<size_t>(part)];
  for (int k = 0; k <= negatives; ++k) {
    int vertex;
    float label;
    if (k == 0) {
      vertex = context;
      label = 1.0f;
    } else {
      vertex = part + parts_ * static_cast<int>(noise.Sample(rng));
      if (vertex == context) continue;
      label = 0.0f;
    }
    float* ctx_vec = contexts + static_cast<size_t>(vertex) * dim;
    float dot = 0.0f;
    for (int d = 0; d < dim; ++d) dot += center_vec[d] * ctx_vec[d];
    const float grad_scale = (label - FastSigmoid(dot)) * lr;
    for (int d = 0; d < dim; ++d) {
      grad[d] += grad_scale * ctx_vec[d];
      ctx_vec[d] += grad_scale * center_vec[d];
    }
  }
  for (int d = 0; d < dim; ++d) center_vec[d] += grad[d];
}

EmbeddingStore TrainWalkSgns(const ProximityGraph& graph,
                             const DeepWalkConfig& config,
                             const WalkStep& step) {
  IMR_CHECK_GT(config.dim, 0);
  IMR_CHECK_GT(config.walk_length, 1);
  util::Rng rng(config.seed);
  const int vertices = graph.num_vertices();
  const int dim = config.dim;

  EmbeddingStore store(vertices, dim);
  if (vertices == 0) return store;
  std::vector<float> contexts(static_cast<size_t>(vertices) * dim, 0.0f);
  const float bound = 0.5f / static_cast<float>(dim);
  for (int v = 0; v < vertices; ++v) {
    float* row = store.Vector(v);
    for (int d = 0; d < dim; ++d)
      row[d] = static_cast<float>(rng.Uniform(-bound, bound));
  }

  std::vector<double> noise_weights(static_cast<size_t>(vertices));
  for (int v = 0; v < vertices; ++v)
    noise_weights[static_cast<size_t>(v)] = std::pow(
        graph.degrees()[static_cast<size_t>(v)], config.noise_power);
  const SgnsSchedule schedule(vertices, noise_weights, /*shared_rows=*/false);
  const uint64_t walk_stream = rng.Next();
  const uint64_t train_stream = rng.Next();
  float* embeddings = store.Vector(0);

  std::vector<int> order(static_cast<size_t>(vertices));
  std::iota(order.begin(), order.end(), 0);
  const int64_t total_walks =
      static_cast<int64_t>(vertices) * config.walks_per_vertex;
  const int block = std::min(vertices, kWalksPerSweep);
  // (center, context) pairs, flattened: per walk chunk as rolled, then
  // bucket-major (bucket b owns pairs [begin[b], begin[b + 1])).
  std::vector<std::vector<int32_t>> chunk_pairs(
      static_cast<size_t>((block + kWalksPerChunk - 1) / kWalksPerChunk));
  std::vector<int32_t> pairs;
  std::vector<int64_t> begin(static_cast<size_t>(schedule.num_buckets()) + 1);
  int64_t walks_done = 0;
  uint64_t sweep = 0;
  for (int round = 0; round < config.walks_per_vertex; ++round) {
    rng.Shuffle(&order);
    for (int lo = 0; lo < vertices; lo += block, ++sweep) {
      const int hi = std::min(vertices, lo + block);
      const int64_t chunks = (hi - lo + kWalksPerChunk - 1) / kWalksPerChunk;
      RunTasks(chunks, config.threads, [&](int64_t chunk) {
        util::Rng walk_rng = CellRng(walk_stream, sweep,
                                     static_cast<uint64_t>(chunk));
        std::vector<int32_t>& out = chunk_pairs[static_cast<size_t>(chunk)];
        out.clear();
        std::vector<int> walk(static_cast<size_t>(config.walk_length));
        const int first = lo + static_cast<int>(chunk) * kWalksPerChunk;
        const int last = std::min(hi, first + kWalksPerChunk);
        for (int idx = first; idx < last; ++idx) {
          int length = 0;
          int previous = -1;
          int current = order[static_cast<size_t>(idx)];
          while (length < config.walk_length && current >= 0) {
            walk[static_cast<size_t>(length++)] = current;
            const int next = step(previous, current, &walk_rng);
            previous = current;
            current = next;
          }
          if (length < 2) continue;
          for (int center = 0; center < length; ++center) {
            const int w_lo = std::max(0, center - config.window);
            const int w_hi = std::min(length - 1, center + config.window);
            for (int pos = w_lo; pos <= w_hi; ++pos) {
              if (pos == center) continue;
              out.push_back(walk[static_cast<size_t>(center)]);
              out.push_back(walk[static_cast<size_t>(pos)]);
            }
          }
        }
      });

      // Counting sort into buckets, keeping the rolled order within each.
      std::fill(begin.begin(), begin.end(), 0);
      for (int64_t chunk = 0; chunk < chunks; ++chunk) {
        const std::vector<int32_t>& in = chunk_pairs[static_cast<size_t>(chunk)];
        for (size_t i = 0; i < in.size(); i += 2)
          ++begin[static_cast<size_t>(schedule.BucketOf(in[i], in[i + 1])) +
                  1];
      }
      std::partial_sum(begin.begin(), begin.end(), begin.begin());
      pairs.resize(2 * static_cast<size_t>(begin.back()));
      std::vector<int64_t> cursor(begin.begin(), begin.end() - 1);
      for (int64_t chunk = 0; chunk < chunks; ++chunk) {
        const std::vector<int32_t>& in = chunk_pairs[static_cast<size_t>(chunk)];
        for (size_t i = 0; i < in.size(); i += 2) {
          const int64_t at = cursor[static_cast<size_t>(
              schedule.BucketOf(in[i], in[i + 1]))]++;
          pairs[2 * static_cast<size_t>(at)] = in[i];
          pairs[2 * static_cast<size_t>(at) + 1] = in[i + 1];
        }
      }

      const double sweep_walks = hi - lo;
      schedule.RunSweep(config.threads, [&](int bucket) {
        const int64_t first = begin[static_cast<size_t>(bucket)];
        const int64_t count = begin[static_cast<size_t>(bucket) + 1] - first;
        if (count == 0) return;
        util::Rng bucket_rng =
            CellRng(train_stream, sweep, static_cast<uint64_t>(bucket));
        std::vector<float> grad(static_cast<size_t>(dim));
        for (int64_t k = 0; k < count; ++k) {
          const double progress =
              (static_cast<double>(walks_done) +
               sweep_walks * static_cast<double>(k) /
                   static_cast<double>(count)) /
              static_cast<double>(total_walks);
          const size_t at = 2 * static_cast<size_t>(first + k);
          schedule.Update(embeddings, contexts.data(), dim, pairs[at],
                          pairs[at + 1], config.negative_samples,
                          DecayedLearningRate(config.initial_lr, progress),
                          &bucket_rng, grad.data());
        }
      });
      walks_done += hi - lo;
    }
  }
  store.NormalizeRows();
  return store;
}

}  // namespace imr::graph::internal
