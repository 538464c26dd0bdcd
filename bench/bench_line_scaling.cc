// LINE thread scaling on a graph of the size where parallel SGNS pays: 20k
// vertices in 100 dense communities of 200 (about 740k edges), default
// LineConfig (dim 128, both orders) at 1, 2 and 4 threads. Prints the host's
// core count, each run's wall time and its speedup over 1 thread, and exits
// non-zero when any run's embedding differs from the 1-thread one (the
// bucket schedule of graph/sgns.h promises bit-identical output).
//
//   bench_line_scaling [--samples_per_edge=N]   (default 10)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  int64_t samples_per_edge = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--samples_per_edge=", 19) == 0) {
      samples_per_edge = std::atoll(argv[i] + 19);
    } else {
      std::fprintf(stderr, "usage: %s [--samples_per_edge=N]\n", argv[0]);
      return 2;
    }
  }

  const int vertices = 20000, community = 200;
  imr::graph::ProximityGraph graph(vertices);
  imr::util::Rng rng(3);
  for (int i = 0; i < 2600000; ++i) {
    const int a = static_cast<int>(rng.UniformInt(vertices));
    const int b = (a / community) * community +
                  static_cast<int>(rng.UniformInt(community));
    if (a != b) graph.AddCooccurrence(a, b);
  }
  graph.Finalize(2);
  std::printf("host cores %u, %d vertices, %zu edges, %lld samples/edge\n",
              std::thread::hardware_concurrency(), vertices,
              graph.edges().size(),
              static_cast<long long>(samples_per_edge));

  std::vector<float> reference;
  double base_seconds = 0;
  bool identical = true;
  for (int threads : {1, 2, 4}) {
    imr::util::SetGlobalThreads(threads);
    imr::graph::LineConfig config;
    config.samples_per_edge = samples_per_edge;
    config.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const imr::graph::EmbeddingStore store =
        imr::graph::TrainLine(graph, config);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (threads == 1) {
      reference = store.flat();
      base_seconds = seconds;
    } else if (store.flat() != reference) {
      identical = false;
    }
    std::printf("threads %d: %.2f s, speedup %.2fx\n", threads, seconds,
                base_seconds / seconds);
  }
  imr::util::SetGlobalThreads(0);
  std::printf("embeddings %s across thread counts\n",
              identical ? "bit-identical" : "DIFFER");
  return identical ? 0 : 1;
}
