#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "datagen/presets.h"
#include "graph/alias_sampler.h"
#include "graph/deepwalk.h"
#include "graph/embedding_store.h"
#include "graph/line.h"
#include "graph/node2vec.h"
#include "graph/proximity_graph.h"
#include "graph/sgns.h"
#include "util/thread_pool.h"

namespace imr::graph {
namespace {

TEST(AliasSamplerTest, MatchesDistribution) {
  util::Rng rng(1);
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasSampler sampler(weights);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[sampler.Sample(&rng)]++;
  for (int i = 0; i < 4; ++i) {
    const double expected = weights[i] / 10.0;
    EXPECT_NEAR(counts[i] / static_cast<double>(n), expected, 0.01)
        << "index " << i;
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  util::Rng rng(2);
  AliasSampler sampler({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.Sample(&rng), 1u);
}

TEST(AliasSamplerTest, SingleElement) {
  util::Rng rng(3);
  AliasSampler sampler({5.0});
  EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(ProximityGraphTest, ThresholdAndWeights) {
  ProximityGraph graph(5);
  // Pair (0,1): 8 co-occurrences; (1,2): 2; (3,4): 1.
  for (int i = 0; i < 8; ++i) graph.AddCooccurrence(0, 1);
  graph.AddCooccurrence(1, 2);
  graph.AddCooccurrence(2, 1);  // symmetric counting
  graph.AddCooccurrence(3, 4);
  graph.Finalize(/*min_cooccurrence=*/2);

  ASSERT_EQ(graph.edges().size(), 2u);
  EXPECT_EQ(graph.max_cooccurrence(), 8);
  EXPECT_EQ(graph.CooccurrenceCount(0, 1), 8);
  EXPECT_EQ(graph.CooccurrenceCount(1, 0), 8);
  EXPECT_EQ(graph.CooccurrenceCount(3, 4), 1);

  // w = log(co) / log(max co).
  std::map<std::pair<int, int>, double> weights;
  for (const Edge& e : graph.edges())
    weights[{e.source, e.target}] = e.weight;
  EXPECT_NEAR((weights[{0, 1}]), 1.0, 1e-9);
  EXPECT_NEAR((weights[{1, 2}]), std::log(2.0) / std::log(8.0), 1e-9);
  EXPECT_EQ((weights.count({3, 4})), 0u);
}

TEST(ProximityGraphTest, SelfLoopsIgnored) {
  ProximityGraph graph(3);
  graph.AddCooccurrence(1, 1);
  graph.AddCooccurrence(0, 2);
  graph.AddCooccurrence(0, 2);
  graph.Finalize(2);
  ASSERT_EQ(graph.edges().size(), 1u);
  EXPECT_EQ(graph.edges()[0].source, 0);
  EXPECT_EQ(graph.edges()[0].target, 2);
}

TEST(ProximityGraphTest, DegreesAndNeighbors) {
  ProximityGraph graph(4);
  for (int i = 0; i < 4; ++i) graph.AddCooccurrence(0, 1);
  for (int i = 0; i < 4; ++i) graph.AddCooccurrence(0, 2);
  graph.Finalize(2);
  auto neighbors = graph.Neighbors(0);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0], 1);
  EXPECT_EQ(neighbors[1], 2);
  EXPECT_TRUE(graph.Neighbors(3).empty());
  EXPECT_GT(graph.degrees()[0], graph.degrees()[1]);
}

TEST(EmbeddingStoreTest, MutualRelationIsDifference) {
  EmbeddingStore store(3, 2);
  store.Vector(1)[0] = 1.0f;
  store.Vector(1)[1] = 2.0f;
  store.Vector(2)[0] = 4.0f;
  store.Vector(2)[1] = 6.0f;
  auto mr = store.MutualRelation(1, 2);
  ASSERT_EQ(mr.size(), 2u);
  EXPECT_FLOAT_EQ(mr[0], 3.0f);
  EXPECT_FLOAT_EQ(mr[1], 4.0f);
}

TEST(EmbeddingStoreTest, CosineAndNearestNeighbors) {
  EmbeddingStore store(4, 2);
  // v0 = (1,0), v1 = (0.9, 0.1), v2 = (0,1), v3 = (-1,0)
  store.Vector(0)[0] = 1;
  store.Vector(1)[0] = 0.9f;
  store.Vector(1)[1] = 0.1f;
  store.Vector(2)[1] = 1;
  store.Vector(3)[0] = -1;
  EXPECT_NEAR(store.Cosine(0, 3), -1.0, 1e-6);
  auto neighbors = store.NearestNeighbors(0, 2);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].vertex, 1);
  EXPECT_EQ(neighbors[1].vertex, 2);
}

TEST(EmbeddingStoreTest, NormalizeRows) {
  EmbeddingStore store(2, 2);
  store.Vector(0)[0] = 3;
  store.Vector(0)[1] = 4;
  store.NormalizeRows();  // zero row 1 untouched
  EXPECT_NEAR(store.Vector(0)[0], 0.6f, 1e-6);
  EXPECT_NEAR(store.Vector(0)[1], 0.8f, 1e-6);
  EXPECT_FLOAT_EQ(store.Vector(1)[0], 0.0f);
}

TEST(EmbeddingStoreTest, SaveLoadRoundTrip) {
  EmbeddingStore store(3, 4);
  for (int v = 0; v < 3; ++v)
    for (int d = 0; d < 4; ++d) store.Vector(v)[d] = v + 0.1f * d;
  const std::string path = "/tmp/imr_embedding_test.bin";
  ASSERT_TRUE(store.Save(path).ok());
  auto loaded = EmbeddingStore::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), 3);
  EXPECT_EQ(loaded->dim(), 4);
  EXPECT_FLOAT_EQ(loaded->Vector(2)[3], 2.3f);
  std::remove(path.c_str());
}

// Two clusters of vertices, dense within and sparse across: LINE must
// embed same-cluster vertices closer than cross-cluster ones.
TEST(LineTest, SeparatesCommunities) {
  const int n = 20;  // vertices 0-9 cluster A, 10-19 cluster B
  ProximityGraph graph(n);
  util::Rng rng(41);
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 10; ++i) {
      int a = static_cast<int>(rng.UniformInt(10));
      int b = static_cast<int>(rng.UniformInt(10));
      if (a != b) graph.AddCooccurrence(a, b);
      a = 10 + static_cast<int>(rng.UniformInt(10));
      b = 10 + static_cast<int>(rng.UniformInt(10));
      if (a != b) graph.AddCooccurrence(a, b);
    }
    // sparse cross edges
    if (round % 10 == 0) graph.AddCooccurrence(0, 10);
  }
  graph.Finalize(2);

  LineConfig config;
  config.dim = 16;
  config.samples_per_edge = 600;
  config.seed = 43;
  EmbeddingStore store = TrainLine(graph, config);

  double within = 0, across = 0;
  int nw = 0, na = 0;
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      within += store.Cosine(a, b);
      ++nw;
    }
    for (int b = 10; b < 20; ++b) {
      across += store.Cosine(a, b);
      ++na;
    }
  }
  within /= nw;
  across /= na;
  EXPECT_GT(within, across + 0.2)
      << "within=" << within << " across=" << across;
}

TEST(LineTest, HogwildSeparatesCommunities) {
  // Same two-cluster setup as SeparatesCommunities, but trained with
  // threads = 4. The bucket schedule gives the same vectors at every thread
  // count (SgnsDeterminismTest covers that on a graph with several parts);
  // this asserts that the parallel setting still separates the clusters.
  const int n = 20;
  ProximityGraph graph(n);
  util::Rng rng(41);
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 10; ++i) {
      int a = static_cast<int>(rng.UniformInt(10));
      int b = static_cast<int>(rng.UniformInt(10));
      if (a != b) graph.AddCooccurrence(a, b);
      a = 10 + static_cast<int>(rng.UniformInt(10));
      b = 10 + static_cast<int>(rng.UniformInt(10));
      if (a != b) graph.AddCooccurrence(a, b);
    }
    if (round % 10 == 0) graph.AddCooccurrence(0, 10);
  }
  graph.Finalize(2);

  LineConfig config;
  config.dim = 16;
  config.samples_per_edge = 600;
  config.seed = 43;
  config.threads = 4;
  EmbeddingStore store = TrainLine(graph, config);

  double within = 0, across = 0;
  int nw = 0, na = 0;
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      within += store.Cosine(a, b);
      ++nw;
    }
    for (int b = 10; b < 20; ++b) {
      across += store.Cosine(a, b);
      ++na;
    }
  }
  within /= nw;
  across /= na;
  EXPECT_GT(within, across + 0.2)
      << "within=" << within << " across=" << across;
}

TEST(LineTest, FirstOrderOnlyAndSecondOrderOnly) {
  ProximityGraph graph(6);
  for (int i = 0; i < 5; ++i) {
    graph.AddCooccurrence(0, 1);
    graph.AddCooccurrence(1, 2);
    graph.AddCooccurrence(3, 4);
    graph.AddCooccurrence(4, 5);
  }
  graph.Finalize(2);

  LineConfig first_only;
  first_only.dim = 8;
  first_only.first_order = true;
  first_only.second_order = false;
  first_only.samples_per_edge = 200;
  EmbeddingStore fo = TrainLine(graph, first_only);
  EXPECT_EQ(fo.dim(), 8);

  LineConfig second_only = first_only;
  second_only.first_order = false;
  second_only.second_order = true;
  EmbeddingStore so = TrainLine(graph, second_only);
  EXPECT_EQ(so.dim(), 8);

  LineConfig both = first_only;
  both.second_order = true;
  EmbeddingStore combined = TrainLine(graph, both);
  EXPECT_EQ(combined.dim(), 8);  // 4 + 4
}

// The paper's key case study (Table V): pairs of the same relation should
// have similar MR vectors after LINE embedding of the synthetic unlabeled
// corpus.
TEST(LineTest, MutualRelationsClusterByRelation) {
  datagen::PresetOptions options;
  options.scale = 0.3;
  datagen::SyntheticDataset dataset = datagen::MakeGdsLike(options);

  ProximityGraph graph(dataset.world.graph.num_entities());
  graph.AddCorpus(dataset.unlabeled.sentences);
  graph.Finalize(2);

  LineConfig config;
  config.dim = 32;
  config.samples_per_edge = 300;
  config.seed = 47;
  EmbeddingStore store = TrainLine(graph, config);

  // Average cosine of MR vectors for same-relation pairs vs different-
  // relation pairs.
  const auto& triples = dataset.world.graph.triples();
  double same = 0, diff = 0;
  int ns = 0, nd = 0;
  for (size_t i = 0; i < triples.size(); i += 3) {
    for (size_t j = i + 1; j < triples.size(); j += 3) {
      auto mr_i = store.MutualRelation(static_cast<int>(triples[i].head),
                                       static_cast<int>(triples[i].tail));
      auto mr_j = store.MutualRelation(static_cast<int>(triples[j].head),
                                       static_cast<int>(triples[j].tail));
      const double cosine = EmbeddingStore::Cosine(mr_i, mr_j);
      if (triples[i].relation == triples[j].relation) {
        same += cosine;
        ++ns;
      } else {
        diff += cosine;
        ++nd;
      }
    }
  }
  ASSERT_GT(ns, 10);
  ASSERT_GT(nd, 10);
  same /= ns;
  diff /= nd;
  EXPECT_GT(same, diff + 0.1) << "same=" << same << " diff=" << diff;
}

// A graph with several vertex parts, so the bucket schedule really runs
// buckets side by side: ring-of-communities structure over 1200 vertices.
ProximityGraph ManyPartGraph() {
  const int n = 1200;
  ProximityGraph graph(n);
  util::Rng rng(59);
  for (int i = 0; i < 12 * n; ++i) {
    const int a = static_cast<int>(rng.UniformInt(n));
    const int b = (a / 40) * 40 + static_cast<int>(rng.UniformInt(40));
    if (a != b) graph.AddCooccurrence(a, b);
  }
  for (int i = 0; i < n; ++i) {
    graph.AddCooccurrence(i, (i + 40) % n);
    graph.AddCooccurrence(i, (i + 40) % n);
  }
  graph.Finalize(2);
  return graph;
}

// Restores the process-wide pool size when a test ends, even on failure.
class GlobalThreadsGuard {
 public:
  GlobalThreadsGuard() : saved_(util::GlobalThreads()) {}
  ~GlobalThreadsGuard() { util::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

// LINE, DeepWalk and node2vec give bit-identical vectors for one seed at
// every `threads` value and every global pool size.
TEST(SgnsDeterminismTest, BitIdenticalAtAnyThreadCount) {
  const GlobalThreadsGuard guard;
  const ProximityGraph graph = ManyPartGraph();
  ASSERT_GE(internal::SgnsSchedule::NumParts(graph.num_vertices()), 4);

  LineConfig line;
  line.dim = 16;
  line.samples_per_edge = 10;
  DeepWalkConfig deepwalk;
  deepwalk.dim = 8;
  deepwalk.walks_per_vertex = 1;
  deepwalk.walk_length = 8;
  deepwalk.window = 2;
  Node2VecConfig node2vec;
  node2vec.dim = 8;
  node2vec.walks_per_vertex = 1;
  node2vec.walk_length = 8;
  node2vec.window = 2;
  node2vec.p = 0.5;
  node2vec.q = 2.0;

  util::SetGlobalThreads(1);
  line.threads = deepwalk.threads = node2vec.threads = 1;
  const std::vector<float> line_ref = TrainLine(graph, line).flat();
  const std::vector<float> deepwalk_ref =
      TrainDeepWalk(graph, deepwalk).flat();
  const std::vector<float> node2vec_ref =
      TrainNode2Vec(graph, node2vec).flat();

  for (int pool : {1, 2, 4, 8}) {
    util::SetGlobalThreads(pool);
    for (int threads : {0, 1, 2, 4, 8}) {
      SCOPED_TRACE("pool " + std::to_string(pool) + ", threads " +
                   std::to_string(threads));
      line.threads = deepwalk.threads = node2vec.threads = threads;
      EXPECT_EQ(TrainLine(graph, line).flat(), line_ref);
      EXPECT_EQ(TrainDeepWalk(graph, deepwalk).flat(), deepwalk_ref);
      EXPECT_EQ(TrainNode2Vec(graph, node2vec).flat(), node2vec_ref);
    }
  }
}

}  // namespace
}  // namespace imr::graph
