// The repo benchmark driver. One run of one workload:
//
//   set-up      datagen (x kSetupRepeats, median)
//   timed       the offline pipeline: bag build -> proximity graph -> LINE
//               -> MR attach -> PA-TMR training -> held-out eval -> snapshot
//   set-up      serving assets (x kSetupRepeats, median): kNN build, the
//               A/B snapshots with an ANNI section, chained IMRD deltas,
//               ServeRouter::Open, warm-up
//   timed       open-loop Poisson traffic through SubmitAsync at two fixed
//               rates, then a bisection of a fixed rate ladder, with
//               reloads during (serve-churn) or after (serve-zipf) it
//   checks      the reloaded pipeline snapshot serves PaModel::Predict's
//               probabilities; every response holds one finite probability
//               per relation and an in-range generation; a fixed sample
//               matches a single-threaded reference engine of that
//               generation
//
// The driver only calls the library's public headers. With --trace 1 the
// run is made twice, untraced then traced; the traced pass records spans
// around every call into a layer, writes them to a TSV file, and the
// per-layer metrics come from it. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--git-sha SHA]
#include <sys/prctl.h>
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/presets.h"
#include "eval/heldout.h"
#include "graph/embedding_store.h"
#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "re/bag_dataset.h"
#include "re/config.h"
#include "re/knn_predictor.h"
#include "re/pa_model.h"
#include "re/trainer.h"
#include "serve/delta.h"
#include "serve/inference_engine.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "tensor/buffer_pool.h"
#include "tensor/simd/dispatch.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using imr::serve::Prediction;
using imr::serve::Query;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty();
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Fails the run loudly: a broken precondition is not a measurement.
void Require(bool condition, const std::string& what) {
  if (condition) return;
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void RequireOk(const imr::util::Status& status, const std::string& what) {
  Require(status.ok(), what + ": " + status.ToString());
}

// Collects check failures; any failure makes the run incorrect.
struct Checks {
  uint64_t failed = 0;
  void Expect(bool condition, const std::string& what) {
    if (condition) return;
    if (failed < 10) std::fprintf(stderr, "perfbench: check failed: %s\n",
                                  what.c_str());
    ++failed;
  }
};

// ---- the offline pipeline --------------------------------------------------

imr::re::BagDatasetOptions BagOptions() {
  imr::re::BagDatasetOptions options;
  options.max_sentence_length = 40;
  options.max_position = 20;
  return options;
}

struct Pipeline {
  std::unique_ptr<imr::re::BagDataset> bags;
  imr::graph::EmbeddingStore embeddings;
  std::unique_ptr<imr::re::PaModel> model;
  double seconds = 0.0;
  double auc = 0.0;
  int64_t edges = 0;
  int64_t line_samples = 0;
  std::string snapshot_path;
};

Pipeline RunPipeline(const imr::datagen::SyntheticDataset& data,
                     uint64_t seed, const std::string& dir, Tracer* tracer) {
  Pipeline out;
  const Clock::time_point start = Clock::now();
  ScopedSpan root(tracer, "pipeline");
  {
    ScopedSpan span(tracer, "re.bag_build");
    out.bags = std::make_unique<imr::re::BagDataset>(imr::re::BagDataset::Build(
        data.world.graph, data.corpus.train, data.corpus.test, BagOptions()));
  }
  imr::graph::ProximityGraph proximity(data.world.graph.num_entities());
  {
    ScopedSpan span(tracer, "graph.proximity");
    proximity.AddCorpus(data.unlabeled.sentences);
    proximity.Finalize(/*min_cooccurrence=*/2);
  }
  out.edges = static_cast<int64_t>(proximity.edges().size());
  imr::graph::LineConfig line;
  line.dim = kLineDim;
  line.samples_per_edge = kLineSamplesPerEdge;
  line.seed = seed + 1000;
  line.threads = kLineThreads;
  out.line_samples = out.edges * line.samples_per_edge;
  {
    ScopedSpan span(tracer, "graph.line");
    out.embeddings = imr::graph::TrainLine(proximity, line);
  }
  {
    ScopedSpan span(tracer, "re.attach_mr");
    RequireOk(out.bags->AttachMutualRelations(out.embeddings), "attach MR");
  }

  imr::re::PaModelConfig config;
  config.num_relations = out.bags->num_relations();
  config.encoder = "pcnn";
  config.aggregation = imr::re::Aggregation::kAttention;
  config.use_mutual_relation = true;
  config.use_entity_type = true;
  config.mutual_relation_dim = out.embeddings.dim();
  config.type_dim = 8;
  config.encoder_config.vocab_size = out.bags->vocabulary().size();
  config.encoder_config.word_dim = 16;
  config.encoder_config.position_dim = 3;
  config.encoder_config.max_position = BagOptions().max_position;
  config.encoder_config.filters = 32;
  config.encoder_config.dropout = 0.5f;
  config.encoder_config.word_dropout = 0.25f;
  imr::util::Rng rng(seed + 17);
  out.model = std::make_unique<imr::re::PaModel>(config, &rng);

  imr::re::TrainerConfig trainer_config;
  trainer_config.epochs = kEpochs;
  trainer_config.batch_size = 32;
  trainer_config.optimizer = "adam";
  trainer_config.learning_rate = 0.01f;
  trainer_config.seed = seed + 23;
  {
    ScopedSpan span(tracer, "re.train");
    imr::re::Trainer trainer(out.model.get(), trainer_config);
    trainer.Train(out.bags->train_bags(),
                  [&](const imr::re::EpochStats& epoch) {
                    const Clock::time_point now = Clock::now();
                    tracer->Record(
                        "re.epoch",
                        now - std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      epoch.seconds)),
                        now, span.id(), 0);
                    return true;
                  });
  }
  out.model->SetTraining(false);
  {
    ScopedSpan span(tracer, "eval.heldout");
    const imr::re::PaModel& model = *out.model;
    const imr::eval::HeldOutResult result = imr::eval::Evaluate(
        [&](const imr::re::Bag& bag) {
          ScopedSpan predict(tracer, "re.predict");
          return model.Predict(bag);
        },
        out.bags->test_bags(), out.bags->num_relations());
    out.auc = result.auc;
  }
  out.snapshot_path = dir + "/pipeline.imrs";
  {
    ScopedSpan span(tracer, "serve.snapshot_save");
    RequireOk(imr::serve::SaveSnapshot(
                  *out.model, out.bags->vocabulary(), out.embeddings,
                  data.world.graph, BagOptions(), trainer_config.epochs,
                  "perfbench pipeline", out.snapshot_path),
              "save pipeline snapshot");
  }
  out.seconds = SecondsBetween(start, Clock::now());
  return out;
}

// ---- requests --------------------------------------------------------------

// The pairs of `bags` as serve queries, each with its whole bag of
// sentences from `corpus` in corpus order (the order BagDataset groups them
// in), aligned with `bags`.
std::vector<Query> PairQueries(
    const std::vector<imr::text::LabeledSentence>& corpus,
    const std::vector<imr::re::Bag>& bags) {
  std::map<std::pair<int64_t, int64_t>, std::vector<const imr::text::Sentence*>>
      by_pair;
  for (const auto& labeled : corpus) {
    by_pair[{labeled.sentence.head_entity, labeled.sentence.tail_entity}]
        .push_back(&labeled.sentence);
  }
  std::vector<Query> queries;
  queries.reserve(bags.size());
  for (const imr::re::Bag& bag : bags) {
    Query query;
    query.head = bag.head;
    query.tail = bag.tail;
    query.head_types = bag.head_types;
    query.tail_types = bag.tail_types;
    for (const imr::text::Sentence* sentence : by_pair[{bag.head, bag.tail}])
      query.sentences.push_back(*sentence);
    queries.push_back(std::move(query));
  }
  return queries;
}

// Query index of every request of the run, a pure function of the seed.
// Uniform draws every query alike. Otherwise a query is drawn in proportion
// to its sentence count, as if each request named the pair of a random
// corpus sentence: pair frequencies then follow the corpus's own long tail
// (the NYT preset's Zipf sentence counts, paper Fig. 1a).
std::vector<int> RequestMix(bool uniform, const std::vector<Query>& queries,
                            size_t count, uint64_t seed) {
  std::vector<int> tickets;
  for (size_t q = 0; q < queries.size(); ++q) {
    const size_t n = uniform ? 1 : queries[q].sentences.size();
    tickets.insert(tickets.end(), n, static_cast<int>(q));
  }
  imr::util::Rng rng(seed ^ 0xC0FFEEULL);
  std::vector<int> order(count);
  for (int& query : order)
    query = tickets[rng.UniformInt(static_cast<uint64_t>(tickets.size()))];
  return order;
}

// ---- serving assets ----------------------------------------------------------

// Snapshot states reachable by the reload sequence: state b * (D + 1) + j is
// base b (0 = A, 1 = B) with its first j deltas applied.
constexpr int kStates = 2 * (kDeltasPerBase + 1);

struct ServeAssets {
  std::string base_path[2];
  std::vector<std::string> delta_path[2];
  std::unique_ptr<imr::serve::ServeRouter> router;
};

imr::serve::RouterOptions ServeOptions() {
  imr::serve::RouterOptions options;
  options.replicas = 1;
  options.workers_per_replica = kRouterWorkers;
  options.admission.max_concurrent = kRouterWorkers;
  return options;
}

ServeAssets PrepareServing(const imr::datagen::SyntheticDataset& data,
                           const Pipeline& pipeline, uint64_t seed,
                           const std::string& dir,
                           const std::vector<Query>& warmup, Tracer* tracer) {
  ServeAssets assets;
  ScopedSpan root(tracer, "setup.serve");
  imr::re::KnnOptions knn_options;
  knn_options.min_pairs_for_ivf = 64;
  imr::re::KnnPredictor knn;
  {
    ScopedSpan span(tracer, "re.knn_build");
    knn = imr::re::KnnPredictor::Build(
        pipeline.embeddings, pipeline.bags->train_bags(),
        pipeline.bags->num_relations(), knn_options,
        &imr::util::GlobalPool());
  }

  // Snapshot B: the same model over slightly moved entity vectors.
  const imr::graph::EmbeddingStore& a = pipeline.embeddings;
  imr::graph::EmbeddingStore b(a.num_vertices(), a.dim());
  imr::util::Rng noise(seed + 29);
  for (int v = 0; v < a.num_vertices(); ++v) {
    for (int d = 0; d < a.dim(); ++d)
      b.Vector(v)[d] = a.Vector(v)[d] +
                       0.01f * static_cast<float>(noise.Normal());
  }
  const imr::graph::EmbeddingStore* stores[2] = {&a, &b};
  for (int base = 0; base < 2; ++base) {
    assets.base_path[base] = dir + (base == 0 ? "/serve_a.imrs" : "/serve_b.imrs");
    {
      ScopedSpan span(tracer, "serve.snapshot_save_serving");
      RequireOk(imr::serve::SaveSnapshot(
                    *pipeline.model, pipeline.bags->vocabulary(),
                    *stores[base], data.world.graph, BagOptions(), 0,
                    "perfbench serving", assets.base_path[base], nullptr, &knn),
                "save serving snapshot");
    }
    ScopedSpan span(tracer, "serve.delta_prepare");
    auto loaded = imr::serve::LoadSnapshot(assets.base_path[base]);
    RequireOk(loaded.status(), "load serving snapshot");
    uint64_t chain = loaded->content_hash;
    imr::graph::EmbeddingStore work(a.num_vertices(), a.dim());
    std::memcpy(work.Vector(0), stores[base]->raw(),
                stores[base]->value_count() * sizeof(float));
    for (int j = 0; j < kDeltasPerBase; ++j) {
      imr::serve::DeltaSpec delta;
      delta.include_quantized = false;
      for (int r = 0; r < kDeltaRows; ++r) {
        const int row = static_cast<int>(
            noise.UniformInt(static_cast<uint64_t>(work.num_vertices())));
        delta.touched_rows.push_back(row);
        for (int d = 0; d < work.dim(); ++d)
          work.Vector(row)[d] += 0.02f * static_cast<float>(noise.Normal());
      }
      const std::string path = dir + "/delta_" + std::to_string(base) + "_" +
                               std::to_string(j) + ".imrd";
      auto result = imr::serve::SaveDelta(chain, work, nullptr, delta, path);
      RequireOk(result.status(), "save delta");
      chain = *result;
      assets.delta_path[base].push_back(path);
    }
  }

  {
    ScopedSpan span(tracer, "serve.open");
    auto router =
        imr::serve::ServeRouter::Open(assets.base_path[0], ServeOptions());
    RequireOk(router.status(), "open router");
    assets.router = std::move(router).value();
  }
  {
    // Fills the MR cache with the hot pairs and the tensor buffer pools of
    // the worker threads; not timed.
    ScopedSpan span(tracer, "serve.warmup");
    constexpr size_t kChunk = 256;  // well inside the router's queue bound
    for (size_t i = 0; i < warmup.size(); i += kChunk) {
      const std::vector<Query> chunk(
          warmup.begin() + static_cast<std::ptrdiff_t>(i),
          warmup.begin() +
              static_cast<std::ptrdiff_t>(std::min(i + kChunk, warmup.size())));
      for (const auto& result : assets.router->PredictBatch(chunk))
        RequireOk(result.status(), "warm-up request");
    }
  }
  return assets;
}

// ---- reloads -------------------------------------------------------------------

struct ReloadLog {
  std::vector<double> full_ms;
  std::vector<double> delta_ms;
  // Whole cycles: a full reload plus the kDeltasPerBase deltas after it.
  std::vector<double> cycle_ms;
  double open_cycle_ms = 0.0;
  int open_cycle_reloads = 0;  // 0: no cycle open
  uint64_t done = 0;
  uint64_t failed = 0;
  // state_of_generation[g] is the snapshot state generation g served.
  std::vector<int> state_of_generation = {-1, 0};
  // 1 + reloads begun: no response may carry a later generation.
  std::atomic<uint64_t> max_generation{1};
};

// Publishes reload number k (1-based) of the A, A+d1.., B, B+d1.. cycle.
void ReloadStep(ServeAssets* assets, int k, ReloadLog* log, Tracer* tracer) {
  const int state = k % kStates;
  const int base = state / (kDeltasPerBase + 1);
  const int j = state % (kDeltasPerBase + 1);
  const bool full = j == 0;
  log->max_generation.fetch_add(1);
  const Clock::time_point start = Clock::now();
  imr::util::Status status;
  {
    ScopedSpan span(tracer, full ? "serve.reload.full" : "serve.reload.delta");
    status = full ? assets->router->Reload(assets->base_path[base])
                  : assets->router->ReloadDelta(
                        assets->delta_path[base][static_cast<size_t>(j - 1)]);
  }
  const double ms = 1e3 * SecondsBetween(start, Clock::now());
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: reload %d failed: %s\n", k,
                 status.ToString().c_str());
    ++log->failed;
    log->open_cycle_reloads = 0;
    return;
  }
  ++log->done;
  (full ? log->full_ms : log->delta_ms).push_back(ms);
  if (full) {
    log->open_cycle_ms = ms;
    log->open_cycle_reloads = 1;
  } else if (log->open_cycle_reloads > 0) {
    log->open_cycle_ms += ms;
    if (++log->open_cycle_reloads == kDeltasPerBase + 1) {
      log->cycle_ms.push_back(log->open_cycle_ms);
      log->open_cycle_reloads = 0;
    }
  }
  const uint64_t generation = assets->router->generation();
  log->state_of_generation.resize(generation + 1, -1);
  log->state_of_generation[generation] = state;
}

// ---- open-loop traffic -----------------------------------------------------------

struct Sampled {
  int pair = 0;
  uint64_t generation = 0;
  std::vector<float> probabilities;
};

struct Rung {
  double rate = 0.0;
  size_t scheduled = 0;
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;
  bool abandoned = false;
  size_t cache_hits = 0;
  size_t knn_fired = 0;
  size_t sentences = 0;  // of the ok responses
  double drain_ms = 0.0;
  std::vector<double> latency_ms, forward_ms, wait_ms, lag_ms;
  std::vector<Sampled> sampled;
};

struct InFlight {
  size_t index = 0;
  uint64_t request = 0;
  Clock::time_point due;
  std::future<imr::util::StatusOr<Prediction>> result;
};

// Sends `schedule.size()` requests at their Poisson send times through
// SubmitAsync. A collector thread polls every outstanding future, so one
// slow response never delays recording the others. Latency runs from the
// scheduled send time to the observed completion.
Rung RunRung(imr::serve::ServeRouter* router, const std::vector<Query>& queries,
             int num_relations, const std::atomic<uint64_t>& max_generation,
             const std::vector<int>& pairs, size_t first_request, double rate,
             const std::vector<double>& schedule, Checks* checks,
             Tracer* tracer) {
  Rung rung;
  rung.rate = rate;
  rung.scheduled = schedule.size();
  std::vector<Query> prepared;
  prepared.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i)
    prepared.push_back(queries[static_cast<size_t>(pairs[first_request + i])]);

  ScopedSpan rung_span(tracer, "serve.rung");
  std::mutex inbox_mutex;
  std::condition_variable inbox_cv;
  std::vector<InFlight> inbox;  // guarded by inbox_mutex
  bool sending_done = false;    // guarded by inbox_mutex
  std::atomic<int64_t> outstanding{0};
  Clock::time_point last_due{};
  Clock::time_point last_completion{};

  std::thread collector([&] {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    std::vector<InFlight> pending;
    for (;;) {
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(inbox_mutex);
        for (InFlight& item : inbox) pending.push_back(std::move(item));
        inbox.clear();
        done = sending_done;
      }
      bool progressed = false;
      for (size_t k = 0; k < pending.size();) {
        if (pending[k].result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        const Clock::time_point now = Clock::now();
        InFlight item = std::move(pending[k]);
        pending[k] = std::move(pending.back());
        pending.pop_back();
        progressed = true;
        outstanding.fetch_sub(1, std::memory_order_relaxed);
        last_completion = std::max(last_completion, now);
        auto result = item.result.get();
        if (!result.ok()) {
          ++rung.failed;
          continue;
        }
        ++rung.ok;
        const double latency = 1e3 * SecondsBetween(item.due, now);
        const double forward = 1e-3 * result->latency_us;
        rung.latency_ms.push_back(latency);
        rung.forward_ms.push_back(forward);
        rung.wait_ms.push_back(std::max(0.0, latency - forward));
        rung.cache_hits += result->mr_cache_hit ? 1 : 0;
        rung.knn_fired += result->knn_fired ? 1 : 0;
        rung.sentences +=
            queries[static_cast<size_t>(pairs[first_request + item.index])]
                .sentences.size();
        if (tracer->enabled()) {
          const int request_span = tracer->Record(
              "serve.request", item.due, now, rung_span.id(), item.request);
          const auto fwd = std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(forward * 1e-3));
          tracer->Record("serve.forward", now - fwd, now, request_span,
                         item.request);
        }
        // With selective attention each relation is scored under its own
        // query (PaModel::Predict's diagonal evaluation), so the entries are
        // probabilities but need not sum to 1.
        bool valid =
            static_cast<int>(result->probabilities.size()) == num_relations;
        for (float p : result->probabilities)
          valid = valid && std::isfinite(p) && p >= 0.0f && p <= 1.0f;
        checks->Expect(valid, "response has one finite probability per relation");
        checks->Expect(result->generation >= 1 &&
                           result->generation <= max_generation.load(),
                       "response generation in range");
        if (item.index % kReferenceEvery == 0) {
          rung.sampled.push_back(
              {pairs[first_request + item.index], result->generation,
               std::move(result->probabilities)});
        }
      }
      if (done && pending.empty()) break;
      if (progressed) continue;
      // Sleep until some response is ready or a new request is sent, and
      // at most 100 us, so a response that completes out of order is
      // recorded within 100 us.
      constexpr auto kPoll = std::chrono::microseconds(100);
      if (!pending.empty()) {
        pending.front().result.wait_for(kPoll);
      } else {
        std::unique_lock<std::mutex> lock(inbox_mutex);
        inbox_cv.wait_for(lock, kPoll,
                          [&] { return !inbox.empty() || sending_done; });
      }
    }
  });

  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i]));
    // Sleep, then spin the last 150 us: a wake-up alone can be late by a
    // millisecond or more, and lateness here counts as latency.
    std::this_thread::sleep_until(due - std::chrono::microseconds(150));
    while (Clock::now() < due) {
    }
    rung.lag_ms.push_back(1e3 * SecondsBetween(due, Clock::now()));
    if (outstanding.load(std::memory_order_relaxed) >= kMaxBacklog) {
      rung.abandoned = true;
      break;
    }
    const uint64_t request = first_request + i + 1;
    const int submit = tracer->Begin("serve.submit", request, rung_span.id());
    InFlight item{i, request, due, router->SubmitAsync(std::move(prepared[i]))};
    tracer->End(submit);
    outstanding.fetch_add(1, std::memory_order_relaxed);
    ++rung.sent;
    last_due = due;
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      inbox.push_back(std::move(item));
    }
    inbox_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(inbox_mutex);
    sending_done = true;
  }
  inbox_cv.notify_one();
  collector.join();
  rung.drain_ms = rung.sent == 0
                      ? 0.0
                      : std::max(0.0, 1e3 * SecondsBetween(last_due,
                                                            last_completion));
  return rung;
}

// The ladder's pass rule.
bool Passes(const Rung& rung) {
  if (rung.abandoned || rung.failed > 0 || rung.drain_ms > kP99LimitMs)
    return false;
  const auto p99 = Percentile(rung.latency_ms, 0.99);
  return p99.has_value() && *p99 <= kP99LimitMs;
}

// ---- one pass of a workload ----------------------------------------------------

struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // sample counts, printed before the result
};

// Appends a quantile metric, failing the run when the sample cannot
// support it.
void AddQuantile(std::vector<Metric>* metrics, std::vector<std::string>* notes,
                 const std::string& name, const std::vector<double>& samples,
                 double q, const std::string& unit) {
  const auto value = Percentile(samples, q);
  Require(value.has_value(),
          name + ": " + std::to_string(samples.size()) +
              " samples cannot support this quantile (need " +
              std::to_string(MinSamplesFor(q)) + ")");
  metrics->push_back({name, *value, unit});
  notes->push_back(name + " n=" + std::to_string(samples.size()));
}

std::vector<double> Concat(const std::vector<Rung>& rungs,
                           std::vector<double> Rung::*field) {
  std::vector<double> all;
  for (const Rung& rung : rungs)
    all.insert(all.end(), (rung.*field).begin(), (rung.*field).end());
  return all;
}

Outcome RunWorkload(const WorkloadSpec& spec, const Args& args,
                    Tracer* tracer) {
  Outcome out;
  Checks checks;
  const std::string dir = args.workdir + "/" + spec.name + "-seed" +
                          std::to_string(args.seed) +
                          (tracer->enabled() ? "-traced" : "");
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Set-up and pipeline, kSetupRepeats times; each time-varying figure is
  // the median over the repeats, and the last repeat's outputs are served.
  // One repeat: datagen (set-up), the offline pipeline (timed), then the
  // serving assets and warm-up traffic (set-up).
  std::vector<double> datagen_s, pipeline_s, auc, setup_s, pipeline_cpu_s;
  std::unique_ptr<imr::datagen::SyntheticDataset> data;
  Pipeline pipeline;
  ServeAssets assets;
  std::vector<Query> serve_queries;
  struct Phase {
    double qps = 0.0;
    std::vector<double> schedule;
    size_t first_request = 0;
  };
  std::vector<Phase> phases;
  std::vector<int> mix;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    assets = ServeAssets();
    pipeline = Pipeline();
    data.reset();
    {
      const Clock::time_point start = Clock::now();
      ScopedSpan span(tracer, "datagen.generate");
      imr::datagen::PresetOptions options;
      options.seed = args.seed;
      data = std::make_unique<imr::datagen::SyntheticDataset>(
          imr::datagen::MakeNytLike(options));
      datagen_s.push_back(SecondsBetween(start, Clock::now()));
    }

    const double cpu_before = CpuSeconds();
    pipeline = RunPipeline(*data, args.seed, dir, tracer);
    pipeline_cpu_s.push_back(CpuSeconds() - cpu_before);
    pipeline_s.push_back(pipeline.seconds);
    auc.push_back(pipeline.auc);
    ++out.attempted;
    const Clock::time_point serving_start = Clock::now();

    // Requests: held-out pairs that have sentences, and the traffic plan --
    // lo and hi segments interleaved, then two attempts per ladder rung,
    // each with its own Poisson schedule and slice of the request mix. All
    // of it is fixed by the seed, so every repeat builds the same plan.
    serve_queries.clear();
    for (Query& query :
         PairQueries(data->corpus.test, pipeline.bags->test_bags())) {
      if (!query.sentences.empty()) serve_queries.push_back(std::move(query));
    }
    const size_t heldout_pairs = serve_queries.size();
    if (spec.churn) {
      for (Query& query :
           PairQueries(data->corpus.train, pipeline.bags->train_bags())) {
        serve_queries.push_back(std::move(query));
      }
      Require(serve_queries.size() >
                  imr::serve::EngineOptions().mr_cache_capacity,
              "uniform traffic needs more pairs than the MR cache holds");
    }
    Require(serve_queries.size() > 100, "too few servable held-out pairs");
    phases.clear();
    size_t total_requests = 0;
    const auto add_phase = [&](double qps, size_t count) {
      Phase phase;
      phase.qps = qps;
      phase.schedule =
          PoissonSchedule(args.seed * 1009 + phases.size(), qps, count);
      phase.first_request = total_requests;
      total_requests += count;
      phases.push_back(std::move(phase));
    };
    const auto segment = [&](double qps, double share) {
      return std::max(kMinSegmentRequests,
                      static_cast<size_t>(std::ceil(
                          qps * args.seconds * share / kSegments)));
    };
    for (int k = 0; k < kSegments; ++k) {
      add_phase(kLoQps, segment(kLoQps, kLoShare));
      add_phase(kHiQps, segment(kHiQps, 1.0 - kLoShare));
    }
    for (double qps : kLadderQps) {
      const size_t count = std::max(
          kRungRequests, static_cast<size_t>(std::ceil(qps * kRungSeconds)));
      add_phase(qps, count);
      add_phase(qps, count);
    }
    mix = RequestMix(spec.churn, serve_queries, total_requests, args.seed);
    // Warm-up sends each held-out pair once: on serve-zipf that is every
    // pair the timed traffic sends, so the MR cache is hot before timing
    // starts.
    const std::vector<Query> warmup(
        serve_queries.begin(),
        serve_queries.begin() + static_cast<std::ptrdiff_t>(heldout_pairs));

    assets = PrepareServing(*data, pipeline, args.seed, dir, warmup, tracer);
    {
      // Warm-up through the timed path (SubmitAsync, open loop at the hi
      // rate); its checks are not counted.
      ScopedSpan span(tracer, "serve.warmup_traffic");
      Checks ignored;
      const std::atomic<uint64_t> boot_generation{1};
      RunRung(assets.router.get(), serve_queries,
              pipeline.bags->num_relations(), boot_generation, mix, 0,
              kHiQps,
              PoissonSchedule(args.seed ^ 0x5eed, kHiQps, kWarmupRequests),
              &ignored, tracer);
    }
    setup_s.push_back(datagen_s.back() +
                      SecondsBetween(serving_start, Clock::now()));
  }
  {
    // The shape of the timed traffic: sentences per request and distinct
    // pairs over the whole request mix.
    std::vector<double> sentences;
    std::vector<bool> seen(serve_queries.size(), false);
    size_t distinct = 0;
    for (int query : mix) {
      sentences.push_back(static_cast<double>(
          serve_queries[static_cast<size_t>(query)].sentences.size()));
      if (!seen[static_cast<size_t>(query)]) ++distinct;
      seen[static_cast<size_t>(query)] = true;
    }
    double sum = 0.0;
    for (double n : sentences) sum += n;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "traffic: %zu requests over %zu distinct of %zu pairs; "
                  "sentences per request mean %.2f p50 %.0f p90 %.0f p99 %.0f "
                  "max %.0f",
                  mix.size(), distinct, serve_queries.size(),
                  sum / static_cast<double>(sentences.size()),
                  Percentile(sentences, 0.50).value_or(-1),
                  Percentile(sentences, 0.90).value_or(-1),
                  Percentile(sentences, 0.99).value_or(-1),
                  *std::max_element(sentences.begin(), sentences.end()));
    out.notes.push_back(line);
  }
  {
    std::string line = "pipeline_s of each repeat:";
    for (double seconds : pipeline_s) line += " " + std::to_string(seconds);
    out.notes.push_back(line);
  }
  out.notes.push_back(
      "pipeline input: " + std::to_string(pipeline.bags->train_bags().size()) +
      " train bags of " + std::to_string(data->corpus.train.size()) +
      " sentences, " + std::to_string(pipeline.bags->test_bags().size()) +
      " held-out bags, " + std::to_string(pipeline.edges) +
      " proximity edges, vocabulary " +
      std::to_string(pipeline.bags->vocabulary().size()));

  // Check: the reloaded pipeline snapshot serves PaModel::Predict's exact
  // probabilities for a fixed sample of held-out bags.
  {
    const std::vector<imr::re::Bag>& test_bags = pipeline.bags->test_bags();
    const std::vector<Query> full = PairQueries(data->corpus.test, test_bags);
    imr::serve::EngineOptions options;
    options.threads = 1;
    auto engine =
        imr::serve::InferenceEngine::Open(pipeline.snapshot_path, options);
    RequireOk(engine.status(), "open pipeline snapshot");
    int checked = 0;
    for (size_t i = 0; i < test_bags.size() && checked < 32; i += 7) {
      if (full[i].sentences.empty()) continue;
      auto served = (*engine)->Predict(full[i]);
      checks.Expect(served.ok() && served->probabilities ==
                                       pipeline.model->Predict(test_bags[i]),
                    "pipeline snapshot serves PaModel::Predict's output");
      ++checked;
    }
    checks.Expect(checked > 0, "pipeline check sampled held-out bags");
  }
  imr::serve::ServeRouter* router = assets.router.get();

  // Timed: the segments and the ladder, with the reload writer during the
  // traffic for serve-churn.
  const double cpu_before_serving = CpuSeconds();
  imr::tensor::PoolStatsSnapshot pool_before;
  {
    ScopedSpan span(tracer, "tensor.pool_stats");
    pool_before = imr::tensor::PoolStats();
  }
  ReloadLog reloads;
  std::atomic<bool> traffic_done{false};
  std::thread writer;
  if (spec.churn) {
    writer = std::thread([&] {
      Clock::time_point next = Clock::now();
      for (int k = 1; !traffic_done.load() || k <= kMinReloads; ++k) {
        next += std::chrono::milliseconds(kReloadPeriodMs);
        std::this_thread::sleep_until(next);
        ReloadStep(&assets, k, &reloads, tracer);
      }
    });
  }
  // Every phase that ran, in order. Reserved up front: the segment lists
  // below point into it while the ladder appends.
  std::vector<Rung> rungs;
  rungs.reserve(phases.size());
  const auto run_phase = [&](size_t index) -> const Rung& {
    const Phase& phase = phases[index];
    rungs.push_back(RunRung(router, serve_queries,
                            pipeline.bags->num_relations(),
                            reloads.max_generation, mix, phase.first_request,
                            phase.qps, phase.schedule, &checks, tracer));
    return rungs.back();
  };
  for (size_t i = 0; i < 2 * static_cast<size_t>(kSegments); ++i) run_phase(i);
  // Segments are the first 2 * kSegments phases: lo at even, hi at odd.
  std::vector<const Rung*> segments[2];
  for (size_t i = 0; i < rungs.size(); ++i) segments[i % 2].push_back(&rungs[i]);
  // goodput_qps: bisection over the ladder; rungs [low, high) are still
  // undecided.
  double goodput = 0.0;
  size_t low = 0, high = kLadderQps.size();
  while (low < high) {
    const size_t mid = low + (high - low) / 2;
    const size_t first = 2 * static_cast<size_t>(kSegments) + 2 * mid;
    if (Passes(run_phase(first)) || Passes(run_phase(first + 1))) {
      goodput = kLadderQps[mid];
      low = mid + 1;
    } else {
      high = mid;
    }
  }
  const double serving_cpu_s = CpuSeconds() - cpu_before_serving;
  traffic_done.store(true);
  if (writer.joinable()) writer.join();
  imr::tensor::PoolStatsSnapshot pool_after;
  {
    ScopedSpan span(tracer, "tensor.pool_stats");
    pool_after = imr::tensor::PoolStats();
  }
  const imr::serve::RouterStats router_stats = router->Stats();
  if (!spec.churn) {
    Clock::time_point next = Clock::now();
    for (int k = 1; k <= kMinReloads; ++k) {
      next += std::chrono::milliseconds(kQuietReloadPeriodMs);
      std::this_thread::sleep_until(next);
      ReloadStep(&assets, k, &reloads, tracer);
    }
  }

  // Check: a fixed sample of responses matches a single-threaded reference
  // engine of the generation stamped on it.
  {
    std::vector<std::unique_ptr<imr::serve::InferenceEngine>> reference;
    imr::serve::EngineOptions options;
    options.threads = 1;
    options.mr_cache_capacity = 0;
    for (int base = 0; base < 2; ++base) {
      auto snapshot = imr::serve::LoadSnapshot(assets.base_path[base]);
      RequireOk(snapshot.status(), "load reference snapshot");
      std::vector<imr::serve::Snapshot> chain;
      chain.push_back(std::move(snapshot).value());
      for (const std::string& path : assets.delta_path[base]) {
        auto next = imr::serve::ApplyDelta(chain.back(), path);
        RequireOk(next.status(), "apply reference delta");
        chain.push_back(std::move(next).value());
      }
      for (imr::serve::Snapshot& state : chain) {
        reference.push_back(std::make_unique<imr::serve::InferenceEngine>(
            std::move(state), options));
      }
    }
    size_t compared = 0;
    for (const Rung& rung : rungs) {
      for (const Sampled& sample : rung.sampled) {
        const int state =
            sample.generation < reloads.state_of_generation.size()
                ? reloads.state_of_generation[sample.generation]
                : -1;
        checks.Expect(state >= 0, "sampled generation was published");
        if (state < 0) continue;
        auto expected = reference[static_cast<size_t>(state)]->Predict(
            serve_queries[static_cast<size_t>(sample.pair)]);
        checks.Expect(expected.ok() &&
                          expected->probabilities == sample.probabilities,
                      "response matches the reference engine of its generation");
        ++compared;
      }
    }
    checks.Expect(compared > 0, "reference check sampled responses");
  }

  // Counts.
  uint64_t sent = 0, ok = 0, failed_requests = 0, hits = 0, knn_fired = 0;
  for (const Rung& rung : rungs) {
    sent += rung.sent;
    ok += rung.ok;
    failed_requests += rung.failed;
    hits += rung.cache_hits;
    knn_fired += rung.knn_fired;
  }
  const auto& admission = router_stats.aggregate;
  out.attempted += sent + reloads.done + reloads.failed;
  out.failed = failed_requests + reloads.failed + checks.failed;
  out.correct = checks.failed == 0;

  // End-to-end metrics.
  auto& e2e = out.end_to_end;
  e2e.push_back({"setup_s", Median(setup_s), "s"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  e2e.push_back({"success_rate",
                 1.0 - static_cast<double>(out.failed) /
                           static_cast<double>(out.attempted),
                 "share"});
  e2e.push_back({"pipeline_s", Median(pipeline_s), "s"});
  e2e.push_back({"heldout_auc", Median(auc), "auc"});
  // Quantiles over the pooled samples of a rate's segments.
  std::vector<double> pooled_ms[2];
  for (int parity = 0; parity < 2; ++parity) {
    for (const Rung* segment : segments[parity]) {
      pooled_ms[parity].insert(pooled_ms[parity].end(),
                               segment->latency_ms.begin(),
                               segment->latency_ms.end());
    }
  }
  // Model forward time (Prediction::latency_us) per sentence served, over
  // the lo and hi segments: total forward time over total sentences. Client
  // latency itself is reported per layer: see workloads.h.
  {
    double forward_ms = 0.0;
    size_t sentences = 0;
    for (size_t i = 0; i < 2 * static_cast<size_t>(kSegments); ++i) {
      for (double ms : rungs[i].forward_ms) forward_ms += ms;
      sentences += rungs[i].sentences;
    }
    e2e.push_back({"forward_us_per_sentence",
                   1e3 * forward_ms / static_cast<double>(sentences), "us"});
  }
  for (int parity = 0; parity < 2; ++parity) {
    for (double q : {0.50, 0.90, 0.99}) {
      char line[128];
      std::snprintf(line, sizeof(line), "latency %s p%.0f %.3f ms (n=%zu)",
                    parity == 0 ? "lo" : "hi", 100 * q,
                    Percentile(pooled_ms[parity], q).value_or(-1.0),
                    pooled_ms[parity].size());
      out.notes.push_back(line);
    }
  }
  e2e.push_back({"goodput_qps", goodput, "1/s"});
  AddQuantile(&e2e, &out.notes, "reload_cycle_p50_ms", reloads.cycle_ms, 0.50,
              "ms");
  for (const Rung& rung : rungs) {
    const auto p99 = Percentile(rung.latency_ms, 0.99);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "phase %.0f qps: sent %zu/%zu ok %zu failed %zu p99 %.3f ms "
                  "drain %.2f ms%s",
                  rung.rate, rung.sent, rung.scheduled, rung.ok, rung.failed,
                  p99.value_or(-1.0), rung.drain_ms,
                  rung.abandoned ? " (backlog)" : "");
    out.notes.push_back(line);
  }

  // Per-layer metrics, from the spans (empty when untraced). A stage that
  // ran once per repeat reports its median over the repeats.
  const auto totals = ReduceSpans(tracer->spans());
  const auto spans_of = [&](const std::string& name) -> const SpanTotals& {
    static const SpanTotals kNone;
    const auto it = totals.find(name);
    return it == totals.end() ? kNone : it->second;
  };
  const auto median_s = [&](const std::string& name) {
    const SpanTotals& t = spans_of(name);
    return t.durations_s.empty() ? 0.0 : Median(t.durations_s);
  };
  const auto durations_ms = [&](const std::string& name) {
    std::vector<double> ms;
    for (double s : spans_of(name).durations_s) ms.push_back(1e3 * s);
    return ms;
  };
  auto& layer = out.per_layer;
  const double pipeline_median_s = Median(pipeline_s);
  const double line_s = median_s("graph.line");
  const double train_s = median_s("re.train");
  layer.push_back({"datagen.generate_s", Median(datagen_s), "s"});
  layer.push_back({"graph.proximity_s", median_s("graph.proximity"), "s"});
  layer.push_back({"graph.proximity_edges",
                   static_cast<double>(pipeline.edges), "count"});
  layer.push_back({"graph.line_s", line_s, "s"});
  layer.push_back(
      {"graph.line_samples_per_s",
       line_s > 0 ? static_cast<double>(pipeline.line_samples) / line_s : 0.0,
       "1/s"});
  layer.push_back({"graph.line_share", line_s / pipeline_median_s, "share"});
  layer.push_back({"re.bag_build_s", median_s("re.bag_build"), "s"});
  layer.push_back({"re.attach_mr_s", median_s("re.attach_mr"), "s"});
  layer.push_back({"re.train_s", train_s, "s"});
  layer.push_back({"re.train_share", train_s / pipeline_median_s, "share"});
  layer.push_back({"re.epoch_s.p50", median_s("re.epoch"), "s"});
  layer.push_back(
      {"re.train_bags_per_s",
       train_s > 0 ? static_cast<double>(pipeline.bags->train_bags().size()) *
                         kEpochs / train_s
                   : 0.0,
       "1/s"});
  const std::vector<double> predict_ms = durations_ms("re.predict");
  if (tracer->enabled()) {
    AddQuantile(&layer, &out.notes, "re.predict_ms.p50", predict_ms, 0.50, "ms");
    AddQuantile(&layer, &out.notes, "re.predict_ms.p99", predict_ms, 0.99, "ms");
  }
  layer.push_back({"re.predict_calls",
                   static_cast<double>(predict_ms.size()) / kSetupRepeats,
                   "count"});
  {
    const std::vector<double>& self = spans_of("eval.heldout").self_each_s;
    layer.push_back(
        {"eval.heldout_self_s", self.empty() ? 0.0 : Median(self), "s"});
  }
  layer.push_back({"serve.snapshot_save_s", median_s("serve.snapshot_save"), "s"});
  layer.push_back({"serve.open_ms", 1e3 * median_s("serve.open"), "ms"});
  layer.push_back({"re.knn_build_s", median_s("re.knn_build"), "s"});
  if (tracer->enabled()) {
    for (int parity = 0; parity < 2; ++parity) {
      const std::string label = parity == 0 ? ".lo" : ".hi";
      AddQuantile(&layer, &out.notes, "serve.lat_p50_ms" + label,
                  pooled_ms[parity], 0.50, "ms");
      AddQuantile(&layer, &out.notes, "serve.lat_p90_ms" + label,
                  pooled_ms[parity], 0.90, "ms");
      AddQuantile(&layer, &out.notes, "serve.lat_p99_ms" + label,
                  pooled_ms[parity], 0.99, "ms");
    }
    AddQuantile(&layer, &out.notes, "serve.forward_ms.p50",
                Concat(rungs, &Rung::forward_ms), 0.50, "ms");
    AddQuantile(&layer, &out.notes, "serve.forward_ms.p99",
                Concat(rungs, &Rung::forward_ms), 0.99, "ms");
    AddQuantile(&layer, &out.notes, "serve.wait_ms.p50",
                Concat(rungs, &Rung::wait_ms), 0.50, "ms");
    AddQuantile(&layer, &out.notes, "serve.wait_ms.p99",
                Concat(rungs, &Rung::wait_ms), 0.99, "ms");
    AddQuantile(&layer, &out.notes, "serve.reload_ms.full.p50", reloads.full_ms,
                0.50, "ms");
    AddQuantile(&layer, &out.notes, "serve.reload_ms.delta.p50",
                reloads.delta_ms, 0.50, "ms");
    AddQuantile(&layer, &out.notes, "bench.gen_lag_ms.p99",
                Concat(rungs, &Rung::lag_ms), 0.99, "ms");
  }
  const auto share = [](uint64_t part, uint64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  layer.push_back({"serve.mr_cache_hit_rate", share(hits, ok), "share"});
  layer.push_back({"serve.knn_fired_share", share(knn_fired, ok), "share"});
  layer.push_back({"serve.generations",
                   static_cast<double>(router->generation()), "count"});
  layer.push_back({"serve.admitted", static_cast<double>(admission.admitted),
                   "count"});
  layer.push_back({"serve.rejected",
                   static_cast<double>(admission.rejected_queue_full), "count"});
  layer.push_back({"serve.shed", static_cast<double>(admission.shed_deadline),
                   "count"});
  layer.push_back({"serve.queue_peak", static_cast<double>(admission.queue_peak),
                   "count"});
  layer.push_back({"tensor.pool_misses",
                   static_cast<double>(pool_after.buffer_misses +
                                       pool_after.node_misses -
                                       pool_before.buffer_misses -
                                       pool_before.node_misses),
                   "count"});
  layer.push_back({"proc.cpu_s", Median(pipeline_cpu_s) + serving_cpu_s, "s"});
  layer.push_back({"proc.cpu_per_req_us",
                   ok > 0 ? 1e6 * serving_cpu_s / static_cast<double>(ok) : 0.0,
                   "us"});
  {
    const std::vector<double> lag = Concat(rungs, &Rung::lag_ms);
    layer.push_back(
        {"bench.gen_lag_ms.max",
         lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()), "ms"});
  }

  if (tracer->enabled()) {
    const std::string path = dir + ".spans.tsv";
    Require(tracer->WriteTsv(path), "cannot write " + path);
    out.notes.push_back("spans written to " + path);
  }
  assets.router.reset();
  fs::remove_all(dir);
  return out;
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& metric : metrics)
    if (metric.name == name) return metric.value;
  return 0.0;
}

std::string HostJson(const Args& args) {
  char buffer[768];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"cores\": %u, \"simd_eval_backend\": \"%s\", \"pinned_threads\": %d, "
      "\"line_threads\": %d, "
      "\"router_workers\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}",
      std::thread::hardware_concurrency(),
      imr::tensor::simd::BackendName(imr::tensor::simd::ActiveEvalBackend()),
      kPinnedThreads, kLineThreads, kRouterWorkers, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      args.git_sha.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);
  return buffer;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--git-sha SHA]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  imr::util::SetGlobalThreads(kPinnedThreads);
  std::printf("host %s\n", HostJson(args).c_str());

  Outcome outcome;
  if (!args.trace) {
    Tracer off(false);
    outcome = RunWorkload(spec, args, &off);
    for (const std::string& note : outcome.notes)
      std::printf("note %s\n", note.c_str());
    for (const Metric& m : outcome.end_to_end) {
      Require(ValidMetricName(m.name), "bad metric name " + m.name);
      std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s\n", ResultJson(outcome.correct, outcome.attempted,
                                   outcome.failed, outcome.end_to_end)
                            .c_str());
    std::fflush(stdout);
    return outcome.correct ? 0 : 1;
  }

  // Traced run: the same work untraced, then traced; the difference in the
  // end-to-end metrics is the cost of tracing.
  Tracer off(false);
  const Outcome untraced = RunWorkload(spec, args, &off);
  Tracer on(true);
  outcome = RunWorkload(spec, args, &on);
  const auto overhead = [&](const std::string& name) {
    const double base = Find(untraced.end_to_end, name);
    return base > 0 ? Find(outcome.end_to_end, name) / base - 1.0 : 0.0;
  };
  outcome.per_layer.push_back(
      {"bench.trace_overhead", overhead("pipeline_s"), "share"});
  outcome.per_layer.push_back(
      {"bench.trace_overhead.forward", overhead("forward_us_per_sentence"),
       "share"});
  for (const std::string& note : outcome.notes)
    std::printf("note %s\n", note.c_str());
  for (const Metric& m : outcome.end_to_end)
    std::printf("traced %s %.6g %s (untraced %.6g)\n", m.name.c_str(), m.value,
                m.unit.c_str(), Find(untraced.end_to_end, m.name));
  for (const Metric& m : outcome.per_layer) {
    Require(ValidMetricName(m.name), "bad metric name " + m.name);
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n",
              ResultJson(outcome.correct && untraced.correct,
                         outcome.attempted + untraced.attempted,
                         outcome.failed + untraced.failed, outcome.per_layer)
                  .c_str());
  std::fflush(stdout);
  return outcome.correct && untraced.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
