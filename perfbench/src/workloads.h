// The benchmark's workloads and the fixed settings they share. Every rate,
// size and limit here is an absolute constant: nothing is derived at run
// time from measured capacity, so two commits are driven identically.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Threads of the process-global pool (util::SetGlobalThreads), which the
/// trainer and the kernels use. At 1 the trainer takes its sequential path:
/// its many small per-batch fork/joins made pipeline_s swing by 10-35%
/// between identical runs at 2 threads on the reference host.
inline constexpr int kPinnedThreads = 1;
/// LINE's Hogwild workers: independent long-running loops with no per-batch
/// joins, so its parallel path runs without that noise.
inline constexpr int kLineThreads = 2;
/// ServeRouter: one replica drained by this many workers, and the same
/// cap on concurrent forwards.
inline constexpr int kRouterWorkers = 2;

/// Client latency is measured at two fixed offered rates (requests/s of
/// Poisson arrivals), each in kSegments segments, lo and hi interleaved so
/// that a slow spell of the host falls on both. Each rate's p50, p90 and
/// p99 over its pooled samples are printed and traced, but not bounded: on
/// the reference host no bound of at most 25% held for them. The lo p50
/// flipped by 30% between consecutive processes (idle workers wake at a
/// cost that depends on where they were placed), the hi p50 spread by 38%
/// over ten runs, and one freeze of tens of milliseconds moves a p99
/// several-fold. The bounded serving metrics are the model forward time per
/// sentence, goodput and reload time. hi sits below what two workers serve
/// on serve-zipf even when the reference host ran 40% slow (about 1000
/// req/s). The lo segments take kLoShare of --seconds, the hi segments the
/// rest, and each sends at least kMinSegmentRequests. lo and hi are also
/// rungs of the ladder below.
inline constexpr double kLoQps = 300;
inline constexpr double kHiQps = 600;
inline constexpr int kSegments = 3;
inline constexpr double kLoShare = 0.5;
inline constexpr size_t kMinSegmentRequests = 400;
/// The rate ladder: 300 * 1.06^k req/s, steps of 6% from lo to well past
/// where two workers saturate (on the reference host about 1000-2000 req/s
/// on serve-zipf and 2000-2800 on serve-churn, whose bags are smaller).
/// goodput_qps is the highest rung that passes, found by bisection on the
/// premise that a rung passes when a faster one does; 6 to 12 rungs are
/// sent. A rung that fails gets one more attempt, so a single host stall
/// cannot decide it: once the lo segments alone, judged without a retry,
/// missed the limit through one 60 ms stall. Each rung sends
/// kRungRequests, the fewest that support a p99, and at least
/// kRungSeconds of traffic: rungs of 1000 requests lasted 0.3 s near
/// serve-churn's capacity, short enough that a rate a third past it
/// sometimes passed, and goodput_qps spread by 48% over ten seeds.
inline constexpr std::array<double, 50> kLadderQps = {
    300,  320,  340,  360,  380,  400,  430,  450,  480,  510,
    540,  570,  600,  640,  680,  720,  760,  810,  860,  910,
    960,  1020, 1080, 1150, 1210, 1290, 1360, 1450, 1530, 1630,
    1720, 1830, 1940, 2050, 2180, 2310, 2440, 2590, 2750, 2910,
    3090, 3270, 3470, 3680, 3900, 4130, 4380, 4640, 4920, 5210};
inline constexpr size_t kRungRequests = 1000;
inline constexpr double kRungSeconds = 1.0;
/// A rung passes when its p99 client latency is within this limit, no
/// request failed, the last response came within the limit after the last
/// send, and its backlog never reached kMaxBacklog. The limit sits above
/// the 10-40 ms freezes the reference host shows now and then, so that a
/// rung fails by overload rather than by one freeze.
inline constexpr double kP99LimitMs = 50.0;
/// Outstanding requests at which a rung is abandoned as overloaded, well
/// below the router's 1024-deep queue, so overload never turns into
/// rejections.
inline constexpr int kMaxBacklog = 256;
/// Untimed open-loop requests at the hi rate before the timed phases.
inline constexpr size_t kWarmupRequests = 300;
/// Every this-many-th response is re-scored by a single-threaded reference
/// engine of the generation stamped on it.
inline constexpr int kReferenceEvery = 16;

/// Reload sequence: the snapshot A, kDeltasPerBase chained IMRD deltas on
/// it, a full reload of snapshot B, its deltas, then A again, and so on, so
/// a third of all reloads are full ones. A full reload and the deltas that
/// follow it make one cycle, the unit reload_cycle_p50_ms times.
inline constexpr int kDeltasPerBase = 2;
inline constexpr int kDeltaRows = 32;
/// serve-churn publishes one reload per kReloadPeriodMs while the traffic
/// runs (and on after it until kMinReloads are done); the other workload
/// publishes kMinReloads after its traffic, one per kQuietReloadPeriodMs.
/// kMinReloads gives at least 29 whole cycles, enough for their median.
inline constexpr int kReloadPeriodMs = 150;
inline constexpr int kQuietReloadPeriodMs = 20;
inline constexpr int kMinReloads = 90;
/// Set-up and the offline pipeline are repeated this many times per run and
/// their medians reported.
inline constexpr int kSetupRepeats = 3;

/// The offline pipeline both workloads run: the NYT-like preset (53
/// relations) at scale 1, LINE sized so that it and PA-TMR training each
/// take a large share of pipeline_s (over 40% each on the reference host),
/// so that halving either moves pipeline_s past its 20% bound.
inline constexpr int kLineDim = 128;
inline constexpr int64_t kLineSamplesPerEdge = 600;
inline constexpr int kEpochs = 7;
/// The two workloads. Every request carries its pair's whole bag.
/// serve-zipf replays held-out pairs in proportion to their sentence counts
/// (the corpus's Zipf long tail); the MR cache holds all of them.
/// serve-churn draws uniformly over every train and held-out pair (more
/// pairs than the MR cache holds), and its reloads run during the traffic
/// instead of after it.
struct WorkloadSpec {
  std::string name;
  bool churn = false;
};

/// Returns false for an unknown name.
inline bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name != "serve-zipf" && name != "serve-churn") return false;
  spec->name = name;
  spec->churn = name == "serve-churn";
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
