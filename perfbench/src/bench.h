// Shared plumbing of the repository benchmark: clocks, order statistics,
// the per-run outcome every workload fills in, result fingerprints and the
// ground-truth validity check.
//
// Three clocks are kept apart on purpose (the ROADMAP north star): wall
// seconds (steady_clock), process CPU seconds (CLOCK_PROCESS_CPUTIME_ID,
// all threads) and modeled seconds (the paper's decode + inference cost
// unit, read from the program's own accounting). A metric never mixes two.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "detect/detector.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/protocol_handler.h"
#include "serve/session_manager.h"
#include "serve/stats_cache.h"
#include "util/json.h"

namespace perfbench {

using exsample::Json;

/// Wall seconds since an arbitrary process-local epoch (steady clock).
double WallNow();
/// Process CPU seconds, all threads.
double CpuNow();
/// Peak resident set size of the process in MiB.
double PeakRssMb();
/// Hardware threads of the host (>= 1).
int HostThreads();

/// exsample::Percentile at 0.5; 0 when empty.
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
/// Median per query kind, combined as the geometric mean over kinds.
/// Kinds differ in cost by up to ~60x, and how many queries of each kind
/// finish inside the window depends on timing and on the seed's mix;
/// weighting every kind equally keeps the figure from jumping between
/// kinds from run to run.
double BalancedMedian(const std::map<std::string, std::vector<double>>& by_kind);

/// Runs `setup` `repeats` times and returns the wall seconds of each run.
/// `discard` runs untimed before every repeat and releases what the
/// previous one built. Every run happens on a thread of its own, as
/// set-up does in a fresh process: with every repeat on one thread, the
/// median of the repeats spread by about a third between processes.
std::vector<double> TimeSetUp(int repeats, const std::function<void()>& discard,
                              const std::function<void()>& setup);

/// One metric value with its unit and clock kind ("wall", "cpu",
/// "modeled", "count", "ratio", "memory").
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string kind;
};

/// Seed of the synthetic video repositories. A repository is a fixed asset
/// that many queries search, so every run searches the same repositories;
/// the workload seed picks the query stream (classes, policies, arrival
/// times and every engine, detector and coordinator RNG stream).
constexpr uint64_t kRepositorySeed = 1;

/// What an in-process server stack (a serve process or a dist worker)
/// runs with. The stack fills in the stats cache and metrics registry.
struct ServerStackOptions {
  /// (preset, scale) repositories generated before the server starts.
  std::vector<std::pair<std::string, double>> datasets;
  exsample::serve::SessionManager::Options manager;
  exsample::serve::ProtocolHandler::Options handler;
  int shards = 1;
};

/// Dataset pool, stats cache, registry, session manager and a
/// net::Server on a loopback port, served by one thread. Destruction
/// stops the server and joins its thread.
struct ServerStack {
  std::unique_ptr<exsample::serve::DatasetPool> pool;
  std::unique_ptr<exsample::serve::StatsCache> cache;
  std::unique_ptr<exsample::obs::Registry> registry;
  std::unique_ptr<exsample::serve::SessionManager> manager;
  std::unique_ptr<exsample::net::Server> server;
  std::thread serve_thread;
  /// Wall seconds spent generating `datasets`.
  double generate_s = 0.0;

  ServerStack() = default;
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;
  ~ServerStack();
};

/// Starts a stack; nullptr with `error` set when the server cannot start.
std::unique_ptr<ServerStack> StartServerStack(const ServerStackOptions& options,
                                              std::string* error);

/// Command-line settings of one benchmark invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file, self-time table and report.
  std::string out_dir = ".bench_out";
};

/// What a workload run produces. `e2e` is filled from the untraced
/// measurement, `layer` from the traced one.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Correctness-gate violations; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Open-loop health violations: the latencies of an invalid run are not
  /// reported.
  std::vector<std::string> invalid;
  std::map<std::string, Metric> e2e;
  /// Workload-specific end-to-end figures (tails, SLO rate, failure
  /// fraction): printed and written to the report, not gated.
  std::map<std::string, Metric> extra;
  std::map<std::string, Metric> layer;
  /// Thread counts the program and load generator ran with.
  std::map<std::string, int64_t> threads;
  /// Free-form facts for the report (sample counts, parameters).
  Json notes = Json::Object();
  /// Self-time table text (traced runs).
  std::string self_time_table;

  void Error(const std::string& message);
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& kind);
  void Extra(const std::string& name, double value, const std::string& unit,
             const std::string& kind);
  void Layer(const std::string& name, double value, const std::string& unit);
};

/// Totals read from an obs::Registry::Snapshot() document (0 when the
/// family is absent).
double SnapshotCounter(const Json& snapshot, const std::string& name);
double SnapshotHistogramCount(const Json& snapshot, const std::string& name);
double SnapshotHistogramSum(const Json& snapshot, const std::string& name);

/// Renders the per-name span aggregates of the traced run as a table:
/// calls, total and self milliseconds, self share, and counts.
std::string SelfTimeTable(const std::string& title);

/// Sum of self time (ns) over spans whose name starts with `prefix`.
int64_t SelfNs(const std::string& prefix);
/// Sum of calls / counts over spans whose name starts with `prefix`.
int64_t Calls(const std::string& prefix);
int64_t Counted(const std::string& prefix);

/// FNV-1a 64 over (count, then frame and instance per detection): the
/// result-stream fingerprint scheme of the determinism-matrix tests.
uint64_t Fingerprint(const std::vector<exsample::detect::Detection>& results);
std::string Hex(uint64_t value);

/// Checks reported results against the dataset. Every result must be a
/// detection the query's simulated detector really emits at that frame
/// (rebuilt from the run's detector seed), and every result carrying a
/// ground-truth instance must be an instance of one of `classes` that is
/// visible in that frame. Results the rebuilt detector marks as false
/// positives are the modeled detector's own noise; they are counted, not
/// failed.
class ResultValidator {
 public:
  using DetectorFactory =
      std::function<std::unique_ptr<exsample::detect::ObjectDetector>()>;

  ResultValidator(const exsample::data::Dataset* dataset,
                  std::vector<exsample::detect::ClassId> classes);

  /// Validates one query's results; appends violations to `errors`
  /// (capped) and returns the number of results that failed. The rebuilt
  /// detector comes from `make_detector`; `compare_instance` is false for
  /// transports that do not carry instance ids (the protocol's poll
  /// responses), which are then matched by box alone. A null
  /// `make_detector` skips the rebuild and trusts each result's own
  /// instance id (dist replies carry it; their detector lives on a worker).
  int64_t Check(const std::vector<exsample::detect::Detection>& results,
                const DetectorFactory& make_detector, bool compare_instance,
                std::vector<std::string>* errors);

  int64_t checked() const { return checked_; }
  int64_t false_positives() const { return false_positives_; }

 private:
  const exsample::data::Dataset* dataset_;
  std::vector<exsample::detect::ClassId> classes_;
  int64_t checked_ = 0;
  int64_t false_positives_ = 0;
};

/// Workload entry points. Each builds its inputs from cfg.seed, measures
/// for cfg.seconds, runs its correctness gate and fills `out`.
void RunManyChunks(const RunConfig& cfg, Outcome* out);
void RunDenseTracks(const RunConfig& cfg, Outcome* out);
void RunServeOpenLoop(const RunConfig& cfg, Outcome* out);
void RunDistSmallRounds(const RunConfig& cfg, Outcome* out);
/// Runs dist_small_rounds' traced halves over `cfg.seconds / 2` after
/// another traced workload and adds its dist.* per-layer metrics, gate
/// results, thread counts and notes to `out`. The dist layer is measured
/// this way on serve_open_loop's traced run (see README.md).
void AddDistLayers(const RunConfig& cfg, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
