#include "bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "data/instance.h"
#include "spans.h"
#include "util/stats.h"

namespace perfbench {

using exsample::detect::Detection;

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int HostThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double Median(const std::vector<double>& values) {
  return exsample::Percentile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double BalancedMedian(const std::map<std::string, std::vector<double>>& by_kind) {
  std::vector<double> medians;
  for (const auto& [kind, values] : by_kind) {
    if (!values.empty()) medians.push_back(Median(values));
  }
  return exsample::GeometricMean(medians);
}

std::vector<double> TimeSetUp(int repeats, const std::function<void()>& discard,
                              const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    discard();
    std::thread run([&] {
      const double t = WallNow();
      setup();
      seconds.push_back(WallNow() - t);
    });
    run.join();
  }
  return seconds;
}

ServerStack::~ServerStack() {
  if (server != nullptr) server->RequestStop();
  if (serve_thread.joinable()) serve_thread.join();
  server.reset();
  manager.reset();
}

std::unique_ptr<ServerStack> StartServerStack(const ServerStackOptions& options,
                                              std::string* error) {
  auto stack = std::make_unique<ServerStack>();
  stack->pool = std::make_unique<exsample::serve::DatasetPool>(kRepositorySeed);
  const double t = WallNow();
  for (const auto& [preset, scale] : options.datasets) stack->pool->Get(preset, scale);
  stack->generate_s = WallNow() - t;
  stack->cache = std::make_unique<exsample::serve::StatsCache>();
  stack->registry = std::make_unique<exsample::obs::Registry>();
  exsample::serve::SessionManager::Options mopt = options.manager;
  mopt.stats_cache = stack->cache.get();
  mopt.metrics = stack->registry.get();
  stack->manager = std::make_unique<exsample::serve::SessionManager>(mopt);
  exsample::serve::ProtocolHandler::Options hopt = options.handler;
  hopt.close_sessions_on_destroy = true;
  hopt.metrics = stack->registry.get();
  exsample::net::ServerOptions sopt;
  sopt.port = 0;
  sopt.shards = options.shards;
  sopt.metrics = stack->registry.get();
  ServerStack* raw = stack.get();
  auto created = exsample::net::Server::Create(sopt, [raw, hopt] {
    return std::make_unique<exsample::serve::ProtocolHandler>(
        raw->manager.get(), raw->cache.get(), raw->pool.get(), hopt);
  });
  if (!created.ok()) {
    *error = created.status().ToString();
    return nullptr;
  }
  stack->server = std::move(created.value());
  stack->serve_thread = std::thread([raw] { raw->server->Serve(); });
  return stack;
}

void Outcome::Error(const std::string& message) {
  // Keep the report readable: the first violations say what broke.
  if (errors.size() < 20) errors.push_back(message);
  else if (errors.size() == 20) errors.push_back("(further errors elided)");
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit, const std::string& kind) {
  e2e[name] = Metric{value, unit, kind};
}

void Outcome::Extra(const std::string& name, double value,
                    const std::string& unit, const std::string& kind) {
  extra[name] = Metric{value, unit, kind};
}

void Outcome::Layer(const std::string& name, double value,
                    const std::string& unit) {
  layer[name] = Metric{value, unit, "layer"};
}

double SnapshotCounter(const Json& snapshot, const std::string& name) {
  const Json* counters = snapshot.Find("counters");
  const Json* family = counters == nullptr ? nullptr : counters->Find(name);
  return family == nullptr ? 0.0 : family->GetDouble("total", 0.0);
}

double SnapshotHistogramCount(const Json& snapshot, const std::string& name) {
  const Json* histograms = snapshot.Find("histograms");
  const Json* family = histograms == nullptr ? nullptr : histograms->Find(name);
  return family == nullptr ? 0.0 : family->GetDouble("count", 0.0);
}

double SnapshotHistogramSum(const Json& snapshot, const std::string& name) {
  const Json* histograms = snapshot.Find("histograms");
  const Json* family = histograms == nullptr ? nullptr : histograms->Find(name);
  return family == nullptr ? 0.0 : family->GetDouble("sum_seconds", 0.0);
}

std::string SelfTimeTable(const std::string& title) {
  const auto stats = SpanRecorder::Get().Collect();
  int64_t self_total = 0;
  for (const auto& [name, s] : stats) self_total += s.self_ns;
  std::string out = title + "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s %7s %12s\n", "span",
                "calls", "total_ms", "self_ms", "self%", "count");
  out += line;
  for (const auto& [name, s] : stats) {
    std::snprintf(line, sizeof(line), "%-28s %10lld %12.3f %12.3f %6.2f%% %12lld\n",
                  name.c_str(), static_cast<long long>(s.calls),
                  1e-6 * static_cast<double>(s.total_ns),
                  1e-6 * static_cast<double>(s.self_ns),
                  self_total > 0 ? 100.0 * static_cast<double>(s.self_ns) /
                                       static_cast<double>(self_total)
                                 : 0.0,
                  static_cast<long long>(s.count));
    out += line;
  }
  return out;
}

namespace {
template <typename Field>
int64_t SumByPrefix(const std::string& prefix, Field field) {
  int64_t total = 0;
  for (const auto& [name, s] : SpanRecorder::Get().Collect()) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += field(s);
  }
  return total;
}
}  // namespace

int64_t SelfNs(const std::string& prefix) {
  return SumByPrefix(prefix, [](const SpanRecorder::NameStats& s) { return s.self_ns; });
}
int64_t Calls(const std::string& prefix) {
  return SumByPrefix(prefix, [](const SpanRecorder::NameStats& s) { return s.calls; });
}
int64_t Counted(const std::string& prefix) {
  return SumByPrefix(prefix, [](const SpanRecorder::NameStats& s) { return s.count; });
}

uint64_t Fingerprint(const std::vector<Detection>& results) {
  uint64_t h = 1469598103934665603ULL;
  auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  fold(static_cast<uint64_t>(results.size()));
  for (const Detection& d : results) {
    fold(static_cast<uint64_t>(d.frame));
    fold(static_cast<uint64_t>(d.instance));
  }
  return h;
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

ResultValidator::ResultValidator(const exsample::data::Dataset* dataset,
                                 std::vector<exsample::detect::ClassId> classes)
    : dataset_(dataset), classes_(std::move(classes)) {}

int64_t ResultValidator::Check(const std::vector<Detection>& results,
                               const DetectorFactory& make_detector,
                               bool compare_instance,
                               std::vector<std::string>* errors) {
  auto fail = [errors](const std::string& message) {
    if (errors->size() < 20) errors->push_back(message);
  };
  // Detections are per-frame pure, so one rebuilt detector answers every
  // frame of the query, each frame once.
  std::unique_ptr<exsample::detect::ObjectDetector> detector =
      make_detector ? make_detector() : nullptr;
  std::unordered_map<exsample::video::FrameId, std::vector<Detection>> emitted;
  int64_t failures = 0;
  for (const Detection& r : results) {
    ++checked_;
    if (detector == nullptr) {
      emitted[r.frame] = {r};
    }
    auto it = emitted.find(r.frame);
    if (it == emitted.end()) {
      it = emitted.emplace(r.frame, detector->Detect(r.frame)).first;
    }
    const Detection* match = nullptr;
    for (const Detection& d : it->second) {
      if (d.box == r.box &&
          (!compare_instance ||
           (d.instance == r.instance && d.class_id == r.class_id))) {
        match = &d;
        break;
      }
    }
    if (match == nullptr) {
      ++failures;
      fail("result at frame " + std::to_string(r.frame) +
           " is not a detection of the query's detector");
      continue;
    }
    if (match->instance == exsample::detect::kNoInstance) {
      ++false_positives_;
      continue;
    }
    const exsample::data::ObjectInstance* inst =
        dataset_->ground_truth.FindInstance(match->instance);
    const bool class_ok =
        inst != nullptr && std::find(classes_.begin(), classes_.end(),
                                     inst->class_id) != classes_.end();
    if (!class_ok || !inst->VisibleAt(r.frame)) {
      ++failures;
      fail("result at frame " + std::to_string(r.frame) + " (instance " +
           std::to_string(match->instance) +
           ") is not a visible instance of the queried class");
    }
  }
  return failures;
}

}  // namespace perfbench
