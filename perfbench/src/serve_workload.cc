// serve_open_loop: the TCP entry point under open-loop traffic.
//
// An in-process net::Server -> serve::ProtocolHandler -> SessionManager
// (StatsCache warm start on) is driven by one load-generating process with
// nproc / 2 client connections. Sessions arrive as a seeded Poisson process
// at a fixed offered rate; a closed loop then keeps the server saturated;
// then a short ladder of higher offered rates follows. In the open loop
// each session opens at its due time, polls at a fixed cadence until done,
// then closes. Latencies are timed from the session's due time, so a
// stalled generator or server shows up as latency instead of silently
// lowering the load.
//
// Mix: mostly short find-k sessions (dashcam / night_street, k=10,
// tracker), some composite sessions on paired_street (and / seq / multi),
// and a few long modeled-budget scans that hold slots. No traffic record
// exists to take the mix from: every share, preset, class list and budget
// in MakeSchedule is an assumption, chosen for the layer it exercises.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "core/predicate.h"
#include "decorators.h"
#include "detect/composite_detector.h"
#include "detect/simulated_detector.h"
#include "exec/multi_query_runner.h"
#include "exec/predicate_jobs.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/protocol_handler.h"
#include "serve/session_manager.h"
#include "serve/stats_cache.h"
#include "spans.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {
namespace {

namespace core = exsample::core;
namespace detect = exsample::detect;
namespace serve = exsample::serve;

constexpr double kBaseRate = 250.0;         // sessions / s, the fixed rate
const double kLadder[] = {500.0, 900.0};    // higher offered rates
constexpr double kPollCadence = 0.002;      // s between polls of a session
constexpr double kTtfrLimitMs = 100.0;      // SLO on ttfr p99
constexpr double kLateLimitMs = 20.0;       // generator health
constexpr double kBacklogLimit = 0.05;      // accumulating share of arrivals
constexpr double kDrainSeconds = 20.0;      // max wait for stragglers
constexpr double kPhaseGapSeconds = 0.3;    // arrival pause between phases
constexpr double kWarmupSeconds = 1.0;      // untimed start of a fixed-rate play
constexpr size_t kSaturationLive = 32;      // sessions in flight per connection
// Shares of an untraced run: fixed rate, ladder, closed-loop saturation.
constexpr double kFixedShare = 0.4;
constexpr double kLadderShare = 0.2;
constexpr double kSaturationShare = 0.4;
constexpr double kSaturationPlanRate = 5000.0;  // plan sessions per second of play
constexpr int kSetupRepeats = 101;           // set-up is milliseconds long

struct Preset {
  const char* name;
  double scale;
};
constexpr Preset kDashcam{"dashcam", 0.2};
constexpr Preset kNight{"night_street", 0.08};
constexpr Preset kPaired{"paired_street", 0.2};

struct SessionPlan {
  int64_t index = 0;
  double due = 0.0;  // seconds after phase start
  int phase = 0;     // 0 = fixed rate, 1.. = ladder rung
  /// Arrives in the first kWarmupSeconds of a fixed-rate play: gated like
  /// every session, but left out of every figure.
  bool warmup = false;
  Preset preset{};
  std::string class_name;          // single-class sessions
  core::PredicateRequest predicate;  // composite sessions
  int64_t limit = 0;               // 0 = none (budget scans)
  double budget_seconds = 0.0;
};

struct SessionOutcome {
  bool opened = false;
  bool done = false;
  bool failed = false;
  /// A result was delivered by more than one poll.
  bool duplicate = false;
  /// Never opened: a closed-loop play ended first. Not attempted.
  bool skipped = false;
  int64_t session = -1;
  /// Seconds from when the arrival was due and its connection was free to
  /// when the open was sent.
  double late_s = 0.0;
  double ttfr_s = -1.0;
  double query_s = -1.0;
  /// Seconds from the play's start to the done poll.
  double done_at = -1.0;
  int64_t frames = 0;
  double cost_seconds = 0.0;
  std::string stop_reason;
  int64_t total_results = 0;
  int64_t polls = 0;
  int64_t empty_polls = 0;
  std::vector<detect::Detection> results;
};

std::vector<SessionPlan> MakeSchedule(uint64_t seed, const std::vector<double>& rates,
                                      const std::vector<double>& durations) {
  std::mt19937_64 rng(seed ^ 0x5e55105ULL);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const char* dashcam_classes[] = {"person", "stop sign", "traffic light", "truck",
                                   "fire hydrant"};
  const char* night_classes[] = {"car", "person", "truck"};
  std::vector<SessionPlan> plan;
  double phase_start = 0.0;
  for (size_t ph = 0; ph < rates.size(); ++ph) {
    std::exponential_distribution<double> gap(rates[ph]);
    double t = phase_start + gap(rng);
    while (t < phase_start + durations[ph]) {
      SessionPlan s;
      s.index = static_cast<int64_t>(plan.size());
      s.due = t;
      s.phase = static_cast<int>(ph);
      s.warmup = rates[ph] == kBaseRate && t - phase_start < kWarmupSeconds;
      const double kind = u(rng);
      const size_t pick = static_cast<size_t>(u(rng) * 1e6);
      // Assumed shares, unverified: 5% long scans (hold session slots, so
      // queueing shows in TTFR), 10% composite sessions split evenly over
      // and / seq / multi (predicate jobs, MultiClassEngine and the shared
      // decode cache), 40% night_street and 45% dashcam find-k sessions
      // (protocol, transport and StatsCache reads and writes dominate).
      if (kind < 0.05) {
        s.preset = kDashcam;
        s.class_name = "person";
        s.budget_seconds = 250.0;  // modeled seconds, ~5000 frames: assumed
      } else if (kind < 0.15) {
        s.preset = kPaired;
        s.limit = 10;
        switch (pick % 3) {
          case 0:
            s.predicate.kind = core::PredicateKind::kConjunction;
            s.predicate.class_names = {"car", "person"};
            break;
          case 1:
            s.predicate.kind = core::PredicateKind::kSequence;
            s.predicate.class_names = {"bicycle", "truck"};
            break;
          default:
            s.predicate.kind = core::PredicateKind::kMultiClass;
            s.predicate.class_names = {"car", "person"};
            break;
        }
      } else if (kind < 0.55) {
        s.preset = kNight;
        s.class_name = night_classes[pick % 3];
        s.limit = 10;
      } else {
        s.preset = kDashcam;
        s.class_name = dashcam_classes[pick % 5];
        s.limit = 10;
      }
      plan.push_back(std::move(s));
      t += gap(rng);
    }
    phase_start += durations[ph];
  }
  return plan;
}

Json OpenRequest(const SessionPlan& s) {
  Json req = Json::Object()
                 .Set("cmd", "open")
                 .Set("preset", s.preset.name)
                 .Set("scale", s.preset.scale)
                 .Set("tracker", true);
  if (s.class_name.empty()) {
    req.Set("predicate", core::PredicateRequestJson(s.predicate));
  } else {
    req.Set("class", s.class_name);
  }
  if (s.limit > 0) req.Set("limit", s.limit);
  if (s.budget_seconds > 0.0) req.Set("budget_seconds", s.budget_seconds);
  return req;
}

std::unique_ptr<ServerStack> StartStack(uint64_t seed, int session_threads, int shards,
                                        std::string* error) {
  ServerStackOptions options;
  for (const Preset& p : {kDashcam, kNight, kPaired}) options.datasets.emplace_back(p.name, p.scale);
  options.manager.threads = static_cast<size_t>(session_threads);
  options.manager.max_live_sessions = 1024;
  options.manager.base_seed = seed;
  options.manager.warm_start = true;
  options.handler.warm_start = true;
  options.shards = shards;
  return StartServerStack(options, error);
}

detect::Detection ParseResult(const Json& item) {
  detect::Detection d;
  d.frame = item.GetInt("frame", -1);
  d.class_id = static_cast<detect::ClassId>(item.GetInt("class_id", 0));
  d.box.x = item.GetDouble("x", 0.0);
  d.box.y = item.GetDouble("y", 0.0);
  d.box.w = item.GetDouble("w", 0.0);
  d.box.h = item.GetDouble("h", 0.0);
  return d;
}

struct LoadResult {
  std::vector<SessionOutcome> sessions;
  std::map<std::string, std::vector<double>> rtt_us;
  /// (seconds since start, sessions in flight) samples.
  std::vector<std::pair<double, int64_t>> backlog;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  int64_t connect_failures = 0;
};

/// Plays `plan` against the server on `connections` client threads.
/// Open loop (`max_live` 0): each session opens at its due time, and its
/// latencies are timed from then. Closed loop: each connection keeps
/// `max_live` sessions in flight, opening the next as soon as one closes,
/// until `horizon`; latencies are timed from the open, and sessions not
/// opened by then are skipped.
LoadResult PlayLoad(uint16_t port, const std::vector<SessionPlan>& plan,
                    int connections, bool traced, double horizon,
                    size_t max_live = 0) {
  LoadResult out;
  out.sessions.resize(plan.size());
  std::atomic<int64_t> in_flight{0};
  std::atomic<bool> finished{false};
  std::vector<std::map<std::string, std::vector<double>>> rtts(
      static_cast<size_t>(connections));
  std::atomic<int64_t> connect_failures{0};
  const double cpu0 = CpuNow();
  const double t0 = WallNow() + 0.05;  // give every thread time to connect
  const double hard_stop = t0 + horizon + kDrainSeconds;

  auto conn_main = [&](int c) {
    auto connected = exsample::net::Client::Connect("127.0.0.1", port, 30.0);
    std::vector<size_t> mine;
    for (size_t i = static_cast<size_t>(c); i < plan.size(); i += static_cast<size_t>(connections)) {
      mine.push_back(i);
    }
    if (!connected.ok()) {
      connect_failures.fetch_add(1);
      for (size_t i : mine) out.sessions[i].failed = true;
      return;
    }
    RpcClient client(std::move(connected.value()), traced);
    struct Live {
      size_t index;
      double start;  // latencies are timed from here
      double next_poll;
      std::set<std::tuple<int64_t, double, double, double, double>> seen;
    };
    std::vector<Live> live;
    size_t next = 0;
    // When the connection's last request returned. An arrival due while a
    // request is in flight waits for it, but that wait is server time: the
    // server answers a connection's requests in order, so a pipelined
    // client's open would wait just as long, and latencies are timed from
    // the due time, so they include it. Lateness counts the generator only.
    double free_since = 0.0;
    while (next < mine.size() || !live.empty()) {
      double now = WallNow();
      if (now > hard_stop) break;
      if (max_live > 0 && now >= t0 + horizon) {
        for (; next < mine.size(); ++next) out.sessions[mine[next]].skipped = true;
      }
      double open_due = 1e300;
      if (next < mine.size()) {
        if (max_live == 0) {
          open_due = t0 + plan[mine[next]].due;
        } else if (live.size() < max_live) {
          open_due = now;
        }
      }
      size_t poll_at = live.size();
      double poll_due = 1e300;
      for (size_t k = 0; k < live.size(); ++k) {
        if (live[k].next_poll < poll_due) {
          poll_due = live[k].next_poll;
          poll_at = k;
        }
      }
      const double due = std::min(open_due, poll_due);
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        now = WallNow();
      }
      // An arrival that is due goes before every poll, overdue ones too:
      // polls are the closed-loop part of a session, arrivals the open
      // loop, so a queue of polls must not delay the next arrival.
      if (open_due <= std::max(poll_due, now)) {
        const size_t i = mine[next++];
        SessionOutcome& s = out.sessions[i];
        s.late_s = now - std::max(open_due, free_since);
        auto reply = client.Call(OpenRequest(plan[i]));
        if (!reply.ok() || !reply.value().GetBool("ok", false)) {
          s.failed = true;
          continue;
        }
        free_since = WallNow();
        s.opened = true;
        s.session = reply.value().GetInt("session", -1);
        in_flight.fetch_add(1);
        live.push_back({i, max_live == 0 ? open_due : now, free_since + kPollCadence, {}});
        continue;
      }
      Live& l = live[poll_at];
      SessionOutcome& s = out.sessions[l.index];
      auto reply = client.Call(Json::Object().Set("cmd", "poll").Set("session", s.session));
      const double after = WallNow();
      free_since = after;
      bool finished_session = false;
      if (!reply.ok() || !reply.value().GetBool("ok", false)) {
        s.failed = true;
        finished_session = true;
      } else {
        const Json& r = reply.value();
        ++s.polls;
        const Json* items = r.Find("new_results");
        const size_t n = items == nullptr ? 0 : items->size();
        if (n == 0) ++s.empty_polls;
        for (size_t k = 0; k < n; ++k) {
          detect::Detection d = ParseResult(items->items()[k]);
          if (!l.seen.emplace(d.frame, d.box.x, d.box.y, d.box.w, d.box.h).second) {
            s.duplicate = true;
          }
          s.results.push_back(d);
        }
        if (n > 0 && s.ttfr_s < 0.0) s.ttfr_s = after - l.start;
        if (r.GetString("state", "running") != "running") {
          s.done = true;
          s.query_s = after - l.start;
          s.done_at = after - t0;
          s.frames = r.GetInt("frames_processed", 0);
          s.cost_seconds = r.GetDouble("cost_seconds", 0.0);
          s.stop_reason = r.GetString("stop_reason", "");
          s.total_results = r.GetInt("total_results", 0);
          finished_session = true;
          auto closed = client.Call(Json::Object().Set("cmd", "close").Set("session", s.session));
          if (!closed.ok() || !closed.value().GetBool("ok", false)) s.failed = true;
          free_since = WallNow();
        }
      }
      if (finished_session) {
        in_flight.fetch_sub(1);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(poll_at));
      } else {
        l.next_poll = after + kPollCadence;
      }
    }
    for (const Live& l : live) out.sessions[l.index].failed = true;  // timed out
    rtts[static_cast<size_t>(c)] = client.rtt_us();
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) threads.emplace_back(conn_main, c);
  std::thread sampler([&] {
    while (!finished.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const double t = WallNow() - t0;
      out.backlog.emplace_back(t, in_flight.load());
    }
  });
  for (std::thread& t : threads) t.join();
  finished = true;
  sampler.join();
  out.wall_s = WallNow() - t0;
  out.cpu_s = CpuNow() - cpu0;
  out.connect_failures = connect_failures.load();
  for (auto& per_conn : rtts) {
    for (auto& [verb, v] : per_conn) {
      out.rtt_us[verb].insert(out.rtt_us[verb].end(), v.begin(), v.end());
    }
  }
  return out;
}

/// Least-squares slope of in-flight sessions over [from, to), per second,
/// as a share of the offered rate.
double BacklogGrowth(const LoadResult& load, double from, double to, double rate) {
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [t, y] : load.backlog) {
    if (t < from || t >= to) continue;
    n += 1;
    sx += t;
    sy += static_cast<double>(y);
    sxx += t * t;
    sxy += t * static_cast<double>(y);
  }
  if (n < 3) return 0.0;
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return slope / rate;
}

struct PhaseStats {
  std::vector<double> ttfr_ms, query_ms, late_ms;
  /// Sessions that reached k, by kind (preset and class or predicate).
  std::map<std::string, std::vector<double>> frames_to_k, modeled_to_k;
  int64_t sessions = 0, done = 0, failed = 0, frames = 0, polls = 0, empty_polls = 0;
};

PhaseStats Summarize(const std::vector<SessionPlan>& plan, const LoadResult& load,
                     int phase) {
  PhaseStats p;
  for (size_t i = 0; i < plan.size(); ++i) {
    const SessionOutcome& s = load.sessions[i];
    if (plan[i].phase != phase || plan[i].warmup || s.skipped) continue;
    ++p.sessions;
    if (s.opened) p.late_ms.push_back(1e3 * s.late_s);
    if (s.failed || !s.done) {
      ++p.failed;
      continue;
    }
    ++p.done;
    p.frames += s.frames;
    p.polls += s.polls;
    p.empty_polls += s.empty_polls;
    p.query_ms.push_back(1e3 * s.query_s);
    if (s.ttfr_s >= 0.0) p.ttfr_ms.push_back(1e3 * s.ttfr_s);
    if (s.stop_reason == "limit") {
      const std::string kind = std::string(plan[i].preset.name) + "/" +
                               (plan[i].class_name.empty()
                                    ? core::PredicateRequestJson(plan[i].predicate).Dump()
                                    : plan[i].class_name);
      p.frames_to_k[kind].push_back(static_cast<double>(s.frames));
      p.modeled_to_k[kind].push_back(s.cost_seconds);
    }
  }
  return p;
}

/// Exactly-once delivery and result validity for every session, and no
/// failed, refused or timed-out session at the fixed rate (phase 0). The
/// ladder's higher rungs overload the server on purpose: their failures are
/// counted, not gated, but whatever they delivered is still checked.
void Gate(const std::vector<SessionPlan>& plan, const LoadResult& load,
          serve::DatasetPool* pool, uint64_t seed, Outcome* out) {
  int64_t checked = 0, false_positives = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    const SessionPlan& p = plan[i];
    const SessionOutcome& s = load.sessions[i];
    if (s.skipped) continue;
    const std::string label = "session " + std::to_string(s.session) + " (plan " +
                              std::to_string(p.index) + ")";
    ++out->attempted;
    const bool failed = s.failed || !s.done;
    if (failed) {
      ++out->failed;
      if (p.phase == 0) out->Error(label + " failed, was refused or timed out at the fixed rate");
    }
    if (s.duplicate) {
      out->Error(label + ": a result was delivered twice");
      continue;
    }
    if (!failed && s.total_results != static_cast<int64_t>(s.results.size())) {
      out->Error(label + ": results not delivered exactly once (" +
                 std::to_string(s.results.size()) + " delivered, " +
                 std::to_string(s.total_results) + " reported)");
      continue;
    }
    if (s.results.empty()) continue;
    const exsample::data::Dataset* ds = pool->Get(p.preset.name, p.preset.scale);
    core::PredicateRequest request = p.predicate;
    if (!p.class_name.empty()) request.class_names = {p.class_name};
    auto resolved = exsample::exec::ResolvePredicate(*ds, request);
    if (!resolved.ok()) {
      out->Error("cannot resolve the predicate of " + label);
      continue;
    }
    const core::QueryPredicate predicate = resolved.value();
    // Rebuild the session's detector from its seed (QuerySession's split).
    const uint64_t session_seed =
        exsample::exec::MultiQueryRunner::JobSeed(seed, s.session);
    ResultValidator::DetectorFactory factory;
    if (predicate.kind == core::PredicateKind::kMultiClass) {
      factory = [ds, predicate, session_seed] {
        exsample::SplitMix64 stream(session_seed);
        std::vector<std::unique_ptr<detect::ObjectDetector>> inner;
        for (detect::ClassId cls : predicate.classes) {
          stream.Next();  // the constituent's engine seed
          inner.push_back(std::make_unique<detect::SimulatedDetector>(
              &ds->ground_truth, cls, detect::DetectorConfig{}, stream.Next()));
        }
        return std::unique_ptr<detect::ObjectDetector>(
            std::make_unique<detect::CompositeDetector>(std::move(inner)));
      };
    } else {
      exsample::exec::QueryJob job;
      exsample::exec::ConfigurePredicateJob(ds, predicate, true, detect::DetectorConfig{},
                                            &job);
      exsample::SplitMix64 stream(session_seed);
      stream.Next();
      const uint64_t detector_seed = stream.Next();
      factory = [job, detector_seed] { return job.make_detector(detector_seed); };
    }
    ResultValidator validator(ds, predicate.classes);
    std::vector<std::string> errors;
    if (validator.Check(s.results, factory, /*compare_instance=*/false, &errors) > 0) {
      if (!failed) ++out->failed;
      for (const std::string& e : errors) out->Error(label + ": " + e);
    }
    checked += validator.checked();
    false_positives += validator.false_positives();
  }
  // A run gates several plays; the counts add up over them.
  out->notes.Set("results_checked", out->notes.GetInt("results_checked", 0) + checked)
      .Set("detector_false_positives",
           out->notes.GetInt("detector_false_positives", 0) + false_positives);
}

/// Open-loop health of a fixed-rate play lasting `seconds`: a generator
/// that fell behind or a backlog that grew in the play's second half makes
/// the run invalid; a load generator that could not connect fails the gate.
/// Returns {late p99 in ms, backlog growth}.
std::pair<double, double> CheckHealth(const std::vector<SessionPlan>& plan,
                                      const LoadResult& load, double seconds,
                                      const std::string& play, Outcome* out) {
  const double late_p99 = exsample::Percentile(Summarize(plan, load, 0).late_ms, 0.99);
  const double growth = BacklogGrowth(load, 0.5 * seconds, seconds, kBaseRate);
  if (load.connect_failures > 0) out->Error(play + ": load generator could not connect");
  if (late_p99 > kLateLimitMs) {
    out->invalid.push_back(play + ": generator fell behind, late p99 " +
                           std::to_string(late_p99) + " ms");
  }
  if (growth > kBacklogLimit) {
    out->invalid.push_back(play + ": backlog grew at the fixed rate: " + std::to_string(growth));
  }
  return {late_p99, growth};
}

/// Sessions done and their frames over a whole play, warm-up included.
std::pair<int64_t, int64_t> DoneAndFrames(const LoadResult& load) {
  int64_t done = 0, frames = 0;
  for (const SessionOutcome& s : load.sessions) {
    if (!s.done) continue;
    ++done;
    frames += s.frames;
  }
  return {done, frames};
}

double P50(const std::map<std::string, std::vector<double>>& rtt, const std::string& verb) {
  auto it = rtt.find(verb);
  return it == rtt.end() ? 0.0 : Median(it->second);
}

}  // namespace

void RunServeOpenLoop(const RunConfig& cfg, Outcome* out) {
  const int nproc = HostThreads();
  // Half as many session-pool threads and connections as vCPUs, one shard
  // per four: with one of each per vCPU (4 + 2 + 4 busy threads on 4
  // vCPUs) the saturation rate swung by +-20% between interleaved runs on
  // a shared host, against +-5% at 2 + 1 + 2.
  const int session_threads = std::max(1, nproc / 2);
  const int shards = std::max(1, nproc / 4);
  const int connections = std::max(1, nproc / 2);
  out->threads["session_pool"] = session_threads;
  out->threads["session_scheduler"] = 1;
  out->threads["server_shards"] = shards;
  out->threads["loadgen_connections"] = connections;

  // Set-up: dataset generation plus server start, repeated for a steady
  // median; the last stack serves the run.
  std::unique_ptr<ServerStack> stack;
  std::string error;
  std::vector<double> generate;
  const std::vector<double> setup = TimeSetUp(kSetupRepeats, [&] { stack.reset(); }, [&] {
    if (!error.empty()) return;
    stack = StartStack(cfg.seed, session_threads, shards, &error);
    if (stack != nullptr) generate.push_back(stack->generate_s);
  });
  if (stack == nullptr) {
    out->Error("server start failed: " + error);
    return;
  }
  const uint16_t port = stack->server->port();

  // Phases: a traced run plays the fixed rate twice (untraced, then
  // traced); an untraced run plays the fixed rate, then the closed-loop
  // saturation phase, then the ladder. One schedule holds the open-loop
  // phases, so they share one stream of session mixes.
  std::vector<double> rates{kBaseRate};
  std::vector<double> durations;
  if (cfg.trace) {
    rates.push_back(kBaseRate);
    durations = {0.5 * cfg.seconds, 0.5 * cfg.seconds};
  } else {
    durations = {kFixedShare * cfg.seconds};
    for (double r : kLadder) {
      rates.push_back(r);
      durations.push_back(kLadderShare * cfg.seconds / std::size(kLadder));
    }
  }
  const std::vector<SessionPlan> schedule = MakeSchedule(cfg.seed, rates, durations);
  // Phase `ph` of the schedule starts at PhaseStart(ph); a play of phases
  // [first, last] starts at 0 and pauses arrivals kPhaseGapSeconds between
  // phases, so a phase's stragglers do not queue behind the next's load.
  auto phase_start = [&](int ph) {
    double t = 0.0;
    for (int j = 0; j < ph; ++j) t += durations[static_cast<size_t>(j)];
    return t;
  };
  auto play_of = [&](int first, int last) {
    std::vector<SessionPlan> play;
    for (const SessionPlan& s : schedule) {
      if (s.phase < first || s.phase > last) continue;
      play.push_back(s);
      play.back().due += kPhaseGapSeconds * (s.phase - first) - phase_start(first);
    }
    return play;
  };
  auto horizon_of = [](const std::vector<SessionPlan>& play) {
    return play.empty() ? 0.0 : play.back().due;
  };

  if (cfg.trace) {
    // Untraced and traced halves are separate plays so the registry delta
    // and the spans cover the traced half only. Both are fixed-rate plays.
    exsample::obs::Registry* registry = stack->registry.get();
    const std::vector<SessionPlan> first = play_of(0, 0);
    std::vector<SessionPlan> second = play_of(1, 1);
    for (SessionPlan& s : second) s.phase = 0;
    const LoadResult bare = PlayLoad(port, first, connections, false, horizon_of(first));
    const auto [late_p99, growth] =
        CheckHealth(first, bare, durations[0], "untraced play", out);
    const Json snap0 = registry->Snapshot();
    SpanRecorder::Get().Reset(kSpanRecordCap);
    const LoadResult load = PlayLoad(port, second, connections, true, horizon_of(second));
    CheckHealth(second, load, durations[1], "traced play", out);
    const Json snap1 = registry->Snapshot();
    auto delta = [&](const char* name) {
      return SnapshotCounter(snap1, name) - SnapshotCounter(snap0, name);
    };
    auto hist_mean = [&](const char* name) {
      const double n = SnapshotHistogramCount(snap1, name) - SnapshotHistogramCount(snap0, name);
      const double s = SnapshotHistogramSum(snap1, name) - SnapshotHistogramSum(snap0, name);
      return n > 0 ? s / n : 0.0;
    };
    const PhaseStats p = Summarize(second, load, 0);
    // Registry deltas and CPU cover whole plays, warm-up included.
    const int64_t bare_frames = DoneAndFrames(bare).second;
    const auto [traced_done, traced_frames] = DoneAndFrames(load);
    out->Layer("net.rtt_open_us_p50", P50(load.rtt_us, "open"), "us");
    out->Layer("net.rtt_poll_us_p50", P50(load.rtt_us, "poll"), "us");
    out->Layer("net.rtt_close_us_p50", P50(load.rtt_us, "close"), "us");
    const double request_us = 1e6 * hist_mean("net.request_seconds");
    std::vector<double> all_rtt;
    for (const auto& [verb, v] : load.rtt_us) all_rtt.insert(all_rtt.end(), v.begin(), v.end());
    out->Layer("net.request_us_mean", request_us, "us");
    out->Layer("net.transport_us_mean", Mean(all_rtt) - request_us, "us");
    const double sessions = std::max<double>(1.0, static_cast<double>(traced_done));
    out->Layer("net.bytes_per_session", (delta("net.bytes_in") + delta("net.bytes_out")) / sessions,
               "bytes");
    out->Layer("serve.slice_us_mean", 1e6 * hist_mean("serve.slice_seconds"), "us");
    const double opened = delta("serve.sessions_opened");
    out->Layer("serve.slices_per_session", opened > 0 ? delta("serve.slices_run") / opened : 0.0,
               "count");
    out->Layer("serve.empty_poll_frac",
               p.polls > 0 ? static_cast<double>(p.empty_polls) / static_cast<double>(p.polls) : 0.0,
               "ratio");
    out->Layer("serve.ttfr_server_ms_mean", 1e3 * hist_mean("serve.time_to_first_result_seconds"),
               "ms");
    const double hits = delta("serve.warm_start_hits");
    const double misses = delta("serve.warm_start_misses");
    out->Layer("serve.warm_start_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio");
    out->Layer("serve.admission_rejected", delta("serve.admission_rejected"), "count");
    out->Layer("loadgen.late_ms_p99", late_p99, "ms");
    out->Layer("loadgen.backlog_growth", growth, "ratio");
    out->Layer("data.generate_s", Median(generate), "s");
    // Open loop: the frame rate is fixed by the schedule, so the tracing
    // cost shows as CPU per frame.
    const double cpu_bare = bare.cpu_s / std::max<double>(1.0, static_cast<double>(bare_frames));
    const double cpu_traced = load.cpu_s / std::max<double>(1.0, static_cast<double>(traced_frames));
    out->Layer("obs.trace_overhead_frac", 1.0 - cpu_bare / cpu_traced, "ratio");
    out->self_time_table = SelfTimeTable("self time by span, workload serve_open_loop");
    Gate(first, bare, stack->pool.get(), cfg.seed, out);
    Gate(second, load, stack->pool.get(), cfg.seed, out);
    return;
  }

  // Fixed rate: latencies, generator health and the sampling cost unit.
  const std::vector<SessionPlan> fixed = play_of(0, 0);
  const LoadResult load = PlayLoad(port, fixed, connections, false, horizon_of(fixed));
  const PhaseStats base = Summarize(fixed, load, 0);
  const auto [late_p99, growth] = CheckHealth(fixed, load, durations[0], "fixed-rate phase", out);
  const double d0 = durations[0] - kWarmupSeconds;  // the timed part
  out->Set("setup_s", Median(setup), "s", "wall");
  // At the fixed rate the schedule sets the frame and session rates, so
  // they move only when sessions fail, which fails the gate anyway. The
  // rates the server sets, at saturation below, follow the host too
  // closely to gate (see README.md); the gated serve cost is CPU per frame.
  out->Set("frames_per_s", static_cast<double>(base.frames) / d0, "1/s", "wall");
  out->Set("queries_per_s", static_cast<double>(base.done) / d0, "1/s", "wall");
  out->Extra("query_ms_p50", Median(base.query_ms), "ms", "wall");
  out->Extra("ttfr_ms_p50", Median(base.ttfr_ms), "ms", "wall");
  if (base.query_ms.size() >= 1000) {
    out->Extra("query_ms_p99", exsample::Percentile(base.query_ms, 0.99), "ms", "wall");
  }
  if (base.ttfr_ms.size() >= 1000) {
    out->Extra("ttfr_ms_p99", exsample::Percentile(base.ttfr_ms, 0.99), "ms", "wall");
  }
  out->Extra("loadgen.late_ms_p99", late_p99, "ms", "wall");
  out->Extra("loadgen.backlog_growth", growth, "ratio", "count");
  out->Set("modeled_s_to_k", BalancedMedian(base.modeled_to_k), "s", "modeled");
  out->Set("frames_to_k", BalancedMedian(base.frames_to_k), "count", "modeled");
  const int64_t open_frames = DoneAndFrames(load).second;
  out->Extra("open_loop_cpu_us_per_frame",
             1e6 * load.cpu_s / std::max<double>(1.0, static_cast<double>(open_frames)), "us", "cpu");
  Gate(fixed, load, stack->pool.get(), cfg.seed, out);

  // Saturation: a closed loop that keeps kSaturationLive sessions in flight
  // on every connection, so the server, not a schedule, sets the frame and
  // session rates. Sessions done in the first kWarmupSeconds are not timed.
  // Between sets of ten runs their median moved by up to 26% with the
  // host's load, so they are reported ungated.
  const double sat_seconds = kSaturationShare * cfg.seconds;
  const std::vector<SessionPlan> sat_plan =
      MakeSchedule(cfg.seed + 1, {kSaturationPlanRate}, {sat_seconds});
  const LoadResult sat = PlayLoad(port, sat_plan, connections, false, sat_seconds, kSaturationLive);
  // The ladder after this overloads the server on purpose; its transient
  // memory is not counted.
  out->Set("peak_rss_mb", PeakRssMb(), "MB", "memory");
  int64_t sat_done = 0, sat_frames = 0, sat_skipped = 0;
  std::vector<double> sat_query_ms;
  for (const SessionOutcome& s : sat.sessions) {
    sat_skipped += s.skipped ? 1 : 0;
    if (!s.done || s.done_at < kWarmupSeconds || s.done_at >= sat_seconds) continue;
    ++sat_done;
    sat_frames += s.frames;
    sat_query_ms.push_back(1e3 * s.query_s);
  }
  // A plan that ran out before the play ended would understate the rate.
  if (sat_skipped == 0) out->Error("saturation play ran out of planned sessions");
  const double window = sat_seconds - kWarmupSeconds;
  out->Extra("saturation_frames_per_s", static_cast<double>(sat_frames) / window, "1/s", "wall");
  out->Extra("saturation_queries_per_s", static_cast<double>(sat_done) / window, "1/s", "wall");
  // CPU per frame over the whole saturation play: its vCPUs stay busy. In
  // the open loop they idle between arrivals, and on a shared host every
  // wake-up can wait for the hypervisor, which inflated CPU per frame there
  // by up to 70% from one minute to the next.
  const int64_t sat_all_frames = DoneAndFrames(sat).second;
  out->Set("cpu_us_per_frame",
           1e6 * sat.cpu_s / std::max<double>(1.0, static_cast<double>(sat_all_frames)), "us",
           "cpu");
  Gate(sat_plan, sat, stack->pool.get(), cfg.seed, out);

  // SLO ladder: the highest offered rate whose ttfr p99 meets the limit
  // with no growing backlog. The fixed rate is the first rung; the higher
  // rungs are one play, rung `ph` starting at `from` within it.
  const std::vector<SessionPlan> ladder = play_of(1, static_cast<int>(rates.size()) - 1);
  const LoadResult climb = PlayLoad(port, ladder, connections, false, horizon_of(ladder));
  Gate(ladder, climb, stack->pool.get(), cfg.seed, out);
  double slo = 0.0;
  Json rungs = Json::Array();
  for (size_t ph = 0; ph < rates.size(); ++ph) {
    const bool fixed_rung = ph == 0;
    const PhaseStats r = fixed_rung ? base : Summarize(ladder, climb, static_cast<int>(ph));
    const double from =
        fixed_rung ? 0.0
                   : phase_start(static_cast<int>(ph)) - phase_start(1) +
                         kPhaseGapSeconds * static_cast<double>(ph - 1);
    const double p99 = exsample::Percentile(r.ttfr_ms, 0.99);
    const double g = BacklogGrowth(fixed_rung ? load : climb, from + 0.5 * durations[ph],
                                   from + durations[ph], rates[ph]);
    const bool ok = r.failed == 0 && p99 <= kTtfrLimitMs && g <= kBacklogLimit;
    // Rungs rise; a rate counts only if every lower rung met the SLO too.
    if (ok && (ph == 0 || slo == rates[ph - 1])) slo = rates[ph];
    rungs.Append(Json::Object()
                     .Set("rate", rates[ph])
                     .Set("sessions", r.sessions)
                     .Set("ttfr_ms_p99", p99)
                     .Set("backlog_growth", g)
                     .Set("meets_slo", ok));
  }
  out->Extra("slo_sessions_per_s", slo, "1/s", "wall");
  out->notes.Set("ladder", std::move(rungs))
      .Set("ttfr_limit_ms", kTtfrLimitMs)
      .Set("fixed_rate", kBaseRate)
      .Set("fixed_rate_sessions", base.sessions)
      .Set("fixed_rate_done", base.done)
      .Set("ttfr_samples", static_cast<int64_t>(base.ttfr_ms.size()))
      .Set("data_generate_s", Median(generate))
      .Set("saturation_live_sessions", static_cast<int64_t>(kSaturationLive) * connections)
      .Set("saturation_sessions_timed", sat_done)
      .Set("saturation_query_ms_p50", Median(sat_query_ms));
  const double attempted = static_cast<double>(std::max<int64_t>(out->attempted, 1));
  out->Extra("failed_frac", static_cast<double>(out->failed) / attempted, "ratio", "count");
}

}  // namespace perfbench
