// dist_small_rounds: dist::Coordinator over ClientShardBackend to two
// loopback worker servers, closed loop, one query at a time.
//
// 8 logical shards over bdd1k at scale 0.5, thompson at both levels, and
// small per-pick frame budgets, so one query runs many rounds and the
// per-round dist.pick / dist.report round trips, wire encode / decode and
// the coordinator barrier dominate. Every result is re-derived through the
// in-process LocalShardBackend, which must agree bit for bit.

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "decorators.h"
#include "dist/coordinator.h"
#include "exec/multi_query_runner.h"
#include "spans.h"
#include "util/stats.h"

namespace perfbench {
namespace {

namespace dist = exsample::dist;

constexpr const char* kPreset = "bdd1k";
constexpr double kScale = 0.5;
constexpr int kWorkers = 2;
constexpr int32_t kShards = 8;
constexpr int64_t kLimit = 50;
constexpr int64_t kFramesPerPick = 1;
constexpr int32_t kPicksPerRound = 4;
// Set-up is milliseconds long; its median over several repeats is steady.
constexpr int kSetupRepeats = 61;
/// Coordinator clients, each a closed loop with one query in flight: one
/// per hardware thread, like the engine workloads' workers.
const int kClients = HostThreads();
/// Queries per worker connection before it is closed and reopened.
constexpr int64_t kQueriesPerConnection = 32;
const char* const kClasses[] = {"bike", "bus", "motor", "rider", "truck"};

/// Query `id`'s class: the rotation starts at a seed-chosen class.
const char* ClassOf(uint64_t seed, int64_t id) {
  return kClasses[(seed + static_cast<uint64_t>(id)) % std::size(kClasses)];
}

/// One worker process's stack, in-process. Workers and the in-process
/// reference share one seed for their datasets and shard-session streams
/// (LocalShardBackend ties the two together).
std::unique_ptr<ServerStack> StartWorker(std::string* error) {
  ServerStackOptions options;
  options.datasets = {{kPreset, kScale}};
  options.manager.threads = 1;  // shard sessions are driven synchronously by dist.pick
  options.manager.base_seed = kRepositorySeed;
  options.handler.default_scale = kScale;
  options.shards = 1;
  return StartServerStack(options, error);
}

dist::CoordinatorOptions QueryOptions(uint64_t seed, int64_t id) {
  dist::CoordinatorOptions o;
  o.shard.preset = kPreset;
  o.shard.class_name = ClassOf(seed, id);
  o.shard.scale = kScale;
  o.num_shards = kShards;
  o.seed = exsample::exec::MultiQueryRunner::JobSeed(seed, id);
  o.result_limit = kLimit;
  o.frames_per_pick = kFramesPerPick;
  o.picks_per_round = kPicksPerRound;
  return o;
}

struct QueryRecord {
  int64_t id = 0;
  bool ok = false;
  double wall_s = 0.0;
  double ttfr_s = -1.0;
  double busy_s = 0.0;        // union of in-flight picks (traced)
  double rpc_union_s = 0.0;   // union of every in-flight RPC (traced)
  dist::CoordinatorResult result;
};

struct Phase {
  std::vector<QueryRecord> queries;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t frames = 0;
  /// Per-verb RPC round-trip samples in microseconds (traced).
  std::map<std::string, std::vector<double>> rtt_us;
};

double UnionSeconds(std::vector<std::pair<int64_t, int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  int64_t total = 0, start = -1, end = -1;
  for (const auto& [s, e] : spans) {
    if (s > end) {
      if (end > start) total += end - start;
      start = s;
      end = e;
    } else {
      end = std::max(end, e);
    }
  }
  if (end > start) total += end - start;
  return 1e-9 * static_cast<double>(total);
}

/// Runs the closed loop for `seconds`: kClients client threads, each with
/// one query in flight; client c runs query ids c, c + kClients, ...
Phase Drive(const std::vector<dist::ClientShardBackend::Endpoint>& endpoints, uint64_t seed,
            double seconds, bool traced, Outcome* out) {
  SpanRecorder& rec = SpanRecorder::Get();
  const int run_name = rec.Intern("dist.run");
  std::vector<Phase> per_client(kClients);
  std::atomic<bool> connect_failed{false};
  const double cpu0 = CpuNow();
  const double t0 = WallNow();
  auto client = [&](int c) {
    Phase& phase = per_client[static_cast<size_t>(c)];
    std::unique_ptr<dist::ClientShardBackend> backend;
    int64_t uses = 0;
    for (int64_t id = c; WallNow() < t0 + seconds; id += kClients) {
      // Workers free a connection's shard sessions when it closes, so each
      // connection serves a bounded number of queries. Reconnecting per
      // query instead churns thousands of loopback sockets per run (TIME_WAIT
      // build-up stalls connect for whole seconds). Connecting is not part
      // of a query's time.
      if (uses++ % kQueriesPerConnection == 0) {
        backend.reset();
        backend = std::make_unique<dist::ClientShardBackend>(
            endpoints, dist::ClientShardBackend::Options{});
        if (!backend->ConnectAll().ok()) {
          connect_failed = true;
          break;
        }
      }
      QueryRecord q;
      q.id = id;
      TracedShardBackend probe(backend.get(), traced);
      dist::Coordinator coordinator(&probe, QueryOptions(seed, id));
      const int64_t start_ns = NowNs();
      exsample::Result<dist::CoordinatorResult> result = exsample::Status::Ok();
      if (traced) {
        SpanRecorder::SetQuery(id);
        SpanRecorder::Span span(run_name);
        probe.BeginQuery(id, span.id());
        result = coordinator.Run();
      } else {
        probe.BeginQuery(id, -1);
        result = coordinator.Run();
      }
      const int64_t end_ns = NowNs();
      q.wall_s = 1e-9 * static_cast<double>(end_ns - start_ns);
      if (probe.first_result_ns() > 0) {
        q.ttfr_s = 1e-9 * static_cast<double>(probe.first_result_ns() - start_ns);
      }
      if (result.ok()) {
        q.ok = true;
        q.result = std::move(result.value());
        phase.frames += q.result.frames_processed;
      }
      if (traced) {
        q.busy_s = UnionSeconds(probe.intervals(true));
        q.rpc_union_s = UnionSeconds(probe.intervals(false));
        for (auto& [verb, v] : probe.rtt_us()) {
          auto& all = phase.rtt_us[verb];
          all.insert(all.end(), v.begin(), v.end());
        }
      }
      phase.queries.push_back(std::move(q));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  if (connect_failed) out->Error("cannot connect to the dist workers");

  Phase phase;
  phase.wall_s = WallNow() - t0;
  phase.cpu_s = CpuNow() - cpu0;
  for (Phase& p : per_client) {
    phase.frames += p.frames;
    for (QueryRecord& q : p.queries) phase.queries.push_back(std::move(q));
    for (auto& [verb, v] : p.rtt_us) {
      auto& all = phase.rtt_us[verb];
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  std::sort(phase.queries.begin(), phase.queries.end(),
            [](const QueryRecord& a, const QueryRecord& b) { return a.id < b.id; });
  return phase;
}

/// Gate: every query succeeded, reached its stopping rule without
/// failures, returned valid results, and matches LocalShardBackend.
void Gate(const Phase& p, uint64_t seed, const exsample::data::Dataset& ds, Outcome* out) {
  std::vector<std::string> errors;
  int64_t checked = 0, false_positives = 0;
  for (const QueryRecord& q : p.queries) {
    ++out->attempted;
    if (!q.ok || q.result.retries > 0 || q.result.rpc_timeouts > 0 ||
        q.result.rpc_disconnects > 0) {
      ++out->failed;
      out->Error("dist query " + std::to_string(q.id) + " failed or retried");
      continue;
    }
    const auto* cls = ds.FindClass(ClassOf(seed, q.id));
    ResultValidator validator(&ds, {cls->class_id});
    if (validator.Check(q.result.results, nullptr, true, &errors) > 0) ++out->failed;
    checked += validator.checked();
    false_positives += validator.false_positives();
  }
  for (const std::string& e : errors) out->Error(e);
  out->notes.Set("results_checked", checked).Set("detector_false_positives", false_positives);

  // Reference: the in-process backend, one per thread, same options.
  std::atomic<size_t> next{0};
  std::vector<std::string> mismatches(p.queries.size());
  auto work = [&] {
    dist::LocalShardBackend::Options lopt;
    lopt.num_workers = kWorkers;
    lopt.seed = kRepositorySeed;
    lopt.default_scale = kScale;
    dist::LocalShardBackend local(lopt);
    for (size_t i = next.fetch_add(1); i < p.queries.size(); i = next.fetch_add(1)) {
      const QueryRecord& q = p.queries[i];
      if (!q.ok) continue;
      dist::Coordinator coordinator(&local, QueryOptions(seed, q.id));
      auto ref = coordinator.Run();
      if (!ref.ok() || Fingerprint(ref.value().results) != Fingerprint(q.result.results) ||
          ref.value().frames_processed != q.result.frames_processed) {
        mismatches[i] = "dist query " + std::to_string(q.id) +
                        " differs from the LocalShardBackend run";
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < HostThreads(); ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  int64_t compared = 0;
  for (size_t i = 0; i < mismatches.size(); ++i) {
    if (!p.queries[i].ok) continue;
    ++compared;
    if (!mismatches[i].empty()) out->Error(mismatches[i]);
  }
  out->notes.Set("local_backend_compared", compared);
}

}  // namespace

/// The workload. `reset_spans` false keeps the spans another traced play
/// of this process recorded before.
void RunDist(const RunConfig& cfg, bool reset_spans, Outcome* out) {
  out->threads["dist_workers"] = kWorkers;
  out->threads["worker_server_shards"] = 1;
  out->threads["worker_session_pool"] = 1;
  out->threads["coordinator_dispatch_per_round"] = kWorkers;
  out->threads["loadgen_clients"] = kClients;
  out->threads["reference_threads"] = HostThreads();

  // Set-up: both workers' dataset generation and server start, repeated
  // for a steady median; the last workers serve the run.
  std::vector<std::unique_ptr<ServerStack>> workers;
  std::string error;
  std::vector<double> generate;
  const std::vector<double> setup = TimeSetUp(kSetupRepeats, [&] { workers.clear(); }, [&] {
    double generate_s = 0.0;
    for (int i = 0; i < kWorkers && error.empty(); ++i) {
      workers.push_back(StartWorker(&error));
      if (workers.back() != nullptr) generate_s += workers.back()->generate_s;
    }
    generate.push_back(generate_s);
  });
  if (!error.empty()) {
    out->Error("worker start failed: " + error);
    return;
  }
  std::vector<dist::ClientShardBackend::Endpoint> endpoints;
  for (const auto& w : workers) endpoints.push_back({"127.0.0.1", w->server->port()});
  const exsample::data::Dataset& ds = *workers[0]->pool->Get(kPreset, kScale);
  out->notes.Set("preset", kPreset).Set("scale", kScale).Set("shards", kShards)
      .Set("k", kLimit).Set("frames_per_pick", kFramesPerPick)
      .Set("picks_per_round", kPicksPerRound);

  if (!cfg.trace) {
    const Phase p = Drive(endpoints, cfg.seed, cfg.seconds, false, out);
    std::vector<double> wall_ms, ttfr_ms, frames_to_k, modeled_to_k;
    int64_t completed = 0;
    for (const QueryRecord& q : p.queries) {
      if (!q.ok) continue;
      ++completed;
      wall_ms.push_back(1e3 * q.wall_s);
      if (q.ttfr_s >= 0.0) ttfr_ms.push_back(1e3 * q.ttfr_s);
      if (q.result.stop_reason == "limit") {
        frames_to_k.push_back(static_cast<double>(q.result.frames_processed));
        modeled_to_k.push_back(q.result.cost_seconds);
      }
    }
    out->Set("setup_s", Median(setup), "s", "wall");
    out->Set("frames_per_s", static_cast<double>(p.frames) / p.wall_s, "1/s", "wall");
    out->Set("queries_per_s", static_cast<double>(completed) / p.wall_s, "1/s", "wall");
    out->Set("cpu_us_per_frame", 1e6 * p.cpu_s / std::max<double>(1.0, static_cast<double>(p.frames)),
             "us", "cpu");
    out->Extra("query_ms_p50", Median(wall_ms), "ms", "wall");
    out->Extra("ttfr_ms_p50", Median(ttfr_ms), "ms", "wall");
    out->Set("modeled_s_to_k", Median(modeled_to_k), "s", "modeled");
    out->Set("frames_to_k", Median(frames_to_k), "count", "modeled");
    out->Set("peak_rss_mb", PeakRssMb(), "MB", "memory");
    if (wall_ms.size() >= 100) out->Extra("query_ms_p90", exsample::Percentile(wall_ms, 0.9), "ms", "wall");
    Gate(p, cfg.seed, ds, out);
    out->Extra("failed_frac",
               static_cast<double>(out->failed) / std::max<double>(1.0, static_cast<double>(out->attempted)),
               "ratio", "count");
    out->notes.Set("queries", completed);
    return;
  }

  const Phase bare = Drive(endpoints, cfg.seed, cfg.seconds / 2, false, out);
  auto worker_totals = [&](const char* counter) {
    double total = 0.0;
    for (const auto& w : workers) total += SnapshotCounter(w->registry->Snapshot(), counter);
    return total;
  };
  auto worker_hist = [&](const char* name, bool sum) {
    double total = 0.0;
    for (const auto& w : workers) {
      const Json snap = w->registry->Snapshot();
      total += sum ? SnapshotHistogramSum(snap, name) : SnapshotHistogramCount(snap, name);
    }
    return total;
  };
  const double bytes0 = worker_totals("net.bytes_in") + worker_totals("net.bytes_out");
  const double req_n0 = worker_hist("net.request_seconds", false);
  const double req_s0 = worker_hist("net.request_seconds", true);
  if (reset_spans) SpanRecorder::Get().Reset(kSpanRecordCap);
  const Phase traced = Drive(endpoints, cfg.seed, cfg.seconds / 2, true, out);
  const double bytes = worker_totals("net.bytes_in") + worker_totals("net.bytes_out") - bytes0;
  const double req_n = worker_hist("net.request_seconds", false) - req_n0;
  const double req_s = worker_hist("net.request_seconds", true) - req_s0;

  double rounds = 0, retries = 0, busy = 0, rpc_union = 0, wall = 0;
  int64_t n = 0;
  for (const QueryRecord& q : traced.queries) {
    if (!q.ok) continue;
    ++n;
    rounds += static_cast<double>(q.result.rounds);
    retries += static_cast<double>(q.result.retries);
    busy += q.busy_s;
    rpc_union += q.rpc_union_s;
    wall += q.wall_s;
  }
  const double frames = std::max<double>(1.0, static_cast<double>(traced.frames));
  auto p50 = [&](const char* verb) {
    auto it = traced.rtt_us.find(verb);
    return it == traced.rtt_us.end() ? 0.0 : Median(it->second);
  };
  std::vector<double> all_rtt;
  for (const auto& [verb, v] : traced.rtt_us) all_rtt.insert(all_rtt.end(), v.begin(), v.end());
  const double server_us = req_n > 0 ? 1e6 * req_s / req_n : 0.0;
  out->Layer("dist.pick_rtt_us_p50", p50("pick"), "us");
  out->Layer("dist.open_rtt_us_p50", p50("open"), "us");
  out->Layer("dist.report_rtt_us_p50", p50("report"), "us");
  out->Layer("dist.rounds_per_query", n > 0 ? rounds / static_cast<double>(n) : 0.0, "count");
  out->Layer("dist.rpc_busy_frac", wall > 0 ? busy / wall : 0.0, "ratio");
  out->Layer("dist.coordinator_self_us_per_round", rounds > 0 ? 1e6 * (wall - rpc_union) / rounds : 0.0,
             "us");
  out->Layer("dist.worker_request_us_mean", server_us, "us");
  out->Layer("dist.rpc_transport_us_mean", Mean(all_rtt) - server_us, "us");
  out->Layer("dist.bytes_per_frame", bytes / frames, "bytes");
  out->Layer("dist.retries", retries, "count");
  out->Layer("data.generate_s", Median(generate), "s");
  const double fps_bare = static_cast<double>(bare.frames) / bare.wall_s;
  const double fps_traced = static_cast<double>(traced.frames) / traced.wall_s;
  out->Layer("obs.trace_overhead_frac", 1.0 - fps_traced / fps_bare, "ratio");
  out->self_time_table = SelfTimeTable("self time by span, workload " + cfg.workload);
  Gate(traced, cfg.seed, ds, out);
  // Traced vs untraced: the same query ids must give the same results.
  std::map<int64_t, const QueryRecord*> by_id;
  for (const QueryRecord& q : bare.queries) if (q.ok) by_id[q.id] = &q;
  int64_t compared = 0;
  for (const QueryRecord& q : traced.queries) {
    auto it = by_id.find(q.id);
    if (!q.ok || it == by_id.end()) continue;
    ++compared;
    if (Fingerprint(it->second->result.results) != Fingerprint(q.result.results)) {
      out->Error("dist query " + std::to_string(q.id) + " differs traced vs untraced");
    }
  }
  out->notes.Set("traced_vs_untraced_compared", compared)
      .Set("untraced_frames_per_s", fps_bare)
      .Set("traced_frames_per_s", fps_traced)
      .Set("untraced_queries", static_cast<int64_t>(bare.queries.size()))
      .Set("traced_queries", static_cast<int64_t>(traced.queries.size()));
}

void RunDistSmallRounds(const RunConfig& cfg, Outcome* out) { RunDist(cfg, true, out); }

void AddDistLayers(const RunConfig& cfg, Outcome* out) {
  RunConfig sub = cfg;
  sub.seconds = cfg.seconds / 2;
  Outcome dist_out;
  RunDist(sub, /*reset_spans=*/false, &dist_out);
  for (const auto& [name, m] : dist_out.layer) {
    if (name.rfind("dist.", 0) == 0) out->layer[name] = m;
  }
  for (const std::string& e : dist_out.errors) out->Error("dist: " + e);
  for (const std::string& e : dist_out.invalid) out->invalid.push_back("dist: " + e);
  out->attempted += dist_out.attempted;
  out->failed += dist_out.failed;
  for (const auto& [name, n] : dist_out.threads) out->threads["dist." + name] = n;
  out->notes.Set("dist", dist_out.notes);
  // The recorder kept both plays' spans, so this table covers both.
  out->self_time_table = dist_out.self_time_table;
}

}  // namespace perfbench
