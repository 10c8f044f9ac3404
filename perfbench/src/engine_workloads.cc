// Offline workloads: core::QueryEngine driven directly, closed loop, one
// query per worker thread.
//
//   many_chunks   bdd1k at scale 1 (1000 one-clip chunks); sparse classes
//                 rotate, policies rotate thompson / hier_thompson /
//                 bayes_ucb; find k=100 with the tracker. The bandit pick
//                 is the load.
//   dense_tracks  archie at scale 1 (60 chunks, ~33.5k cars); find k=10000
//                 cars with the tracker and thompson; queries alternate
//                 between the serial path and exec::Pipeline. The tracker
//                 match is the load.
//
// Each query is built exactly the way exec::MultiQueryRunner::RunAll builds
// job `id` under base seed = the workload seed, and driven through
// Begin / Step / TakeResult so the run can stop at the deadline; slicing
// never changes a result (engine contract), which the gate re-checks
// against RunAll.

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "data/presets.h"
#include "decorators.h"
#include "detect/batched_detector.h"
#include "detect/simulated_detector.h"
#include "exec/multi_query_runner.h"
#include "exec/pipeline.h"
#include "obs/metrics.h"
#include "spans.h"
#include "track/discriminator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {
namespace {

namespace core = exsample::core;
namespace exec = exsample::exec;
namespace detect = exsample::detect;
namespace track = exsample::track;

/// Frames per Step call: fine enough that time to first result and the
/// deadline cut are resolved to a few frames.
constexpr int64_t kSliceFrames = 8;
/// Set-up (dataset generation) takes milliseconds; its median over this
/// many repeats is steady.
constexpr int kSetupRepeats = 61;

struct EngineWorkload {
  std::string preset;
  double scale = 1.0;
  /// Query `id` of the workload (classes, policy, execution path).
  std::function<exec::QueryJob(const exsample::data::Dataset&, int64_t)> make_job;
  /// Short label of job `id` for per-kind breakdowns (policy or path).
  std::function<std::string(int64_t)> kind;
};

struct QueryRecord {
  int64_t id = 0;
  std::string kind;
  std::string policy;
  bool pipelined = false;
  bool completed = false;
  bool reached_k = false;
  int64_t frames = 0;
  double wall_s = 0.0;
  double ttfr_s = -1.0;
  double decode_s = 0.0;
  double inference_s = 0.0;
  int64_t live_tracks = 0;
  uint64_t detector_seed = 0;
  uint64_t fingerprint = 0;
  std::vector<detect::Detection> results;
};

struct Phase {
  std::vector<QueryRecord> queries;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t frames = 0;
  int64_t pipelined_frames = 0;
};

/// Runs the closed loop for `seconds`: `threads` workers each take the next
/// job id and drive it until it finishes or the deadline passes.
Phase Drive(const EngineWorkload& w, const exsample::data::Dataset& ds,
            uint64_t seed, double seconds, int threads, bool traced,
            const exec::PipelineMetrics* pipeline_metrics) {
  std::atomic<int64_t> next_id{0};
  std::vector<std::vector<QueryRecord>> per_thread(static_cast<size_t>(threads));
  SpanRecorder& rec = SpanRecorder::Get();
  const int step_name = rec.Intern("core.step");
  const int frames_name = rec.Intern("frames");
  const double cpu0 = CpuNow();
  const double t0 = WallNow();
  const double deadline = t0 + seconds;
  std::vector<double> stop_times(static_cast<size_t>(threads), t0);

  auto worker = [&](int t) {
    while (WallNow() < deadline) {
      const int64_t id = next_id.fetch_add(1);
      // A query's time starts at submission: building its source, detector
      // and discriminator is part of what the caller waits for.
      const double start = WallNow();
      exec::QueryJob job = w.make_job(ds, id);
      // The RunAll seed split: engine and detector streams from JobSeed.
      exsample::SplitMix64 stream(exec::MultiQueryRunner::JobSeed(seed, id));
      const uint64_t engine_seed = stream.Next();
      const uint64_t detector_seed = stream.Next();

      std::unique_ptr<detect::ObjectDetector> detector =
          job.make_detector(detector_seed);
      std::unique_ptr<track::Discriminator> discriminator =
          job.make_discriminator();
      std::unique_ptr<core::FrameSource> source =
          core::MakeFrameSource(job.config, *job.repo, job.chunks);
      track::Discriminator* bare_discriminator = discriminator.get();
      const std::string policy = core::PolicyKindName(job.config.policy);
      if (traced) {
        detector = std::make_unique<TracedDetector>(std::move(detector));
        discriminator =
            std::make_unique<TracedDiscriminator>(std::move(discriminator));
        source = std::make_unique<TracedFrameSource>(std::move(source), policy);
      }
      // Executors outlive the engine (its destructor may abort a batch).
      std::unique_ptr<detect::SerialDetectorAdapter> batched;
      std::unique_ptr<exec::Pipeline> pipeline;
      std::unique_ptr<TracedExecutor> traced_executor;
      core::QueryEngine engine(job.repo, std::move(source), detector.get(),
                               discriminator.get(), job.config, engine_seed);
      if (job.pipeline_depth > 0) {
        batched = std::make_unique<detect::SerialDetectorAdapter>(detector.get());
        exec::PipelineOptions popt;
        popt.queue_depth = job.pipeline_depth;
        popt.detect_batch = job.detect_batch;
        popt.decode_threads = job.pipeline_threads;
        popt.wall_scale = 0.0;
        pipeline = std::make_unique<exec::Pipeline>(
            job.repo, batched.get(), popt, pipeline_metrics,
            static_cast<size_t>(t));
        core::BatchExecutor* executor = pipeline.get();
        if (traced) {
          traced_executor = std::make_unique<TracedExecutor>(pipeline.get());
          executor = traced_executor.get();
        }
        engine.set_executor(executor);
      }

      QueryRecord q;
      q.id = id;
      q.kind = w.kind(id);
      q.policy = policy;
      q.pipelined = job.pipeline_depth > 0;
      q.detector_seed = detector_seed;
      if (traced) SpanRecorder::SetQuery(id);
      engine.Begin(job.spec);
      core::StepStatus status;
      while (true) {
        if (traced) {
          SpanRecorder::Span span(step_name);
          status = engine.Step(kSliceFrames);
        } else {
          status = engine.Step(kSliceFrames);
        }
        const double now = WallNow();
        if (q.ttfr_s < 0.0 && status.total_results > 0) q.ttfr_s = now - start;
        if (!status.running()) {
          q.completed = true;
          q.wall_s = now - start;
          break;
        }
        if (now >= deadline) break;
      }
      q.reached_k = status.done == core::StepStatus::Done::kLimitReached;
      core::QueryResult result = engine.TakeResult();
      q.frames = result.frames_processed;
      q.decode_s = result.decode_seconds;
      q.inference_s = result.inference_seconds;
      q.live_tracks = bare_discriminator->num_distinct();
      q.fingerprint = Fingerprint(result.results);
      q.results = std::move(result.results);
      if (traced) {
        rec.Count(frames_name, q.frames);
        rec.Count(rec.Intern("frames." + q.policy), q.frames);
        if (q.pipelined) rec.Count(rec.Intern("frames.pipelined"), q.frames);
      }
      per_thread[static_cast<size_t>(t)].push_back(std::move(q));
    }
    stop_times[static_cast<size_t>(t)] = WallNow();
  };

  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();

  Phase phase;
  double stop = t0;
  for (double s : stop_times) stop = std::max(stop, s);
  phase.wall_s = stop - t0;
  phase.cpu_s = CpuNow() - cpu0;
  for (auto& list : per_thread) {
    for (QueryRecord& q : list) {
      phase.frames += q.frames;
      if (q.pipelined) phase.pipelined_frames += q.frames;
      phase.queries.push_back(std::move(q));
    }
  }
  std::sort(phase.queries.begin(), phase.queries.end(),
            [](const QueryRecord& a, const QueryRecord& b) { return a.id < b.id; });
  return phase;
}

/// Fills the gated end-to-end metrics from an untraced phase.
void ReportEndToEnd(const Phase& p, double setup_s, Outcome* out) {
  std::map<std::string, std::vector<double>> wall_ms, ttfr_ms, frames_to_k, modeled_to_k;
  std::vector<double> all_wall_ms;
  int64_t completed_frames = 0;
  int64_t reached_k = 0;
  for (const QueryRecord& q : p.queries) {
    if (q.ttfr_s >= 0.0) ttfr_ms[q.kind].push_back(1e3 * q.ttfr_s);
    if (!q.completed) continue;
    wall_ms[q.kind].push_back(1e3 * q.wall_s);
    all_wall_ms.push_back(1e3 * q.wall_s);
    completed_frames += q.frames;
    if (q.reached_k) {
      ++reached_k;
      frames_to_k[q.kind].push_back(static_cast<double>(q.frames));
      modeled_to_k[q.kind].push_back(q.decode_s + q.inference_s);
    }
  }
  const double fps = static_cast<double>(p.frames) / p.wall_s;
  // Closed-loop throughput in queries: frame throughput over the mean
  // size of a completed query, so queries cut at the deadline count by
  // the work they did instead of flipping the count by one.
  const double mean_frames =
      all_wall_ms.empty() ? 0.0
                          : static_cast<double>(completed_frames) /
                                static_cast<double>(all_wall_ms.size());
  out->Set("setup_s", setup_s, "s", "wall");
  out->Set("frames_per_s", fps, "1/s", "wall");
  out->Set("queries_per_s", mean_frames > 0.0 ? fps / mean_frames : 0.0, "1/s",
           "wall");
  out->Set("cpu_us_per_frame", 1e6 * p.cpu_s / static_cast<double>(p.frames),
           "us", "cpu");
  out->Extra("query_ms_p50", BalancedMedian(wall_ms), "ms", "wall");
  out->Extra("ttfr_ms_p50", BalancedMedian(ttfr_ms), "ms", "wall");
  out->Set("modeled_s_to_k", BalancedMedian(modeled_to_k), "s", "modeled");
  out->Set("frames_to_k", BalancedMedian(frames_to_k), "count", "modeled");
  out->Set("peak_rss_mb", PeakRssMb(), "MB", "memory");
  if (all_wall_ms.size() >= 100) {
    out->Extra("query_ms_p90", exsample::Percentile(all_wall_ms, 0.9), "ms", "wall");
  }
  Json per_kind = Json::Object();
  for (const auto& [kind, values] : wall_ms) {
    per_kind.Set(kind, Json::Object()
                           .Set("completed", static_cast<int64_t>(values.size()))
                           .Set("query_ms_p50", Median(values))
                           .Set("frames_to_k_p50", Median(frames_to_k[kind])));
  }
  out->notes.Set("per_kind", std::move(per_kind));
  out->Extra("failed_frac", 0.0, "ratio", "count");
  out->notes.Set("completed_queries", static_cast<int64_t>(all_wall_ms.size()))
      .Set("queries_started", static_cast<int64_t>(p.queries.size()))
      .Set("queries_reaching_k", reached_k)
      .Set("measured_wall_s", p.wall_s)
      .Set("frames", p.frames);
}

/// The correctness gate: every result valid against ground truth, a sample
/// (the lowest completed id of each kind) bit-identical to RunAll, and —
/// when `other` is given — every query completed in both phases
/// fingerprint-identical (decorators are RNG-neutral).
void Gate(const EngineWorkload& w, const exsample::data::Dataset& ds,
          uint64_t seed, const Phase& p, const Phase* other,
          std::vector<detect::ClassId> classes, Outcome* out) {
  ResultValidator validator(&ds, classes);
  for (const QueryRecord& q : p.queries) {
    ++out->attempted;
    if (!q.completed) continue;  // cut at the deadline: not a failure
    exec::QueryJob job = w.make_job(ds, q.id);
    std::vector<std::string> errors;
    const int64_t bad = validator.Check(
        q.results, [&] { return job.make_detector(q.detector_seed); },
        /*compare_instance=*/true, &errors);
    if (bad > 0) {
      ++out->failed;
      for (const std::string& e : errors) out->Error("query " + std::to_string(q.id) + ": " + e);
    }
  }
  out->notes.Set("results_checked", validator.checked())
      .Set("detector_false_positives", validator.false_positives());

  std::map<std::string, const QueryRecord*> sample;
  for (const QueryRecord& q : p.queries) {
    if (q.completed && sample.count(q.kind) == 0) sample[q.kind] = &q;
  }
  std::vector<exec::QueryJob> jobs;
  for (const auto& [kind, q] : sample) {
    jobs.push_back(w.make_job(ds, q->id));
    jobs.back().id = q->id;
  }
  exec::MultiQueryRunner::Options options;
  options.threads = static_cast<size_t>(HostThreads());
  options.base_seed = seed;
  const std::vector<exec::JobResult> reference =
      exec::MultiQueryRunner(options).RunAll(jobs);
  Json pinned = Json::Array();
  size_t i = 0;
  for (const auto& [kind, q] : sample) {
    const uint64_t expect = Fingerprint(reference[i].result.results);
    const bool same = expect == q->fingerprint &&
                      reference[i].result.frames_processed == q->frames;
    if (!same) {
      out->Error("query " + std::to_string(q->id) + " (" + kind +
                 ") differs from MultiQueryRunner::RunAll: " + Hex(q->fingerprint) +
                 " vs " + Hex(expect));
    }
    pinned.Append(Json::Object().Set("id", q->id).Set("kind", kind).Set(
        "fingerprint", Hex(q->fingerprint)));
    ++i;
  }
  out->notes.Set("runall_checked", std::move(pinned));

  if (other != nullptr) {
    std::map<int64_t, const QueryRecord*> by_id;
    for (const QueryRecord& q : other->queries) {
      if (q.completed) by_id[q.id] = &q;
    }
    int64_t compared = 0;
    std::set<std::string> kinds;
    for (const QueryRecord& q : p.queries) {
      auto it = by_id.find(q.id);
      if (!q.completed || it == by_id.end()) continue;
      ++compared;
      kinds.insert(q.kind);
      if (it->second->fingerprint != q.fingerprint ||
          it->second->frames != q.frames) {
        out->Error("query " + std::to_string(q.id) +
                   " differs between the traced and untraced runs");
      }
    }
    Json kind_list = Json::Array();
    for (const std::string& k : kinds) kind_list.Append(k);
    out->notes.Set("traced_vs_untraced_compared", compared)
        .Set("traced_vs_untraced_kinds", std::move(kind_list));
    if (compared == 0) {
      out->Error("no query completed in both the traced and untraced phases");
    }
  }
}

/// Per-layer metrics of the traced phase.
void ReportLayers(const Phase& traced, const Phase& untraced,
                  const exsample::obs::Registry& registry, double generate_s,
                  Outcome* out) {
  const double frames = static_cast<double>(std::max<int64_t>(traced.frames, 1));
  const double us = 1e-3;  // ns -> us
  out->Layer("core.pick_us_per_frame", us * SelfNs("core.pick.") / frames, "us");
  for (const char* policy : {"thompson", "hier_thompson", "bayes_ucb"}) {
    const double f = static_cast<double>(Counted(std::string("frames.") + policy));
    out->Layer(std::string("core.pick_us_per_frame.") + policy,
               f > 0 ? us * SelfNs(std::string("core.pick.") + policy) / f : 0.0,
               "us");
  }
  out->Layer("core.pick_calls", static_cast<double>(Calls("core.pick.")), "count");
  out->Layer("core.feedback_us_per_frame", us * SelfNs("core.feedback") / frames, "us");
  out->Layer("core.engine_self_us_per_frame", us * SelfNs("core.step") / frames, "us");
  out->Layer("core.new_results_per_frame",
             static_cast<double>(Counted("track.get_matches")) / frames, "ratio");
  out->Layer("detect.us_per_frame", us * SelfNs("detect.detect") / frames, "us");
  out->Layer("detect.detections_per_frame",
             static_cast<double>(Counted("detect.detect")) / frames, "ratio");
  out->Layer("track.match_us_per_frame",
             us * (SelfNs("track.get_matches") + SelfNs("track.add")) / frames, "us");
  double decode_s = 0.0, inference_s = 0.0;
  std::vector<double> live;
  for (const QueryRecord& q : traced.queries) {
    decode_s += q.decode_s;
    inference_s += q.inference_s;
    live.push_back(static_cast<double>(q.live_tracks));
  }
  out->Layer("track.live_tracks_at_end", Mean(live), "count");
  out->Layer("video.decode_modeled_s_per_frame", decode_s / frames, "s");
  out->Layer("detect.inference_modeled_s_per_frame", inference_s / frames, "s");
  const double pf = static_cast<double>(traced.pipelined_frames);
  const int64_t begin_calls = Calls("exec.begin_batch");
  out->Layer("exec.begin_batch_us",
             begin_calls > 0 ? us * SelfNs("exec.begin_batch") / begin_calls : 0.0,
             "us");
  out->Layer("exec.await_us_per_frame", pf > 0 ? us * SelfNs("exec.await") / pf : 0.0,
             "us");
  const Json snap = registry.Snapshot();
  const double decoded = SnapshotCounter(snap, "pipeline.frames_decoded");
  out->Layer("pipeline.stalls_detector_starved_per_frame",
             pf > 0 ? SnapshotCounter(snap, "pipeline.stalls_detector_starved") / pf : 0.0,
             "ratio");
  out->Layer("pipeline.stalls_queue_full_per_frame",
             pf > 0 ? SnapshotCounter(snap, "pipeline.stalls_queue_full") / pf : 0.0,
             "ratio");
  out->Layer("pipeline.plan_coalesced_frac",
             decoded > 0 ? SnapshotCounter(snap, "pipeline.plan_coalesced_frames") / decoded
                         : 0.0,
             "ratio");
  out->Layer("data.generate_s", generate_s, "s");
  const double fps_traced = static_cast<double>(traced.frames) / traced.wall_s;
  const double fps_untraced = static_cast<double>(untraced.frames) / untraced.wall_s;
  out->Layer("obs.trace_overhead_frac", 1.0 - fps_traced / fps_untraced, "ratio");

  // Attribution check: self times of the spans under core.step add up to
  // the traced Step wall time.
  const int64_t step_total = [] {
    for (const auto& [name, s] : SpanRecorder::Get().Collect()) {
      if (name == "core.step") return s.total_ns;
    }
    return int64_t{0};
  }();
  const int64_t attributed = SelfNs("core.") + SelfNs("detect.") +
                             SelfNs("track.") + SelfNs("exec.");
  out->notes.Set("step_wall_ms", 1e-6 * static_cast<double>(step_total))
      .Set("attributed_self_ms", 1e-6 * static_cast<double>(attributed))
      .Set("traced_frames", traced.frames)
      .Set("untraced_frames_per_s", fps_untraced)
      .Set("traced_frames_per_s", fps_traced);
}

void RunEngineWorkload(const EngineWorkload& w, std::vector<std::string> class_names,
                       const RunConfig& cfg, Outcome* out) {
  // Set-up: dataset generation, repeated so its median is steady.
  std::unique_ptr<exsample::data::Dataset> ds;
  const double setup_s = Median(TimeSetUp(kSetupRepeats, [&] { ds.reset(); }, [&] {
    ds = std::make_unique<exsample::data::Dataset>(
        exsample::data::MakePreset(w.preset, w.scale, kRepositorySeed));
  }));
  std::vector<detect::ClassId> classes;
  for (const std::string& name : class_names) {
    classes.push_back(ds->FindClass(name)->class_id);
  }
  const int threads = HostThreads();
  out->threads["engine_workers"] = threads;
  out->notes.Set("preset", w.preset).Set("scale", w.scale)
      .Set("frames_in_repo", ds->repo.total_frames())
      .Set("chunks", static_cast<int64_t>(ds->chunks.size()));

  if (!cfg.trace) {
    const Phase p = Drive(w, *ds, cfg.seed, cfg.seconds, threads, false, nullptr);
    ReportEndToEnd(p, setup_s, out);
    Gate(w, *ds, cfg.seed, p, nullptr, classes, out);
    return;
  }
  // Traced run: an untraced half (the overhead baseline) then a traced
  // half over the same job sequence.
  const Phase bare = Drive(w, *ds, cfg.seed, cfg.seconds / 2, threads, false, nullptr);
  exsample::obs::Registry registry;
  const exec::PipelineMetrics pmetrics =
      exec::PipelineMetrics::Register(&registry, static_cast<size_t>(threads));
  SpanRecorder::Get().Reset(kSpanRecordCap);
  const Phase traced =
      Drive(w, *ds, cfg.seed, cfg.seconds / 2, threads, true, &pmetrics);
  ReportLayers(traced, bare, registry, setup_s, out);
  out->self_time_table = SelfTimeTable("self time by span, workload " + cfg.workload);
  Gate(w, *ds, cfg.seed, traced, &bare, classes, out);
}

exec::QueryJob BaseJob(const exsample::data::Dataset& ds, detect::ClassId cls,
                       int64_t limit, int64_t id) {
  exec::QueryJob job;
  job.id = id;
  job.repo = &ds.repo;
  job.chunks = &ds.chunks;
  job.spec.class_id = cls;
  job.spec.result_limit = limit;
  // The detector and discriminator the CLI and the serve protocol build.
  job.make_detector = [&ds, cls](uint64_t seed) {
    return std::make_unique<detect::SimulatedDetector>(
        &ds.ground_truth, cls, detect::DetectorConfig{}, seed);
  };
  job.make_discriminator = [] {
    return std::make_unique<track::TrackerDiscriminator>();
  };
  return job;
}

const std::vector<std::string> kSparseBdd = {"bike", "bus", "motor", "rider", "truck"};
const core::PolicyKind kPolicies[3] = {core::PolicyKind::kThompson,
                                       core::PolicyKind::kHierThompson,
                                       core::PolicyKind::kBayesUcb};

}  // namespace

void RunManyChunks(const RunConfig& cfg, Outcome* out) {
  EngineWorkload w;
  w.preset = "bdd1k";
  w.make_job = [](const exsample::data::Dataset& ds, int64_t id) {
    const std::string& name = kSparseBdd[static_cast<size_t>(id) % kSparseBdd.size()];
    exec::QueryJob job = BaseJob(ds, ds.FindClass(name)->class_id, 100, id);
    job.config.policy = kPolicies[id % 3];
    return job;
  };
  w.kind = [](int64_t id) { return core::PolicyKindName(kPolicies[id % 3]); };
  out->notes.Set("k", 100).Set("policies", "thompson,hier_thompson,bayes_ucb")
      .Set("classes", "bike,bus,motor,rider,truck");
  RunEngineWorkload(w, kSparseBdd, cfg, out);
}

void RunDenseTracks(const RunConfig& cfg, Outcome* out) {
  EngineWorkload w;
  w.preset = "archie";
  w.make_job = [](const exsample::data::Dataset& ds, int64_t id) {
    exec::QueryJob job = BaseJob(ds, ds.FindClass("car")->class_id, 10000, id);
    job.config.policy = core::PolicyKind::kThompson;
    if (id % 2 == 1) {
      job.pipeline_depth = 2;
      job.detect_batch = 8;
      job.pipeline_threads = 1;
    }
    return job;
  };
  w.kind = [](int64_t id) { return std::string(id % 2 == 1 ? "pipelined" : "serial"); };
  out->threads["pipeline_decode_threads_per_query"] = 1;
  out->notes.Set("k", 10000).Set("policy", "thompson").Set("pipeline_depth", 2)
      .Set("detect_batch", 8);
  RunEngineWorkload(w, {"car"}, cfg, out);
}

}  // namespace perfbench
