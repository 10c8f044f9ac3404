// exbench: the repository benchmark binary.
//
//   exbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload (many_chunks | dense_tracks | serve_open_loop |
// dist_small_rounds), writes a report, the self-time table and (traced) a
// Chrome trace-event span file under DIR, and prints the full outcome as
// one JSON object on the last line of stdout. perfbench/run.py turns that
// into the benchmark's result line. Exit code 1 when the correctness gate
// fails or the open loop was invalid, 2 on bad arguments.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

Json Provenance(const RunConfig& cfg, const Outcome& out) {
  Json threads = Json::Object();
  for (const auto& [name, n] : out.threads) threads.Set(name, n);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  const bool fit = !asserts && !Sanitized() &&
                   (build_type == "Release" || build_type == "RelWithDebInfo");
  return Json::Object()
      .Set("workload", cfg.workload)
      .Set("seed", cfg.seed)
      .Set("seconds", cfg.seconds)
      .Set("trace", cfg.trace)
      .Set("nproc", static_cast<int64_t>(HostThreads()))
      .Set("threads", std::move(threads))
      .Set("build_type", build_type)
      .Set("asserts", asserts)
      .Set("sanitizer", Sanitized())
      .Set("compiler", Compiler())
      .Set("fit_for_comparison", fit);
}

Json MetricsJson(const std::map<std::string, Metric>& metrics) {
  Json out = Json::Object();
  for (const auto& [name, m] : metrics) {
    out.Set(name, Json::Object().Set("value", m.value).Set("unit", m.unit).Set(
                      "kind", m.kind));
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: exbench --workload many_chunks|dense_tracks|"
               "serve_open_loop|dist_small_rounds --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") cfg.workload = value;
    else if (flag == "--seed") cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") cfg.seconds = std::atof(value.c_str());
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--out-dir") cfg.out_dir = value;
    else return Usage();
  }
  if (argc % 2 == 0 || cfg.seconds <= 0.0) return Usage();

  Outcome out;
  if (cfg.workload == "many_chunks") RunManyChunks(cfg, &out);
  else if (cfg.workload == "dense_tracks") RunDenseTracks(cfg, &out);
  else if (cfg.workload == "serve_open_loop") {
    RunServeOpenLoop(cfg, &out);
    if (cfg.trace) AddDistLayers(cfg, &out);
  }
  else if (cfg.workload == "dist_small_rounds") RunDistSmallRounds(cfg, &out);
  else return Usage();

  const bool correct = out.errors.empty() && out.invalid.empty();
  Json errors = Json::Array();
  for (const std::string& e : out.errors) errors.Append(e);
  Json invalid = Json::Array();
  for (const std::string& e : out.invalid) invalid.Append(e);
  Json report = Json::Object()
                    .Set("correct", correct)
                    .Set("attempted", out.attempted)
                    .Set("failed", out.failed)
                    .Set("errors", std::move(errors))
                    .Set("invalid", std::move(invalid))
                    .Set("provenance", Provenance(cfg, out))
                    // An invalid open-loop run reports no latencies.
                    .Set("e2e", out.invalid.empty() ? MetricsJson(out.e2e) : Json::Object())
                    .Set("extra", out.invalid.empty() ? MetricsJson(out.extra) : Json::Object())
                    .Set("layer", MetricsJson(out.layer))
                    .Set("notes", out.notes);

  mkdir(cfg.out_dir.c_str(), 0755);
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + (cfg.trace ? "-traced" : "");
  if (cfg.trace) {
    const std::string span_file = stem + ".trace.json";
    if (!SpanRecorder::Get().WriteChromeTrace(span_file)) {
      std::fprintf(stderr, "warning: cannot write %s\n", span_file.c_str());
    }
    std::ofstream(stem + ".selftime.txt") << out.self_time_table;
    report.Set("span_file", span_file)
        .Set("spans_kept", SpanRecorder::Get().recorded() - SpanRecorder::Get().dropped())
        .Set("spans_dropped", SpanRecorder::Get().dropped());
    std::fprintf(stderr, "%s", out.self_time_table.c_str());
  }
  const std::string text = report.Dump();
  std::ofstream(stem + ".report.json") << text << "\n";
  for (const std::string& e : out.errors) std::fprintf(stderr, "GATE FAILURE: %s\n", e.c_str());
  for (const std::string& e : out.invalid) std::fprintf(stderr, "INVALID RUN: %s\n", e.c_str());
  std::printf("%s\n", text.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
