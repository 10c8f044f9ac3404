// Tracing decorators at the public interfaces the program already exposes.
//
// Each decorator forwards every call unchanged to the wrapped object and
// records one span per call (plus counts at the same boundary). None of
// them touches an RNG or alters an argument, so a decorated query produces
// the same result stream as a bare one; the correctness gate checks that
// by fingerprint.
//
//   core::FrameSource      TracedFrameSource    core.pick.<policy>, core.feedback
//   detect::ObjectDetector TracedDetector       detect.detect
//   track::Discriminator   TracedDiscriminator  track.get_matches, track.add
//   core::BatchExecutor    TracedExecutor       exec.begin_batch, exec.await
//   dist::ShardBackend     TracedShardBackend   dist.rpc.<verb>
//   net::Client::Call      RpcClient            net.rtt.<verb>

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/frame_source.h"
#include "detect/detector.h"
#include "dist/coordinator.h"
#include "net/client.h"
#include "spans.h"
#include "track/discriminator.h"

namespace perfbench {

class TracedFrameSource : public exsample::core::FrameSource {
 public:
  TracedFrameSource(std::unique_ptr<exsample::core::FrameSource> inner,
                    const std::string& policy)
      : inner_(std::move(inner)),
        pick_(SpanRecorder::Get().Intern("core.pick." + policy)),
        feedback_(SpanRecorder::Get().Intern("core.feedback")) {}

  int64_t remaining() const override { return inner_->remaining(); }
  std::vector<exsample::core::PickedFrame> NextBatch(
      int64_t want, exsample::Rng* rng) override {
    SpanRecorder::Span span(pick_);
    std::vector<exsample::core::PickedFrame> picks =
        inner_->NextBatch(want, rng);
    SpanRecorder::Get().Count(pick_, static_cast<int64_t>(picks.size()));
    return picks;
  }
  void OnFeedback(const exsample::core::PickedFrame& pick,
                  const exsample::track::MatchResult& match) override {
    SpanRecorder::Span span(feedback_);
    inner_->OnFeedback(pick, match);
  }
  void OnFrameCost(const exsample::core::PickedFrame& pick,
                   double seconds) override {
    SpanRecorder::Span span(feedback_);
    inner_->OnFrameCost(pick, seconds);
  }
  const exsample::core::ChunkStats* chunk_stats() const override {
    return inner_->chunk_stats();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<exsample::core::FrameSource> inner_;
  const int pick_;
  const int feedback_;
};

class TracedDetector : public exsample::detect::ObjectDetector {
 public:
  explicit TracedDetector(std::unique_ptr<exsample::detect::ObjectDetector> inner)
      : inner_(std::move(inner)),
        detect_(SpanRecorder::Get().Intern("detect.detect")) {}

  std::vector<exsample::detect::Detection> Detect(
      exsample::video::FrameId frame) override {
    SpanRecorder::Span span(detect_);
    std::vector<exsample::detect::Detection> dets = inner_->Detect(frame);
    SpanRecorder::Get().Count(detect_, static_cast<int64_t>(dets.size()));
    return dets;
  }
  double InferenceSeconds() const override { return inner_->InferenceSeconds(); }
  int64_t frames_processed() const override { return inner_->frames_processed(); }

 private:
  std::unique_ptr<exsample::detect::ObjectDetector> inner_;
  const int detect_;
};

class TracedDiscriminator : public exsample::track::Discriminator {
 public:
  explicit TracedDiscriminator(
      std::unique_ptr<exsample::track::Discriminator> inner)
      : inner_(std::move(inner)),
        match_(SpanRecorder::Get().Intern("track.get_matches")),
        add_(SpanRecorder::Get().Intern("track.add")) {}

  exsample::track::MatchResult GetMatches(
      exsample::video::FrameId frame,
      const std::vector<exsample::detect::Detection>& dets) const override {
    SpanRecorder::Span span(match_);
    exsample::track::MatchResult match = inner_->GetMatches(frame, dets);
    SpanRecorder::Get().Count(match_, static_cast<int64_t>(match.d0.size()));
    return match;
  }
  void Add(exsample::video::FrameId frame,
           const std::vector<exsample::detect::Detection>& dets) override {
    SpanRecorder::Span span(add_);
    inner_->Add(frame, dets);
  }
  int64_t num_distinct() const override { return inner_->num_distinct(); }

 private:
  std::unique_ptr<exsample::track::Discriminator> inner_;
  const int match_;
  const int add_;
};

class TracedExecutor : public exsample::core::BatchExecutor {
 public:
  explicit TracedExecutor(exsample::core::BatchExecutor* inner)
      : inner_(inner),
        begin_(SpanRecorder::Get().Intern("exec.begin_batch")),
        await_(SpanRecorder::Get().Intern("exec.await")),
        abort_(SpanRecorder::Get().Intern("exec.abort")) {}

  void BeginBatch(const std::vector<exsample::core::PickedFrame>& picks,
                  exsample::video::SimulatedDecoder* decoder) override {
    SpanRecorder::Span span(begin_);
    inner_->BeginBatch(picks, decoder);
  }
  exsample::core::FrameWork Await(size_t pick_index) override {
    SpanRecorder::Span span(await_);
    return inner_->Await(pick_index);
  }
  void Abort() override {
    SpanRecorder::Span span(abort_);
    inner_->Abort();
  }

 private:
  exsample::core::BatchExecutor* const inner_;
  const int begin_;
  const int await_;
  const int abort_;
};

/// Wraps a ShardBackend. RPCs run on the coordinator's per-worker dispatch
/// threads, so each span names its query and parent explicitly; RPC
/// intervals are kept per query for the in-flight union (rpc_busy_frac).
/// With `traced` false it records nothing but the wall time of the first
/// pick reply that carries a result (the dist time-to-first-result).
class TracedShardBackend : public exsample::dist::ShardBackend {
 public:
  TracedShardBackend(exsample::dist::ShardBackend* inner, bool traced)
      : inner_(inner), traced_(traced) {
    SpanRecorder& rec = SpanRecorder::Get();
    open_ = rec.Intern("dist.rpc.open");
    pick_ = rec.Intern("dist.rpc.pick");
    stats_ = rec.Intern("dist.rpc.stats");
    report_ = rec.Intern("dist.rpc.report");
  }

  /// Starts a new query: spans carry `query` and `parent`.
  void BeginQuery(int64_t query, int64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    query_ = query;
    parent_ = parent;
    first_result_ns_ = 0;
    intervals_.clear();
  }
  int64_t first_result_ns() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_result_ns_;
  }
  /// [start, end) of every RPC of the current query (traced only).
  std::vector<std::pair<int64_t, int64_t>> intervals(bool picks_only) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Interval& i : intervals_) {
      if (!picks_only || i.pick) out.emplace_back(i.start, i.end);
    }
    return out;
  }
  /// Per-verb RTT samples in microseconds (traced only).
  std::map<std::string, std::vector<double>> rtt_us() {
    std::lock_guard<std::mutex> lock(mu_);
    return rtt_us_;
  }

  int num_workers() const override { return inner_->num_workers(); }
  int WorkerOf(int32_t shard) const override { return inner_->WorkerOf(shard); }
  exsample::Result<exsample::dist::OpenReply> Open(
      int32_t shard, const exsample::dist::ShardSpec& spec) override {
    return Timed(open_, "open", [&] { return inner_->Open(shard, spec); });
  }
  exsample::Result<exsample::dist::PickReply> Pick(int32_t shard,
                                                   int64_t frames) override {
    auto reply = Timed(pick_, "pick", [&] { return inner_->Pick(shard, frames); });
    if (reply.ok() && !reply.value().new_results.empty()) {
      const int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(mu_);
      if (first_result_ns_ == 0) first_result_ns_ = now;
    }
    return reply;
  }
  exsample::Result<exsample::dist::StatsReply> Stats(int32_t shard) override {
    return Timed(stats_, "stats", [&] { return inner_->Stats(shard); });
  }
  exsample::Result<exsample::dist::ReportReply> Report(int32_t shard) override {
    return Timed(report_, "report", [&] { return inner_->Report(shard); });
  }
  exsample::Status Revive(int worker) override { return inner_->Revive(worker); }

 private:
  template <typename Fn>
  auto Timed(int name, const char* verb, Fn&& fn) -> decltype(fn()) {
    if (!traced_) return fn();
    int64_t query;
    int64_t parent;
    {
      std::lock_guard<std::mutex> lock(mu_);
      query = query_;
      parent = parent_;
    }
    const int64_t start = NowNs();
    auto reply = [&] {
      SpanRecorder::Span span(name, query, parent);
      return fn();
    }();
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    rtt_us_[verb].push_back(1e-3 * static_cast<double>(end - start));
    intervals_.push_back({start, end, name == pick_});
    return reply;
  }

  exsample::dist::ShardBackend* const inner_;
  const bool traced_;
  int open_ = 0, pick_ = 0, stats_ = 0, report_ = 0;
  std::mutex mu_;
  int64_t query_ = -1;
  int64_t parent_ = -1;
  int64_t first_result_ns_ = 0;
  struct Interval {
    int64_t start;
    int64_t end;
    bool pick;
  };
  std::vector<Interval> intervals_;
  std::map<std::string, std::vector<double>> rtt_us_;
};

/// net::Client with a per-verb span around Call (traced runs only). One
/// instance per connection, used by one load-generator thread.
class RpcClient {
 public:
  RpcClient(exsample::net::Client client, bool traced)
      : client_(std::move(client)), traced_(traced) {}

  exsample::Result<exsample::Json> Call(const exsample::Json& request) {
    if (!traced_) return client_.Call(request);
    const std::string verb = request.GetString("cmd", "?");
    auto it = names_.find(verb);
    if (it == names_.end()) {
      it = names_.emplace(verb, SpanRecorder::Get().Intern("net.rtt." + verb))
               .first;
    }
    const int64_t start = NowNs();
    exsample::Result<exsample::Json> reply = [&] {
      SpanRecorder::Span span(it->second);
      return client_.Call(request);
    }();
    rtt_us_[verb].push_back(1e-3 * static_cast<double>(NowNs() - start));
    return reply;
  }
  const std::map<std::string, std::vector<double>>& rtt_us() const {
    return rtt_us_;
  }

 private:
  exsample::net::Client client_;
  const bool traced_;
  std::map<std::string, int> names_;
  std::map<std::string, std::vector<double>> rtt_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
