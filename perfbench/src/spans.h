// In-memory span recorder for the traced benchmark run.
//
// A span is one decorated call into a layer: name, start, end, the span
// that caused it, and the query (or session) id shared by every span of one
// query. Spans nest through a per-thread stack; a span opened on another
// thread (dist RPC dispatch threads) names its parent explicitly.
//
// Self time is accumulated as spans close: a span's self time is its
// duration minus the durations of its direct children on the same thread,
// so the self times of a span tree add up exactly to its root's duration.
// Aggregates are per name and never dropped; individual span records are
// kept up to a cap and written out at the end as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
//
// Writers touch only their own thread buffer; buffers are owned by the
// recorder and recycled when a thread exits, so short-lived dispatch
// threads do not grow memory.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  /// The process-wide recorder.
  static SpanRecorder& Get();

  /// Interns a span or counter name; ids are stable for the process.
  int Intern(const std::string& name);

  /// Clears every buffer and starts keeping up to `span_cap` span records.
  /// Call only while no span is open on any thread.
  void Reset(int64_t span_cap);

  /// Adds `n` to the named counter on the calling thread.
  void Count(int name, int64_t n);

  /// The calling thread's current query id (spans opened without an
  /// explicit id inherit it).
  static void SetQuery(int64_t query);

  /// RAII span. `query` < 0 inherits the thread's query id; `parent` < 0
  /// uses the innermost open span of this thread.
  class Span {
   public:
    explicit Span(int name, int64_t query = -1, int64_t parent = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Global id of this span's record (-1 once the record cap is hit).
    int64_t id() const { return id_; }

   private:
    int64_t id_ = -1;
  };

  struct NameStats {
    int64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    int64_t count = 0;  ///< Count() total for this name
  };
  /// Per-name totals over every thread (call once the work has stopped).
  std::map<std::string, NameStats> Collect() const;

  /// Writes the kept span records as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

  int64_t recorded() const { return stored_.load(); }
  int64_t dropped() const { return dropped_.load(); }

  struct Buffer;

 private:
  SpanRecorder() = default;
  Buffer* Acquire();
  void Release(Buffer* buffer);
  friend struct ThreadHandle;
  static Buffer* Local();

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<Buffer*> free_;
  int64_t span_cap_ = 0;
  std::atomic<int64_t> stored_{0};
  std::atomic<int64_t> dropped_{0};
};

/// Span records a traced run keeps for its span file (~140 bytes each in
/// the Chrome JSON); aggregates cover every span regardless.
constexpr int64_t kSpanRecordCap = 100000;

/// Nanoseconds on the steady clock.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
