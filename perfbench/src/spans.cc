#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecorder::Buffer {
  struct Open {
    int name;
    int64_t start;
    int64_t child_ns;
    int64_t record;  ///< index into records, -1 when not kept
    int64_t id;
  };
  struct Record {
    int name;
    int64_t start;
    int64_t end;
    int64_t query;
    int64_t parent;
  };
  int lane = 0;
  int64_t query = -1;
  std::vector<Open> stack;
  std::vector<NameStats> acc;
  std::vector<Record> records;

  NameStats& At(int name) {
    if (static_cast<size_t>(name) >= acc.size()) acc.resize(name + 1);
    return acc[static_cast<size_t>(name)];
  }
};

/// Returns a thread's buffer to the recorder when the thread exits.
struct ThreadHandle {
  SpanRecorder::Buffer* buffer = nullptr;
  ~ThreadHandle() {
    if (buffer != nullptr) SpanRecorder::Get().Release(buffer);
  }
};

namespace {
thread_local ThreadHandle tls_handle;
}  // namespace

SpanRecorder& SpanRecorder::Get() {
  // Leaked on purpose: thread-exit handlers may run after static
  // destruction begins.
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

SpanRecorder::Buffer* SpanRecorder::Local() {
  if (tls_handle.buffer == nullptr) tls_handle.buffer = Get().Acquire();
  return tls_handle.buffer;
}

SpanRecorder::Buffer* SpanRecorder::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    Buffer* buffer = free_.back();
    free_.pop_back();
    return buffer;
  }
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->lane = static_cast<int>(buffers_.size());
  return buffers_.back().get();
}

void SpanRecorder::Release(Buffer* buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  buffer->stack.clear();
  buffer->query = -1;
  free_.push_back(buffer);
}

int SpanRecorder::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

void SpanRecorder::Reset(int64_t span_cap) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    buffer->acc.clear();
    buffer->records.clear();
    buffer->stack.clear();
  }
  span_cap_ = span_cap;
  stored_ = 0;
  dropped_ = 0;
}

void SpanRecorder::Count(int name, int64_t n) { Local()->At(name).count += n; }

void SpanRecorder::SetQuery(int64_t query) { Local()->query = query; }

SpanRecorder::Span::Span(int name, int64_t query, int64_t parent) {
  SpanRecorder& recorder = Get();
  Buffer* buffer = Local();
  if (parent < 0 && !buffer->stack.empty()) parent = buffer->stack.back().id;
  if (query < 0) query = buffer->query;
  int64_t record = -1;
  if (recorder.stored_.fetch_add(1, std::memory_order_relaxed) <
      recorder.span_cap_) {
    record = static_cast<int64_t>(buffer->records.size());
    buffer->records.push_back({name, 0, 0, query, parent});
    id_ = (static_cast<int64_t>(buffer->lane) << 40) | record;
  } else {
    recorder.dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  const int64_t start = NowNs();
  if (record >= 0) buffer->records[static_cast<size_t>(record)].start = start;
  buffer->stack.push_back({name, start, 0, record, id_});
}

SpanRecorder::Span::~Span() {
  const int64_t end = NowNs();
  Buffer* buffer = Local();
  const Buffer::Open open = buffer->stack.back();
  buffer->stack.pop_back();
  const int64_t duration = end - open.start;
  NameStats& stats = buffer->At(open.name);
  ++stats.calls;
  stats.total_ns += duration;
  stats.self_ns += duration - open.child_ns;
  if (!buffer->stack.empty()) buffer->stack.back().child_ns += duration;
  if (open.record >= 0) {
    buffer->records[static_cast<size_t>(open.record)].end = end;
  }
}

std::map<std::string, SpanRecorder::NameStats> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, NameStats> out;
  for (const auto& buffer : buffers_) {
    for (size_t i = 0; i < buffer->acc.size(); ++i) {
      const NameStats& s = buffer->acc[i];
      if (s.calls == 0 && s.count == 0) continue;
      NameStats& total = out[names_[i]];
      total.calls += s.calls;
      total.total_ns += s.total_ns;
      total.self_ns += s.self_ns;
      total.count += s.count;
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t epoch = INT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const auto& r : buffer->records) {
      if (r.end > 0 && r.start < epoch) epoch = r.start;
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (size_t i = 0; i < buffer->records.size(); ++i) {
      const Buffer::Record& r = buffer->records[i];
      if (r.end == 0) continue;  // still open when the run ended
      const int64_t id = (static_cast<int64_t>(buffer->lane) << 40) |
                         static_cast<int64_t>(i);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%lld,"
                   "\"id\":%lld,\"parent\":%lld}}",
                   first ? "" : ",\n", names_[static_cast<size_t>(r.name)].c_str(),
                   buffer->lane, 1e-3 * static_cast<double>(r.start - epoch),
                   1e-3 * static_cast<double>(r.end - r.start),
                   static_cast<long long>(r.query), static_cast<long long>(id),
                   static_cast<long long>(r.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans_kept\":%lld,\"spans_dropped\":%lld}}\n",
               static_cast<long long>(stored_.load() - dropped_.load()),
               static_cast<long long>(dropped_.load()));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
