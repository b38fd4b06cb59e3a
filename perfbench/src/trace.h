#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. `parent` is the id of the span that caused
/// it (0 for a root); spans of one request share `request_id`.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t request_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string name;
};

/// In-memory span recorder. Spans are kept until WriteJsonl at the end of
/// the run. Not thread-safe: one thread records at a time. When disabled
/// every call is a no-op returning id 0, so call sites need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span now; close it with End.
  uint32_t Begin(std::string_view name, uint32_t parent = 0,
                 uint64_t request_id = 0);
  void End(uint32_t id);

  /// Records an already finished span.
  uint32_t Record(std::string_view name, int64_t start_ns, int64_t end_ns,
                  uint32_t parent = 0, uint64_t request_id = 0);

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(uint32_t id) const;

  /// Self time per span name, in seconds: each span's duration minus the
  /// durations of its direct children (children of one span never overlap
  /// in this benchmark's usage), summed over all spans of that name.
  std::map<std::string, double> SelfSecondsByName() const;

  /// One JSON array per line: [id, parent, request_id, start_ns, end_ns,
  /// "name"]. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint32_t parent = 0,
             uint64_t request_id = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request_id)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
