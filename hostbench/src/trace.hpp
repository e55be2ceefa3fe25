// Span recorder for the traced run (--trace 1).
//
// Spans are opened by the benchmark around its calls into the library's
// public API (host build, warmup, measure, collect, fleet parse/run/report),
// kept in memory, and written out once as a Chrome trace when the run ends.
// Every SpanScope measures its duration whether or not tracing is on -- the
// untraced run needs the same timings for wall_s/setup_s -- but only a
// traced run stores the span record.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Span {
  const char* name;
  std::int32_t parent;  ///< index of the enclosing span, -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: times its scope, records it when tracing is on.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name) : t_(t), id_(t.open(name)), start_(Clock::now()) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Ends the span (idempotent); returns its duration in ms.
  double close() {
    if (!closed_) {
      ms_ = ms_since(start_);
      t_.close(id_);
      closed_ = true;
    }
    return ms_;
  }

 private:
  Tracer& t_;
  std::int32_t id_;
  Clock::time_point start_;
  bool closed_ = false;
  double ms_ = 0;
};

}  // namespace hostbench
