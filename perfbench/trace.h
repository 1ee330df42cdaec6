// In-memory span recorder for the benchmark's traced run.
//
// The benchmark records spans only around its own calls into the library's
// layers (the library itself carries no tracing yet). Each span holds its
// name, start and end on the steady clock, the span that was open when it
// began (its parent), and the workload repetition it belongs to. Spans stay
// in memory and are written once, at exit, as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly.
//
// Single-threaded by design: every benchmark call into the library is made
// from the main thread, so parents are tracked with a plain stack.

#ifndef RDFSR_PERFBENCH_TRACE_H_
#define RDFSR_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;  ///< steady clock, relative to the tracer
    std::int64_t end_ns = -1;   ///< -1 while the span is open
    int parent = -1;            ///< index of the enclosing span, -1 at top
    int rep = 0;                ///< workload repetition id
    double seconds() const { return (end_ns - start_ns) * 1e-9; }
  };

  /// Opens a span as a child of the innermost open span; returns its id.
  int Begin(std::string name, int rep);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  const std::vector<Record>& records() const { return records_; }

  /// Summed duration of the closed spans called `name`.
  double TotalSeconds(const std::string& name) const;
  /// Summed self time of the spans called `name`: each span's duration
  /// minus the time its direct children cover.
  double SelfSeconds(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string ChromeJson() const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// Times one call on the steady clock. With a tracer it is also recorded as
/// a span; with none (the untraced run) it costs two clock reads.
class Span {
 public:
  Span(Tracer* tracer, std::string name, int rep);
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Close();

 private:
  Tracer* tracer_;
  int id_ = -1;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1;
};

}  // namespace perfbench

#endif  // RDFSR_PERFBENCH_TRACE_H_
