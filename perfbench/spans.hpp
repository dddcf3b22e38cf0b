// In-memory span recording for the traced pass.
//
// Every span is opened and closed by the benchmark's own code around a
// call into one layer's public functions, on the thread that runs the op.
// An op's spans live in that op's OpSpans (no sharing between threads);
// the benchmark concatenates them in op order and writes them once, after
// the pass.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed by the calling thread.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Span {
  const char* name = "";  ///< a string literal naming the layer boundary
  std::uint64_t op = 0;   ///< the op (request) the span belongs to
  int id = 0;             ///< index within the op's spans
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;  ///< steady clock
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;  ///< thread CPU time spent inside the span
};

/// The spans of one op, in opening order. Not thread-safe: one op runs on
/// one thread.
class OpSpans {
 public:
  explicit OpSpans(std::uint64_t op) : op_(op) {}

  int open(const char* name);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t op_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(OpSpans& spans, const char* name)
      : spans_(spans), id_(spans.open(name)) {}
  ~ScopedSpan() { spans_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  OpSpans& spans_;
  int id_;
};

/// The spans of one traced pass, written as one Chrome-trace process.
struct SpanGroup {
  const char* name;
  const std::vector<Span>* spans;
};

/// Write spans as Chrome-trace JSON ("X" events, microseconds relative to
/// `origin_ns`, one pid per group); span ids, parents, op ids and CPU time
/// go in `args`. Returns false if the file could not be written.
bool write_spans(const std::string& path, const std::vector<SpanGroup>& groups,
                 std::uint64_t origin_ns);

}  // namespace perfbench
