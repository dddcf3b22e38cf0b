#include "spans.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {
namespace {

/// A small stable index for the calling thread (the span file's tid).
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

int OpSpans::open(const char* name) {
  Span s;
  s.name = name;
  s.op = op_;
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.thread = thread_index();
  s.start_ns = wall_ns();
  s.cpu_ns = thread_cpu_ns();  // start stamp until close()
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void OpSpans::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.cpu_ns = thread_cpu_ns() - s.cpu_ns;
  s.end_ns = wall_ns();
  stack_.pop_back();
}

bool write_spans(const std::string& path, const std::vector<SpanGroup>& groups,
                 std::uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  const char* sep = "\n";
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const int pid = static_cast<int>(g) + 1;
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 sep, pid, groups[g].name);
    sep = ",\n";
    for (const Span& s : *groups[g].spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"id\":%d,"
                   "\"parent\":%d,\"cpu_us\":%.3f}}",
                   sep, s.name, pid, s.thread,
                   static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.op), s.id, s.parent,
                   static_cast<double>(s.cpu_ns) / 1e3);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
