#include "obs/timeline.hpp"

#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace wehey::obs {

void Timeline::span(std::string name, std::string category, Time start,
                    Time end, std::int32_t tid, std::string args) {
  TimelineEvent ev;
  ev.kind = TimelineEvent::Kind::Span;
  ev.at = start;
  ev.duration = end > start ? end - start : 0;
  ev.tid = tid;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void Timeline::instant(std::string name, std::string category, Time at,
                       std::int32_t tid, std::string args) {
  TimelineEvent ev;
  ev.kind = TimelineEvent::Kind::Instant;
  ev.at = at;
  ev.tid = tid;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void Timeline::counter(std::string name, Time at, double value,
                       std::int32_t tid) {
  TimelineEvent ev;
  ev.kind = TimelineEvent::Kind::Counter;
  ev.at = at;
  ev.tid = tid;
  ev.name = std::move(name);
  ev.args = "\"value\": " + json_number(value);
  events_.push_back(std::move(ev));
}

void Timeline::name_track(std::int32_t pid, std::string name) {
  track_names_.emplace_back(pid, std::move(name));
}

void Timeline::absorb(Timeline&& child) {
  const std::int32_t base = pid_count_;
  for (auto& ev : child.events_) {
    ev.pid += base;
    events_.push_back(std::move(ev));
  }
  for (auto& [pid, name] : child.track_names_) {
    track_names_.emplace_back(pid + base, std::move(name));
  }
  pid_count_ += child.pid_count_;
  child.events_.clear();
  child.track_names_.clear();
  child.pid_count_ = 1;
}

namespace {

/// Chrome traces use microsecond timestamps; keep sub-microsecond detail
/// as a fraction (sim time is exact nanoseconds).
std::string ts_us(Time t) {
  if (t % 1000 == 0) return std::to_string(t / 1000);
  return json_number(static_cast<double>(t) / 1000.0);
}

void write_event(std::FILE* out, const TimelineEvent& ev, bool& first) {
  std::fprintf(out, "%s  {", first ? "\n" : ",\n");
  first = false;
  const char* ph = ev.kind == TimelineEvent::Kind::Span      ? "X"
                   : ev.kind == TimelineEvent::Kind::Counter ? "C"
                                                             : "i";
  std::fprintf(out, "\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %s",
               json_escape(ev.name).c_str(), ph, ts_us(ev.at).c_str());
  if (ev.kind == TimelineEvent::Kind::Span) {
    std::fprintf(out, ", \"dur\": %s", ts_us(ev.duration).c_str());
  }
  if (ev.kind == TimelineEvent::Kind::Instant) {
    std::fprintf(out, ", \"s\": \"t\"");
  }
  if (!ev.category.empty()) {
    std::fprintf(out, ", \"cat\": \"%s\"", json_escape(ev.category).c_str());
  }
  std::fprintf(out, ", \"pid\": %d, \"tid\": %d", ev.pid, ev.tid);
  if (!ev.args.empty()) {
    std::fprintf(out, ", \"args\": {%s}", ev.args.c_str());
  }
  std::fprintf(out, "}");
}

}  // namespace

void Timeline::write_chrome_json(std::FILE* out) const {
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [");
  bool first = true;
  for (const auto& [pid, name] : track_names_) {
    std::fprintf(out,
                 "%s  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
                 "%d, \"tid\": 0, \"args\": {\"name\": \"%s\"}}",
                 first ? "\n" : ",\n", pid, json_escape(name).c_str());
    first = false;
  }
  for (const auto& ev : events_) write_event(out, ev, first);
  std::fprintf(out, "\n]}\n");
}

std::string Timeline::chrome_json() const {
  // Render through a temp buffer so the string path shares the FILE* code.
  std::string result;
  std::FILE* tmp = std::tmpfile();
  if (tmp == nullptr) return result;
  write_chrome_json(tmp);
  const long len = std::ftell(tmp);
  if (len > 0) {
    result.resize(static_cast<std::size_t>(len));
    std::rewind(tmp);
    const std::size_t got = std::fread(result.data(), 1, result.size(), tmp);
    result.resize(got);
  }
  std::fclose(tmp);
  return result;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace wehey::obs
