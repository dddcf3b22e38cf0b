// Cached metric handles for simulator hot paths.
//
// Instrumented components (queue discs, links, TCP senders) sit below the
// layer that owns the Recorder, and the recorder bound to the current
// thread changes per trial under the parallel engine. These handles make
// a hot-path observation cheap and correct under re-binding:
//
//   * unbound (the common case for plain test/bench runs): one
//     thread-local load and one branch, nothing else;
//   * bound: the handle resolves the metric against the current recorder
//     once, caches the pointer, and re-resolves only when the binding
//     changes (a different trial's recorder on this thread).
//
// Handles are owned by the instrumented object, so the metric name is
// built once at construction, not per observation.
#pragma once

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace wehey::obs {

/// Hot-path handle to a fixed-bucket histogram, resolved lazily against
/// whichever Recorder is bound to the calling thread.
class HistogramHandle {
 public:
  HistogramHandle(std::string name, double lo, double hi, int buckets)
      : name_(std::move(name)), lo_(lo), hi_(hi), buckets_(buckets) {}

  /// Rebuild the handle under a new metric name (drops the cached
  /// resolution). Call before the first observation, e.g. when a disc or
  /// link is labeled after construction.
  void rename(std::string name) {
    name_ = std::move(name);
    bound_ = nullptr;
    hist_ = nullptr;
  }

  const std::string& name() const { return name_; }

  void observe(double v) {
    Recorder* rec = Recorder::current();
    if (rec == nullptr) return;
    if (rec != bound_) rebind(rec);
    if (hist_ != nullptr) hist_->observe(v);
  }

 private:
  void rebind(Recorder* rec) {
    bound_ = rec;
    hist_ = rec->metrics_on()
                ? &rec->metrics().histogram(name_, lo_, hi_, buckets_)
                : nullptr;
  }

  std::string name_;
  double lo_;
  double hi_;
  int buckets_;
  Recorder* bound_ = nullptr;
  Histogram* hist_ = nullptr;
};

/// Hot-path handle to a counter; same resolution rules as HistogramHandle.
class CounterHandle {
 public:
  explicit CounterHandle(std::string name) : name_(std::move(name)) {}

  void rename(std::string name) {
    name_ = std::move(name);
    bound_ = nullptr;
    counter_ = nullptr;
  }

  const std::string& name() const { return name_; }

  void inc(std::uint64_t n = 1) {
    Recorder* rec = Recorder::current();
    if (rec == nullptr) return;
    if (rec != bound_) rebind(rec);
    if (counter_ != nullptr) counter_->inc(n);
  }

 private:
  void rebind(Recorder* rec) {
    bound_ = rec;
    counter_ = rec->metrics_on() ? &rec->metrics().counter(name_) : nullptr;
  }

  std::string name_;
  Recorder* bound_ = nullptr;
  Counter* counter_ = nullptr;
};

}  // namespace wehey::obs
