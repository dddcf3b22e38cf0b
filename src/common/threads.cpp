#include "common/threads.hpp"

#include <cstdlib>
#include <thread>

namespace wehey {
namespace {

unsigned resolve_configured_threads() {
  if (const char* env = std::getenv("WEHEY_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

unsigned configured_threads() {
  static const unsigned threads = resolve_configured_threads();
  return threads;
}

}  // namespace wehey
