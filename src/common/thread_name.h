// Thread names by role, so per-thread tools (top -H, perf, /proc/*/task)
// attribute time to a subsystem instead of to an anonymous thread.
#pragma once

#include <pthread.h>

#include <algorithm>
#include <cstring>
#include <string_view>

namespace tart {

/// Names the calling thread. Linux keeps at most 15 bytes; longer names
/// are truncated rather than rejected.
inline void set_thread_name(std::string_view name) {
  char buf[16];
  const std::size_t n = std::min(name.size(), sizeof(buf) - 1);
  std::memcpy(buf, name.data(), n);
  buf[n] = '\0';
  (void)pthread_setname_np(pthread_self(), buf);
}

}  // namespace tart
