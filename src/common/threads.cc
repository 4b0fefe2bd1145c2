#include "src/common/threads.h"

#include <cstdlib>
#include <thread>

namespace dime {

unsigned ResolveThreadCount(unsigned requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("DIME_THREADS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= kMaxThreads) {
      return static_cast<unsigned>(v);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace dime
