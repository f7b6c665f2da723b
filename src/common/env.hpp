// Strict environment-variable parsing shared by the service and the
// observability layer (CF_SERVICE_THREADS, CF_SERVICE_WINDOW_US, CF_TRACE,
// CF_SLOW_MS, ...).
//
// Anything that is not a whole integer in [min_v, max_v] gets a one-line
// stderr diagnostic and the fallback. (An atoi-style path would silently
// treat CF_SERVICE_THREADS="four" as "use the default", hiding deployment
// typos behind correct-looking behavior.)
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cf {

inline int env_int_strict(const char* name, int fallback, int min_v, int max_v) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || n < min_v || n > max_v) {
    std::fprintf(stderr,
                 "cf: ignoring invalid %s='%s' (want an integer in "
                 "[%d, %d]); using %d\n",
                 name, v, min_v, max_v, fallback);
    return fallback;
  }
  return static_cast<int>(n);
}

}  // namespace cf
