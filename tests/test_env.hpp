// Environment overrides for the test suites: CI re-runs ctest with
// CF_WORKERS (device worker count) and CF_UPSAMP (fine-grid sigma) set, so
// multi-worker scheduling and the low-upsampling grid stay covered without
// recompiling. Unset variables keep the defaults.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace cf::test {

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v && *v ? std::atoi(v) : fallback;
}

/// Device worker count for suites that don't sweep it themselves.
inline int env_workers(int fallback) { return env_int("CF_WORKERS", fallback); }

/// Options::upsampfac override (default 2.0; CI sets CF_UPSAMP=1.25 for the
/// low-upsampling pass). Parsed strictly, same policy as the service layer's
/// CF_SERVICE_WINDOW_US: anything that is not a whole double in a sane range
/// gets a one-line diagnostic and the fallback, so a typo never silently
/// runs the default configuration while looking like an override.
inline double env_upsampfac(double fallback = 2.0) {
  const char* v = std::getenv("CF_UPSAMP");
  if (!v || !*v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double s = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0' || !(s >= 1.0) || !(s <= 4.0)) {
    std::fprintf(stderr,
                 "tests: ignoring invalid CF_UPSAMP='%s' (want a double in "
                 "[1, 4]); using %g\n",
                 v, fallback);
    return fallback;
  }
  return s;
}

}  // namespace cf::test
