// Environment overrides for the test suites: CI re-runs ctest with
// CF_WORKERS (device worker count), CF_TILED (0 = atomic spread writeback),
// CF_TILE_CHUNK (forced tiled-spread chunk cap), and CF_UPSAMP (fine-grid
// sigma) set, so multi-worker atomic contention, the atomic writeback, the
// chunked stealing scheduler, and the low-upsampling grid all stay covered
// without recompiling. Unset variables keep the defaults.
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

/// Options::tiled_spread override (default 1 = tile-owned atomic-free
/// writeback; 0 = atomic writeback baseline).
inline int env_tiled(int fallback = 1) { return env_int("CF_TILED", fallback); }

/// Options::tile_chunk_cap override (default 0 = auto). The library itself
/// also honors CF_TILE_CHUNK at the auto setting, so plans created by suites
/// that never touch the option still pick the forced cap up; this helper is
/// for tests that want the value explicitly.
inline int env_tile_chunk(int fallback = 0) {
  return env_int("CF_TILE_CHUNK", fallback);
}

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
