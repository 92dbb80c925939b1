#include "src/common/env.h"

#include <cerrno>
#include <cstdlib>

namespace smm::env {

long parse_long(const char* raw, long fallback, long min_value) {
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw, &end, 10);
  // An overflowed value clamps to LONG_MIN/LONG_MAX with ERANGE — that is
  // out-of-range, so it falls back like any other malformed knob.
  return (end != raw && *end == '\0' && errno != ERANGE && v >= min_value)
             ? v
             : fallback;
}

double parse_double(const char* raw, double fallback, double min_value,
                    double max_value) {
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(raw, &end);
  return (end != raw && *end == '\0' && errno != ERANGE && v >= min_value &&
          v <= max_value)
             ? v
             : fallback;
}

long read_long(const char* name, long fallback) {
  return parse_long(std::getenv(name), fallback, 0);
}

long read_positive_long(const char* name, long fallback) {
  return parse_long(std::getenv(name), fallback, 1);
}

double read_fraction(const char* name, double fallback) {
  return parse_double(std::getenv(name), fallback, 0.0, 1.0);
}

std::string read_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

}  // namespace smm::env
