// Consolidated environment-knob parsing. Before this header existed the
// service, shard, tune, and failover layers each carried a private copy of
// the same strtol wrapper; the copies agreed by luck, not by construction.
// Every reader here shares one malformed-value policy: an unset, empty,
// unparsable, trailing-garbage, or out-of-range value is IGNORED and the
// fallback wins. Parsers never throw — a misconfigured knob must not turn
// into a startup abort on a fleet-wide rollout (DESIGN.md §11).
#pragma once

#include <string>

namespace smm::env {

/// Read a non-negative integer knob (v >= 0), else `fallback`.
long read_long(const char* name, long fallback);

/// Read a strictly positive integer knob (v > 0), else `fallback`.
long read_positive_long(const char* name, long fallback);

/// Read a fraction knob in [0, 1], else `fallback`.
double read_fraction(const char* name, double fallback);

/// Read a string knob verbatim; unset or empty yields `fallback`.
std::string read_string(const char* name, const std::string& fallback);

/// Parsing seams behind the readers, exposed so tests can exercise the
/// malformed-value policy without mutating the process environment.
/// `raw == nullptr` models an unset variable.
long parse_long(const char* raw, long fallback, long min_value);
double parse_double(const char* raw, double fallback, double min_value,
                    double max_value);

}  // namespace smm::env
