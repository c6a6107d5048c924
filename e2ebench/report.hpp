// Typed metric cells for the benchmark's JSON result: every number is
// emitted as {"value": <number with all its digits>, "unit": "<unit>"} with
// a display string beside it, so nothing downstream ever parses "8.88M/s"
// back into a number.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

struct Cell {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

inline std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

// Human-readable form of a cell, chosen by unit.
inline std::string display(const Cell& c) {
  if (c.unit == "ops/s") {
    if (c.value >= 1e6) return fmt("%.2fM/s", c.value / 1e6);
    if (c.value >= 1e3) return fmt("%.1fk/s", c.value / 1e3);
    return fmt("%.0f/s", c.value);
  }
  if (c.unit == "us") return fmt("%.2fus", c.value);
  if (c.unit == "ns") return fmt("%.1fns", c.value);
  if (c.unit == "s") return fmt("%.6fs", c.value);
  if (c.unit == "MB") return fmt("%.1fMB", c.value);
  if (c.unit == "1/s") return fmt("%.1f/s", c.value);
  return fmt("%.6g", c.value);
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return fmt("%.17g", v);
}

// Names, units and check details are generated by the benchmark itself
// (letters, digits and punctuation without quotes or backslashes), so they
// are written verbatim.
inline std::string json_cells(const std::vector<Cell>& cells) {
  std::string out = "{";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out += (i ? ", \"" : "\"") + c.name + "\": {\"value\": " +
           json_number(c.value) + ", \"unit\": \"" + c.unit +
           "\", \"display\": \"" + display(c) + "\"}";
  }
  return out + "}";
}

inline std::string json_checks(const std::vector<Check>& checks) {
  std::string out = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const Check& c = checks[i];
    out += std::string(i ? ", " : "") + "{\"name\": \"" + c.name +
           "\", \"passed\": " + (c.passed ? "true" : "false") +
           ", \"detail\": \"" + c.detail + "\"}";
  }
  return out + "]";
}

inline std::string json_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += std::string(i ? ", \"" : "\"") + items[i] + "\"";
  }
  return out + "]";
}

}  // namespace e2e
