#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

/// Basic vocabulary types shared by every module.
///
/// Time is continuous in the Srikanth–Toueg model, so we represent both real
/// ("Newtonian") time and per-node local (hardware/logical) time as double
/// seconds. Real and local time are deliberately distinct aliases so that
/// signatures document which frame a value lives in; the clock classes in
/// `clocks/` are the only code that converts between the two frames.
namespace stclock {

/// Real (global, true) time in seconds. Only the simulator sees this frame.
using RealTime = double;

/// Local time in seconds, as measured by one node's hardware/logical clock.
using LocalTime = double;

/// A span of time, valid in either frame.
using Duration = double;

/// Index of a process in [0, n).
using NodeId = std::uint32_t;

/// Resynchronization round number (first resynchronization is round 1).
using Round = std::uint64_t;

inline constexpr RealTime kTimeInfinity = std::numeric_limits<double>::infinity();

/// Returns the ceiling of a/b for positive integers (used for f-bounds like
/// ceil(n/2) - 1 without floating point).
[[nodiscard]] constexpr std::uint32_t ceil_div(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}

/// Maximum number of Byzantine faults tolerated by the authenticated
/// algorithm: f <= ceil(n/2) - 1, i.e. n >= 2f + 1.
[[nodiscard]] constexpr std::uint32_t max_faults_authenticated(std::uint32_t n) {
  return ceil_div(n, 2) - 1;
}

/// Maximum number of Byzantine faults tolerated by the signature-free
/// (init/echo) algorithm: f <= ceil(n/3) - 1, i.e. n >= 3f + 1.
[[nodiscard]] constexpr std::uint32_t max_faults_echo(std::uint32_t n) {
  return ceil_div(n, 3) - 1;
}

/// One row of an enum's name table. Each scenario-facing enum (drift,
/// delay, attack, topology, broadcast mode, adjust mode) declares one
/// `{name, value}` table beside itself; its printer, the sinks, spec_to_json
/// and the scenario-file parser all read it, so a spelling lives in one place.
template <typename Enum>
struct EnumName {
  const char* name;
  Enum value;
};

/// The spelling of `value` in `table` ("unknown" if the table lacks it).
template <typename Enum, std::size_t N>
[[nodiscard]] constexpr const char* enum_name(const EnumName<Enum> (&table)[N], Enum value) {
  for (const EnumName<Enum>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "unknown";
}

}  // namespace stclock
