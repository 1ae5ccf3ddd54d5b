#pragma once

#include "experiment/scenario.h"

namespace stclock {

/// A scenario running the Srikanth–Toueg variant that `cfg.variant` names
/// ("auth" or "echo"), with every other field at its ScenarioSpec default.
inline experiment::ScenarioSpec sync_spec(const SyncConfig& cfg) {
  experiment::ScenarioSpec spec;
  spec.protocol = cfg.variant == Variant::kEcho ? "echo" : "auth";
  spec.cfg = cfg;
  return spec;
}

}  // namespace stclock
