#pragma once

/// \file hub.hpp
/// The observability hub: one object the instrumented layers talk to.
///
/// A `Hub` bundles the three recorders — `MetricsRegistry`, `TraceSink`,
/// `WallProfile` — behind per-facility enable switches. Instrumented code
/// never holds a hub: it asks the simulator for the attached one where it
/// emits (`sim::Simulator::obs()`, null in every non-instrumented run), and
/// each accessor returns null when the facility is off, so the cost of
/// disabled observability is one pointer test:
///
///   if (auto* tr = obs::trace_of(sim.obs())) tr->instant(...);
///
/// The hub lives above the simulator (`sim::Simulator::set_obs`) but below
/// `obs::Session`, which attaches it and knows about devices and agents.

#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace dtpsim::obs {

struct HubConfig {
  bool metrics_enabled = true;
  bool trace_enabled = true;
  std::string metrics_path;  ///< empty = keep in memory (tests, benches)
  std::string trace_path;    ///< empty = keep in memory
};

class Hub {
 public:
  Hub() = default;
  explicit Hub(HubConfig cfg) : cfg_(std::move(cfg)) {}

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  const HubConfig& config() const { return cfg_; }

  /// Facility accessors for instrumented code: null when disabled.
  MetricsRegistry* metrics() { return cfg_.metrics_enabled ? &metrics_ : nullptr; }
  TraceSink* trace() { return cfg_.trace_enabled ? &trace_ : nullptr; }
  WallProfile& wall() { return wall_; }

  /// Direct access regardless of the enable switches (tests, reporting).
  MetricsRegistry& metrics_registry() { return metrics_; }
  const MetricsRegistry& metrics_registry() const { return metrics_; }
  TraceSink& trace_sink() { return trace_; }
  const TraceSink& trace_sink() const { return trace_; }
  const WallProfile& wall_profile() const { return wall_; }

  /// Write every facility that has a configured path. Returns false and
  /// fills `*err` on the first I/O failure (nothing is silently dropped).
  bool flush(std::string* err = nullptr);

 private:
  HubConfig cfg_;
  MetricsRegistry metrics_;
  TraceSink trace_;
  WallProfile wall_;
};

/// The attached hub's trace sink or metrics registry; null without a hub
/// or with the facility off.
inline TraceSink* trace_of(Hub* hub) { return hub != nullptr ? hub->trace() : nullptr; }
inline MetricsRegistry* metrics_of(Hub* hub) {
  return hub != nullptr ? hub->metrics() : nullptr;
}

}  // namespace dtpsim::obs
