#pragma once

/// \file session.hpp
/// Observability wiring for a live experiment (DESIGN.md §11).
///
/// `Session` owns the `obs::Hub` and knows about the layers above the
/// simulator: it attaches the hub to the simulator, where every instrumented
/// layer asks for it as it emits, interns one trace track per device (so a
/// port's instants and its device's offset counters share one track),
/// registers pull-probes over the event core, PHY counters and agent
/// counters, and drives the periodic snapshot process. The snapshot process
/// is a *global-affinity* periodic event (category kProbe): in parallel mode
/// it fires at conservative sync points on the coordinator thread while
/// every worker is parked, so sampling device state races nothing and a
/// serial and a parallel run of the same seed snapshot identical values at
/// identical simulated times.
///
/// Lifetime: construct after the topology (and DTP layer, if any) exists and
/// before the layers that register metrics when they start (a time
/// hierarchy's probes), `start(horizon)` before running, `finish()` after —
/// that writes the configured trace/metrics files. The destructor detaches
/// the hub from the simulator.

#include <memory>
#include <string>
#include <vector>

#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "obs/hub.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::chaos {
class ChaosEngine;
}

namespace dtpsim::obs {

struct SessionConfig {
  std::string trace_path;    ///< empty + trace_in_memory=false → tracing off
  std::string metrics_path;  ///< empty + metrics_in_memory=false → metrics off
  fs_t metrics_interval = 0;  ///< snapshot cadence; 0 = horizon/256 (≥ 1 ns)
  bool trace_in_memory = false;    ///< enable tracing without a file (tests)
  bool metrics_in_memory = false;  ///< enable metrics without a file (tests)
};

class Session {
 public:
  /// \param net  finished topology (devices registered; must outlive this)
  /// \param dtp  DTP layer, or null for PTP/NTP runs (offset tracks off)
  Session(net::Network& net, dtp::DtpNetwork* dtp, SessionConfig cfg);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Hub& hub() { return hub_; }
  bool enabled() const { return trace_on_ || metrics_on_; }

  /// Register probes and start the snapshot process; `horizon` (the planned
  /// run end) sizes the default snapshot interval.
  void start(fs_t horizon);

  /// Stop sampling, take a final snapshot, and write the configured files.
  /// Returns false + `*err` on I/O failure. Idempotent.
  bool finish(std::string* err = nullptr);

 private:
  void take_snapshot();

  net::Network& net_;
  dtp::DtpNetwork* dtp_;
  sim::Simulator& sim_;
  SessionConfig cfg_;
  bool trace_on_ = false;
  bool metrics_on_ = false;
  Hub hub_;
  fs_t interval_ = 0;
  bool started_ = false;
  bool finished_ = false;
  std::vector<net::Device*> devices_;
  std::vector<std::uint32_t> tracks_;  ///< parallel to devices_ (offset counters)
  std::unique_ptr<sim::PeriodicProcess> sampler_;
  sim::SimStats stats_cache_;  ///< refreshed once per snapshot (see start())
};

}  // namespace dtpsim::obs
