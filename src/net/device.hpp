#pragma once

/// \file device.hpp
/// Base class for network devices (hosts, switches).
///
/// A device owns exactly one oscillator — the paper leans on the fact that a
/// commodity switch feeds all its ports from a single clock source (Section
/// 2.5) — plus any number of PhyPorts and their MACs. Frequency offset and
/// optional temperature drift are per-device.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/mac.hpp"
#include "phy/drift.hpp"
#include "phy/oscillator.hpp"
#include "phy/port.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::net {

/// Per-device clock/PHY configuration.
struct DeviceParams {
  phy::LinkRate rate = phy::LinkRate::k10G;
  double ppm = 0.0;     ///< oscillator frequency offset
  fs_t phase = 0;       ///< tick-0 edge time (staggers tick grids)
  phy::PortParams port{};  ///< applied to every port (rate overridden)
  MacParams mac{};
};

/// A device: one oscillator, N (port, MAC) pairs. Cache-line aligned, so
/// the members every beacon reads share one line (see sim_ below).
class alignas(64) Device {
 public:
  Device(sim::Simulator& sim, std::string name, DeviceParams params);
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }
  sim::Simulator& simulator() { return sim_; }
  /// Partition-graph node id (every device registers at construction).
  std::int32_t node() const { return node_; }
  phy::Oscillator& oscillator() { return osc_; }
  const phy::Oscillator& oscillator() const { return osc_; }
  const DeviceParams& params() const { return params_; }

  /// Create one more port (and its MAC) on this device.
  phy::PhyPort& add_port();

  /// Reserve records for the next `n` ports this device adds, as one run:
  /// the quiet beacon cycle reads a device's ports at the same instants, so
  /// their records should be contiguous (sim::PortRecords). A builder that
  /// knows a device's port count calls this before cabling; ports past the
  /// reservation get records of their own.
  void reserve_ports(std::size_t n);

  std::size_t port_count() const { return ports_.size(); }
  phy::PhyPort& port(std::size_t i) { return *ports_.at(i); }
  Mac& mac(std::size_t i) { return *macs_.at(i); }
  const Mac& mac(std::size_t i) const { return *macs_.at(i); }

  /// Attach a temperature-drift random walk to this device's oscillator.
  void enable_drift(phy::DriftParams dp);
  bool drift_enabled() const { return drift_.has_value(); }

  /// Stop the drift walk (fault injection: an oscillator forced out of the
  /// 802.3 envelope must not be pulled back by the thermal model).
  void disable_drift() {
    if (drift_) drift_->stop();
  }

 protected:
  /// Invoked after add_port wires the MAC; subclasses hook receive paths.
  virtual void on_port_added(std::size_t /*index*/) {}

  /// Frames waiting out a modeled delay (switch pipeline, host stack). The
  /// delay event captures the pool index instead of the 64-byte frame, which
  /// would outgrow Callback's inline buffer and heap-allocate per event.
  /// Touched only by this device's events, like the rest of its state.
  std::uint32_t park_frame(Frame frame);
  /// Move the frame out of the pool and free its index.
  Frame unpark_frame(std::uint32_t index);

  // The simulator, oscillator and node id come first: every beacon a port
  // of this device sends or receives reads them (PortLogic reaches them
  // through its Agent), so they share the object's first cache line.
  sim::Simulator& sim_;
  phy::Oscillator osc_;
  std::int32_t node_ = -1;
  std::string name_;
  DeviceParams params_;
  std::optional<phy::DriftProcess> drift_;
  std::vector<sim::ArenaPtr<phy::PhyPort>> ports_;  ///< in the simulator's arena
  std::vector<std::unique_ptr<Mac>> macs_;

 private:
  std::uint32_t run_next_ = 0;  ///< next reserved port record
  std::uint32_t run_end_ = 0;   ///< one past the reservation
  std::vector<Frame> parked_;
  std::vector<std::uint32_t> parked_free_;
};

}  // namespace dtpsim::net
