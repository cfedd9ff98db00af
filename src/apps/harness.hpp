#pragma once

/// \file harness.hpp
/// App-workload harness over the timebase page (DESIGN.md §16).
///
/// Two pieces:
///
/// `OwdApp` — the page-consuming one-way-delay meter. Probes carry a full
/// page sample — split timestamp, claimed uncertainty, staleness — and the
/// receiver judges each probe like a real monitoring app would: the
/// measurement error must fit inside the *claimed* error budget
/// (sender unc + receiver unc + the pairwise network envelope). A fresh
/// probe that busts the budget is a counted correctness failure; a probe
/// stamped or judged on a stale page is a *detected* degradation instead.
///
/// `AppHarness` — builds the whole serving stack for a set of hosts (one
/// daemon + page per host, shard-pinned for parallel determinism), a reader
/// fleet, and any subset of the three workloads (OWD pairs, an LWW ring,
/// TDMA senders), then folds their results into `chaos::AppVerdict`s for
/// campaign reports.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/lww.hpp"
#include "apps/readers.hpp"
#include "apps/service.hpp"
#include "apps/tdma.hpp"
#include "chaos/report.hpp"
#include "dtp/network.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::apps {

struct PageOwdPacket : net::Packet {
  std::uint32_t pair_id = 0;
  std::uint32_t sequence = 0;
  std::int64_t ts_units = 0;  ///< sender page time at hardware TX (split)
  double ts_frac = 0.0;
  double unc_units = 0.0;     ///< sender's claimed uncertainty
  bool stale = false;
  bool valid = false;
  /// True TX instant — simulator metadata carried in the frame so the
  /// receiver never touches sender-side state (parallel-safe).
  fs_t tx_true = 0;
};

struct OwdAppParams {
  fs_t period = from_us(100);  ///< probe cadence per pair
  /// Cross-host counter disagreement budget (counter units) added to the
  /// two page uncertainties when judging a probe — the 4TD envelope the
  /// pages themselves cannot see.
  double network_bound_units = 17.0;
  std::uint32_t payload_bytes = 64;
  std::uint8_t priority = 7;
};

/// Per-pair counters, written only on the receiver's shard.
struct OwdPairStats {
  std::uint64_t probes = 0;    ///< judged (both pages valid)
  std::uint64_t failures = 0;  ///< fresh probe outside the claimed budget
  std::uint64_t detected = 0;  ///< stale page on either end
  std::uint64_t invalid = 0;   ///< a page not serving yet; not judged
  double worst_error_ns = 0.0; ///< worst |measured - true| among judged

  bool operator==(const OwdPairStats&) const = default;
};

/// One-way-delay measurement over (src, dst) TimeService pairs.
class OwdApp {
 public:
  OwdApp(sim::Simulator& sim,
         std::vector<std::pair<TimeService, TimeService>> pairs,
         OwdAppParams params = {});

  OwdApp(const OwdApp&) = delete;
  OwdApp& operator=(const OwdApp&) = delete;

  void start(fs_t at);
  void stop();

  std::size_t size() const { return pairs_.size(); }
  const OwdPairStats& pair_stats(std::size_t i) const { return stats_.at(i); }
  OwdPairStats total() const;

  const OwdAppParams& params() const { return params_; }

 private:
  void send_probe(std::size_t i);
  void on_probe(std::size_t i, const PageOwdPacket& pkt, fs_t rx_time);

  sim::Simulator& sim_;
  std::vector<std::pair<TimeService, TimeService>> pairs_;
  OwdAppParams params_;
  std::vector<OwdPairStats> stats_;
  std::vector<std::uint32_t> seq_;  ///< per-pair, sender shard
  std::vector<std::unique_ptr<sim::PeriodicProcess>> senders_;
  double ns_per_unit_ = 1.0;
  std::uint32_t base_pair_id_;
};

/// Which workloads an AppHarness runs, over which host indices.
struct AppHarnessParams {
  dtp::DaemonParams daemon;
  /// Per-host TSC ppm errors; cycled when shorter than the host list.
  std::vector<double> tsc_ppm = {17.0, -23.0, 9.0, -5.0, 21.0, -13.0, 3.0, -19.0};
  std::size_t readers_per_host = 0;  ///< 0 = no reader fleet
  fs_t reader_period = from_us(50);
  std::vector<std::pair<std::size_t, std::size_t>> owd_pairs;
  OwdAppParams owd;
  std::vector<std::size_t> lww_ring;  ///< empty = no LWW app
  LwwParams lww;
  std::vector<std::size_t> tdma_senders;  ///< empty = no TDMA app
  TdmaParams tdma;
};

/// Builds daemons + pages + reader fleet + selected apps over `hosts`.
class AppHarness {
 public:
  /// Every host gets a shard-pinned daemon over its DTP agent. Daemons are
  /// constructed (not started) here; start_daemons() begins polling.
  AppHarness(sim::Simulator& sim, dtp::DtpNetwork& dtp,
             std::vector<net::Host*> hosts, AppHarnessParams params);
  ~AppHarness();

  AppHarness(const AppHarness&) = delete;
  AppHarness& operator=(const AppHarness&) = delete;

  void start_daemons();
  /// Arm the configured apps and readers at simulated time `at` (give the
  /// daemons time to calibrate first).
  void start_apps(fs_t at);
  void stop();

  std::size_t size() const { return services_.size(); }
  dtp::Daemon& daemon(std::size_t i) { return *daemons_.at(i); }
  const dtp::Daemon& daemon(std::size_t i) const { return *daemons_.at(i); }
  const TimeService& service(std::size_t i) const { return services_.at(i); }

  OwdApp* owd() { return owd_.get(); }
  LwwApp* lww() { return lww_.get(); }
  TdmaApp* tdma() { return tdma_.get(); }
  ReaderFleet* readers() { return fleet_.get(); }

  /// One AppVerdict per configured workload, in fixed order (owd, lww,
  /// tdma) — ready for CampaignReport::add_app.
  std::vector<chaos::AppVerdict> verdicts() const;

 private:
  sim::Simulator& sim_;
  AppHarnessParams params_;
  std::vector<std::unique_ptr<dtp::Daemon>> daemons_;
  std::vector<TimeService> services_;
  std::unique_ptr<ReaderFleet> fleet_;
  std::unique_ptr<OwdApp> owd_;
  std::unique_ptr<LwwApp> lww_;
  std::unique_ptr<TdmaApp> tdma_;
};

}  // namespace dtpsim::apps
