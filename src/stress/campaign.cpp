#include "stress/campaign.hpp"

#include <stdexcept>

#include "chaos/campaign.hpp"

namespace dtpsim::stress {

Campaign::Campaign(Scenario scenario, const RunOptions& options)
    : scenario_(std::move(scenario)),
      options_(options),
      sim_(options.seed),
      net_(sim_, scenario_.net) {
  const Scenario& s = scenario_;
  sim_.set_engine(options_.bridged ? sim::Simulator::EngineMode::kBridged
                                   : sim::Simulator::EngineMode::kExact);
  if (s.topology) {
    hosts_ = s.topology(net_);
  } else {
    tree_ = net::build_paper_tree(net_);
    hosts_ = tree_.leaves;
  }
  if (s.dtp) {
    dtp_ = dtp::enable_dtp(net_, *s.dtp);
    if (s.dtp->mode == dtp::SyncMode::kMasterTree)
      dtp::configure_master_tree(dtp_, *net_.devices().front());
  }
  // Observability attaches next: every layer built below finds the hub
  // through the simulator (the hierarchy registers its probes as it starts,
  // and run() schedules the plan, so chaos.faults_injected sees every fault).
  const ObsOptions& o = options_.obs;
  if (!o.trace_path.empty() || !o.metrics_path.empty())
    session_ = std::make_unique<obs::Session>(net_, s.dtp ? &dtp_ : nullptr, o);
  if (s.load) s.load(*this);
  if (s.ptp) {
    grandmaster_ = std::make_unique<ptp::Grandmaster>(sim_, *hosts_[0], s.ptp->grandmaster);
    for (net::Switch* sw : net_.switches())
      transparent_clocks_.push_back(std::make_unique<ptp::TransparentClockAdapter>(*sw));
    for (std::size_t i = 1; i < hosts_.size(); ++i)
      ptp_clients_.push_back(std::make_unique<ptp::PtpClient>(sim_, *hosts_[i],
                                                              grandmaster_->phc(), s.ptp->client));
    grandmaster_->start();
    for (auto& c : ptp_clients_) c->start();
  }
  if (s.ntp) {
    ntp_server_ = std::make_unique<ntp::NtpServer>(sim_, *hosts_[0]);
    for (std::size_t i = 1; i < hosts_.size(); ++i) {
      ntp_clients_.push_back(std::make_unique<ntp::NtpClient>(
          sim_, *hosts_[i], hosts_[0]->addr(), ntp_server_->clock(), *s.ntp));
      ntp_clients_.back()->start();
    }
  }
  if (s.apps) apps_ = std::make_unique<apps::AppHarness>(sim_, dtp_, hosts_, s.apps(*this));

  if (s.hierarchy) {
    s.hierarchy(*this);
    if (s.holdover_ceiling > 0)
      for (const auto& c : hierarchy_.clients()) c->set_holdover_ceiling(s.holdover_ceiling);
    hierarchy_.start();
  }
  // The watchdog's backoff jitter is seeded from the run seed, so a repro
  // file replays its ladder bit-identically.
  if (s.watchdog)
    watchdog_ = std::make_unique<dtp::HealthWatchdog>(net_, dtp_, *s.watchdog, options_.seed);

  if (s.plan) {
    engine_ = std::make_unique<chaos::ChaosEngine>(net_, dtp_);
    if (s.hierarchy) engine_->set_hierarchy(&hierarchy_);
    plan_ = s.plan(*this);
  }

  if (s.sentinel) {
    sentinel_ = std::make_unique<check::Sentinel>(net_, dtp_, *s.sentinel);
    if (s.hierarchy) sentinel_->set_hierarchy(&hierarchy_);
    if (watchdog_) sentinel_->set_watchdog(watchdog_.get());
    if (apps_)
      for (std::size_t i = 0; i < apps_->size(); ++i) sentinel_->watch_timebase(&apps_->daemon(i));
    for (const auto& [from, until] : s.blackouts) sentinel_->add_blackout(from, until);
  }
}

void Campaign::start() {
  if (!plan_.faults.empty()) engine_->schedule(plan_);
  if (session_) session_->start(scenario_.horizon);
  if (apps_) {
    // The daemons calibrate over the campaign baseline's settle time before
    // the apps read their pages.
    apps_->start_daemons();
    apps_->start_apps(chaos::CanonicalCampaign::settle_time());
  }
  // Last: set_threads partitions the realized device graph and migrates
  // every pending event, so everything above must exist first.
  if (options_.threads > 1) sim_.set_threads(options_.threads);
}

void Campaign::finish() {
  std::string err;
  if (session_ && !session_->finish(&err))
    throw std::runtime_error("observability write failed: " + err);
}

void Campaign::run() {
  start();
  sim_.run_until(scenario_.horizon);
  finish();
}

}  // namespace dtpsim::stress
