#include "stress/campaign.hpp"

#include <stdexcept>

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
  dtp_ = dtp::enable_dtp(net_, s.dtp);
  if (s.load) s.load(*this);

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

  engine_ = std::make_unique<chaos::ChaosEngine>(net_, dtp_);
  if (s.hierarchy) engine_->set_hierarchy(&hierarchy_);
  if (s.plan) plan_ = s.plan(*this);

  if (s.sentinel) {
    sentinel_ = std::make_unique<check::Sentinel>(net_, dtp_, *s.sentinel);
    if (s.hierarchy) sentinel_->set_hierarchy(&hierarchy_);
    if (watchdog_) sentinel_->set_watchdog(watchdog_.get());
    for (const auto& [from, until] : s.blackouts) sentinel_->add_blackout(from, until);
  }

  // Observability attaches before run() schedules the plan, so the
  // chaos.faults_injected counter sees every fault.
  const ObsOptions& o = options_.obs;
  if (!o.trace_path.empty() || !o.metrics_path.empty()) {
    session_ = std::make_unique<obs::Session>(net_, &dtp_, o);
    engine_->set_obs(&session_->hub());
    if (watchdog_) watchdog_->set_obs(&session_->hub());
    if (sentinel_) sentinel_->set_obs(&session_->hub());
  }
}

void Campaign::run() {
  if (!plan_.faults.empty()) engine_->schedule(plan_);
  if (session_) session_->start(scenario_.horizon);
  // Last: set_threads partitions the realized device graph and migrates
  // every pending event, so everything above must exist first.
  if (options_.threads > 1) sim_.set_threads(options_.threads);
  sim_.run_until(scenario_.horizon);
  std::string err;
  if (session_ && !session_->finish(&err))
    throw std::runtime_error("observability write failed: " + err);
}

}  // namespace dtpsim::stress
