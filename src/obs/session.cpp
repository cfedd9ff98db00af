#include "obs/session.hpp"

#include <algorithm>

#include "dtp/agent.hpp"

namespace dtpsim::obs {

Session::Session(net::Network& net, dtp::DtpNetwork* dtp, SessionConfig cfg)
    : net_(net),
      dtp_(dtp),
      sim_(net.simulator()),
      cfg_(std::move(cfg)),
      trace_on_(!cfg_.trace_path.empty() || cfg_.trace_in_memory),
      metrics_on_(!cfg_.metrics_path.empty() || cfg_.metrics_in_memory),
      hub_(HubConfig{metrics_on_, trace_on_, cfg_.metrics_path, cfg_.trace_path}),
      devices_(net.devices()) {
  if (!enabled()) return;
  sim_.set_obs(&hub_);
  if (TraceSink* tr = hub_.trace()) {
    tracks_.reserve(devices_.size());
    for (const net::Device* dev : devices_) tracks_.push_back(tr->track(dev->name()));
  }
}

Session::~Session() {
  if (enabled()) sim_.set_obs(nullptr);
}

void Session::start(fs_t horizon) {
  if (!enabled() || started_) return;
  started_ = true;

  const fs_t now = sim_.now();
  interval_ = cfg_.metrics_interval > 0
                  ? cfg_.metrics_interval
                  : std::max<fs_t>(1, (horizon > now ? horizon - now : 0) / 256);

  if (MetricsRegistry* m = hub_.metrics()) {
    // Event core: totals + per-category executed counts, pulled from the
    // engine's own instrumentation. Collecting SimStats walks every shard
    // queue, so it is refreshed ONCE per snapshot into a cache the nine
    // probes below read — not once per probe (at high shard counts the
    // repeated walk dominated snapshot cost).
    m->before_snapshot([this] { stats_cache_ = sim_.stats(); });
    m->probe("sim.scheduled", [this] { return static_cast<double>(stats_cache_.scheduled); });
    m->probe("sim.executed", [this] { return static_cast<double>(stats_cache_.executed); });
    m->probe("sim.cancelled", [this] { return static_cast<double>(stats_cache_.cancelled); });
    for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
      const auto cat = static_cast<sim::EventCategory>(c);
      m->probe(std::string("sim.executed.") + sim::category_name(cat),
               [this, c] { return static_cast<double>(stats_cache_.executed_by_category[c]); });
    }

    // PHY: frames, control blocks, and CDC crossings summed over all ports.
    m->probe("phy.frames_sent", [this] {
      std::uint64_t n = 0;
      for (net::Device* d : devices_)
        for (std::size_t p = 0; p < d->port_count(); ++p) n += d->port(p).frames_sent();
      return static_cast<double>(n);
    });
    m->probe("phy.control_blocks_sent", [this] {
      std::uint64_t n = 0;
      for (net::Device* d : devices_)
        for (std::size_t p = 0; p < d->port_count(); ++p)
          n += d->port(p).control_blocks_sent();
      return static_cast<double>(n);
    });
    m->probe("phy.fifo_crossings", [this] {
      std::uint64_t n = 0;
      for (net::Device* d : devices_)
        for (std::size_t p = 0; p < d->port_count(); ++p) n += d->port(p).fifo_crossings();
      return static_cast<double>(n);
    });
    m->probe("phy.fifo_extra_cycles", [this] {
      std::uint64_t n = 0;
      for (net::Device* d : devices_)
        for (std::size_t p = 0; p < d->port_count(); ++p)
          n += d->port(p).fifo_extra_cycles();
      return static_cast<double>(n);
    });

    if (dtp_ != nullptr) {
      // DTP: protocol counters summed over the live agents (an agent may be
      // torn down and re-attached mid-run, so sum through agent_of every
      // time rather than capturing Agent pointers).
      auto port_stat_sum = [this](std::uint64_t dtp::PortStats::* field) {
        std::uint64_t n = 0;
        for (net::Device* d : devices_) {
          const dtp::Agent* a = dtp_->agent_of(d);
          if (a == nullptr) continue;
          for (std::size_t p = 0; p < a->port_count(); ++p)
            n += a->port_logic(p).stats().*field;
        }
        return static_cast<double>(n);
      };
      m->probe("dtp.beacons_sent",
               [port_stat_sum] { return port_stat_sum(&dtp::PortStats::beacons_sent); });
      m->probe("dtp.beacons_received", [port_stat_sum] {
        return port_stat_sum(&dtp::PortStats::beacons_received);
      });
      m->probe("dtp.joins_sent",
               [port_stat_sum] { return port_stat_sum(&dtp::PortStats::joins_sent); });
      m->probe("dtp.joins_received",
               [port_stat_sum] { return port_stat_sum(&dtp::PortStats::joins_received); });
      m->probe("dtp.adjustments",
               [port_stat_sum] { return port_stat_sum(&dtp::PortStats::adjustments); });
      m->probe("dtp.state_transitions", [port_stat_sum] {
        return port_stat_sum(&dtp::PortStats::state_transitions);
      });
      m->probe("dtp.global_adjustments", [this] {
        std::uint64_t n = 0;
        for (net::Device* d : devices_)
          if (const dtp::Agent* a = dtp_->agent_of(d)) n += a->global_adjustments();
        return static_cast<double>(n);
      });
      m->probe("dtp.counter_resets", [this] {
        std::uint64_t n = 0;
        for (net::Device* d : devices_)
          if (const dtp::Agent* a = dtp_->agent_of(d)) n += a->counter_resets();
        return static_cast<double>(n);
      });
      m->probe("dtp.max_pairwise_offset_ticks",
               [this] { return dtp_->max_pairwise_offset_ticks(sim_.now()); });
      // Per-device offset vs the reference device (the Fig. 6 quantity).
      for (net::Device* d : devices_)
        m->probe("dtp.offset_ticks." + d->name(), [this, d] {
          const dtp::Agent* ref = dtp_->agent_of(devices_.front());
          const dtp::Agent* a = dtp_->agent_of(d);
          if (ref == nullptr || a == nullptr) return 0.0;
          return dtp::true_offset_fractional(*a, *ref, sim_.now());
        });
    }
  }

  sampler_ = std::make_unique<sim::PeriodicProcess>(
      sim_, interval_, [this] { take_snapshot(); }, sim::EventCategory::kProbe);
  sampler_->start();
}

void Session::take_snapshot() {
  const fs_t now = sim_.now();
  if (MetricsRegistry* m = hub_.metrics()) m->snapshot(now);
  if (TraceSink* tr = hub_.trace()) {
    if (dtp_ != nullptr) {
      const dtp::Agent* ref = dtp_->agent_of(devices_.front());
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        const dtp::Agent* a = dtp_->agent_of(devices_[i]);
        const double off = (ref != nullptr && a != nullptr)
                               ? dtp::true_offset_fractional(*a, *ref, now)
                               : 0.0;
        tr->counter(tracks_[i], now, "offset_ticks." + devices_[i]->name(), off);
      }
      tr->counter(0, now, "max_pairwise_offset_ticks",
                  dtp_->max_pairwise_offset_ticks(now));
    }
  }
}

bool Session::finish(std::string* err) {
  if (!enabled() || finished_) return true;
  finished_ = true;
  if (sampler_) sampler_->stop();
  if (started_) {
    // Final sample at the run's end time, unless one just fired there.
    const fs_t now = sim_.now();
    MetricsRegistry* m = hub_.metrics();
    if (m == nullptr || m->snapshot_count() == 0 || m->snapshot_times().back() != now)
      take_snapshot();
  }
  // Wall-clock profile scopes become pid-2 complete events laid end to end,
  // so Perfetto shows the attribution next to the simulated-time tracks.
  if (TraceSink* tr = hub_.trace()) {
    const WallProfile& w = hub_.wall_profile();
    std::uint64_t at_ns = 0;
    for (std::size_t p = 0; p < kWallPhaseCount; ++p) {
      const auto phase = static_cast<WallPhase>(p);
      if (w.ns(phase) == 0) continue;
      tr->complete_wall(wall_phase_name(phase), at_ns, w.ns(phase));
      at_ns += w.ns(phase);
    }
  }
  return hub_.flush(err);
}

}  // namespace dtpsim::obs
