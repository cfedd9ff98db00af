#include "chaos/plan.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "net/device.hpp"

namespace dtpsim::chaos {

namespace {

FaultSpec checked(FaultSpec s) {
  validate(s);
  return s;
}

}  // namespace

const char* fault_class_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kFlapStorm: return "flap_storm";
    case FaultKind::kPortFail: return "port_fail";
    case FaultKind::kBerBurst: return "ber_burst";
    case FaultKind::kBeaconLoss: return "beacon_loss";
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kRogueOscillator: return "rogue_oscillator";
    case FaultKind::kPcieStorm: return "pcie_storm";
    case FaultKind::kGpsLoss: return "gps_loss";
    case FaultKind::kRogueGrandmaster: return "rogue_grandmaster";
    case FaultKind::kIslandPartition: return "island_partition";
    case FaultKind::kStratumFlap: return "stratum_flap";
    case FaultKind::kAsymmetricDelay: return "asymmetric_delay";
    case FaultKind::kLimpingPort: return "limping_port";
    case FaultKind::kSilentCorruption: return "silent_corruption";
    case FaultKind::kFrozenCounter: return "frozen_counter";
  }
  return "?";
}

bool is_link_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkFlap:
    case FaultKind::kFlapStorm:
    case FaultKind::kPortFail:
    case FaultKind::kBerBurst:
    case FaultKind::kBeaconLoss:
    case FaultKind::kIslandPartition:
    case FaultKind::kAsymmetricDelay:
    case FaultKind::kLimpingPort:
    case FaultKind::kSilentCorruption:
    case FaultKind::kFrozenCounter:
      return true;
    default:
      return false;
  }
}

fs_t fault_end(const FaultSpec& spec) {
  fs_t span = spec.duration;
  bool overflow = false;
  if (spec.kind == FaultKind::kFlapStorm && spec.count > 1) {
    fs_t flaps = 0;
    overflow = __builtin_mul_overflow(static_cast<fs_t>(spec.count - 1), spec.period, &flaps) ||
               __builtin_add_overflow(flaps, spec.duration, &span);
  } else if (spec.kind == FaultKind::kStratumFlap) {
    overflow = __builtin_mul_overflow(static_cast<fs_t>(spec.count), spec.period, &span);
  }
  fs_t end = 0;
  if (overflow || __builtin_add_overflow(spec.at, span, &end))
    throw std::invalid_argument(std::string("chaos: ") + fault_class_name(spec.kind) +
                                " fault ends past the fs_t range");
  return end;
}

void validate(const FaultSpec& s) {
  const std::string what = std::string(fault_class_name(s.kind)) + ": ";
  auto require = [&what](bool ok, const char* rule) {
    if (!ok) throw std::invalid_argument(what + rule);
  };
  auto unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  require(std::isfinite(s.magnitude), "magnitude must be finite");
  switch (s.kind) {
    case FaultKind::kBerBurst:
      require(unit(s.magnitude), "BER must be in [0, 1]");
      break;
    case FaultKind::kBeaconLoss:
      require(unit(s.magnitude), "drop probability must be in [0, 1]");
      break;
    case FaultKind::kPcieStorm:
      require(unit(s.pcie_spike_prob), "spike probability must be in [0, 1]");
      break;
    case FaultKind::kAsymmetricDelay:
      require(s.duration > 0, "fault window must be positive");
      require(s.period > 0, "extra delay must be positive");
      break;
    case FaultKind::kLimpingPort:
      require(s.duration > 0, "fault window must be positive");
      require(unit(s.magnitude), "stall probability must be in [0, 1]");
      require(s.period > 0, "stall duration must be positive");
      break;
    case FaultKind::kSilentCorruption:
      require(s.duration > 0, "fault window must be positive");
      require(unit(s.magnitude), "corruption probability must be in [0, 1]");
      break;
    case FaultKind::kFrozenCounter:
      require(s.duration > 0, "fault window must be positive");
      break;
    default:
      break;
  }
}

FaultSpec FaultSpec::link_flap(net::Device& a, net::Device& b, fs_t at,
                               fs_t down_for) {
  FaultSpec s;
  s.kind = FaultKind::kLinkFlap;
  s.at = at;
  s.duration = down_for;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::flap_storm(net::Device& a, net::Device& b, fs_t at,
                                int flaps, fs_t flap_period, fs_t down_for) {
  FaultSpec s;
  s.kind = FaultKind::kFlapStorm;
  s.at = at;
  s.duration = down_for;
  s.count = flaps;
  s.period = flap_period;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::port_fail(net::Device& a, net::Device& b, fs_t at,
                               fs_t down_for) {
  FaultSpec s;
  s.kind = FaultKind::kPortFail;
  s.at = at;
  s.duration = down_for;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::ber_burst(net::Device& a, net::Device& b, fs_t at,
                               fs_t window, double ber) {
  FaultSpec s;
  s.kind = FaultKind::kBerBurst;
  s.at = at;
  s.duration = window;
  s.magnitude = ber;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::beacon_loss(net::Device& a, net::Device& b, fs_t at,
                                 fs_t window, double drop) {
  FaultSpec s;
  s.kind = FaultKind::kBeaconLoss;
  s.at = at;
  s.duration = window;
  s.magnitude = drop;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::node_crash(net::Device& dev, fs_t at, fs_t down_for) {
  FaultSpec s;
  s.kind = FaultKind::kNodeCrash;
  s.at = at;
  s.duration = down_for;
  s.a = dev.name();
  return checked(s);
}

FaultSpec FaultSpec::rogue_oscillator(net::Device& dev, fs_t at, double ppm,
                                      fs_t detect_deadline, fs_t remediation_delay) {
  FaultSpec s;
  s.kind = FaultKind::kRogueOscillator;
  s.at = at;
  s.duration = detect_deadline;
  s.period = remediation_delay;
  s.magnitude = ppm;
  s.a = dev.name();
  return checked(s);
}

FaultSpec FaultSpec::pcie_storm(dtp::Daemon& daemon, fs_t at, fs_t window,
                                fs_t extra_per_leg, double spike_prob,
                                fs_t spike_mean, double threshold_ticks) {
  FaultSpec s;
  s.kind = FaultKind::kPcieStorm;
  s.at = at;
  s.duration = window;
  s.daemon = &daemon;
  s.pcie_extra_per_leg = extra_per_leg;
  s.pcie_spike_prob = spike_prob;
  s.pcie_spike_mean = spike_mean;
  s.probe_threshold_ticks = threshold_ticks;
  return checked(s);
}

FaultSpec FaultSpec::gps_loss(net::Device& server_host, fs_t at, fs_t down_for) {
  FaultSpec s;
  s.kind = FaultKind::kGpsLoss;
  s.at = at;
  s.duration = down_for;
  s.a = server_host.name();
  return checked(s);
}

FaultSpec FaultSpec::rogue_grandmaster(net::Device& server_host, fs_t at,
                                       double lie_ns, fs_t detect_deadline,
                                       fs_t remediation_delay) {
  FaultSpec s;
  s.kind = FaultKind::kRogueGrandmaster;
  s.at = at;
  s.duration = detect_deadline;
  s.period = remediation_delay;
  s.magnitude = lie_ns;
  s.a = server_host.name();
  return checked(s);
}

FaultSpec FaultSpec::island_partition(net::Device& a, net::Device& b, fs_t at,
                                      fs_t down_for) {
  FaultSpec s;
  s.kind = FaultKind::kIslandPartition;
  s.at = at;
  s.duration = down_for;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::stratum_flap(net::Device& server_host, fs_t at, int flaps,
                                  fs_t flap_period, int alt_stratum) {
  FaultSpec s;
  s.kind = FaultKind::kStratumFlap;
  s.at = at;
  s.count = flaps;
  s.period = flap_period;
  s.magnitude = alt_stratum;
  s.a = server_host.name();
  return checked(s);
}

FaultSpec FaultSpec::asymmetric_delay(net::Device& a, net::Device& b, fs_t at,
                                      fs_t window, fs_t extra_delay) {
  FaultSpec s;
  s.kind = FaultKind::kAsymmetricDelay;
  s.at = at;
  s.duration = window;
  s.period = extra_delay;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::limping_port(net::Device& a, net::Device& b, fs_t at,
                                  fs_t window, double stall_prob, fs_t stall) {
  FaultSpec s;
  s.kind = FaultKind::kLimpingPort;
  s.at = at;
  s.duration = window;
  s.magnitude = stall_prob;
  s.period = stall;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::silent_corruption(net::Device& a, net::Device& b, fs_t at,
                                       fs_t window, double prob) {
  FaultSpec s;
  s.kind = FaultKind::kSilentCorruption;
  s.at = at;
  s.duration = window;
  s.magnitude = prob;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

FaultSpec FaultSpec::frozen_counter(net::Device& a, net::Device& b, fs_t at,
                                    fs_t window) {
  FaultSpec s;
  s.kind = FaultKind::kFrozenCounter;
  s.at = at;
  s.duration = window;
  s.a = a.name();
  s.b = b.name();
  return checked(s);
}

}  // namespace dtpsim::chaos
