/// Table 1 — NTP vs PTP vs GPS vs DTP.
///
/// The paper's comparison: precision, scalability, packet overhead, and
/// extra hardware. Precision and overhead are *measured* here by running
/// each protocol on an equivalent simulated testbed; scalability and
/// hardware are the paper's qualitative columns, reproduced for reference.
///
///   protocol  precision  scalability  overhead(pckts)  extra hardware
///   NTP       us         Good         Moderate         None
///   PTP       sub-us     Good         Moderate         PTP-enabled devices
///   GPS       ns         Bad          None             receivers + cables
///   DTP       ns         Good         None             DTP-enabled devices

#include <cstdio>

#include "common/table.hpp"
#include "bench_util.hpp"
#include "dtp/daemon.hpp"
#include "experiments.hpp"
#include "ntp/ntp.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

namespace {

/// Measured NTP precision (worst client error, ns) + packets per second.
struct ProtoResult {
  double precision_ns;
  double packets_per_sec;
};

ProtoResult run_ntp(fs_t duration, std::uint64_t seed) {
  // A timeserver and two clients around one switch.
  stress::Scenario s;
  s.dtp.reset();
  s.topology = [](net::Network& net) { return net::build_star(net, 3).hosts; };
  s.ntp = ntp::NtpClientParams{};
  s.ntp->poll_interval = from_ms(250);
  s.horizon = duration;
  stress::Campaign c(std::move(s), stress::RunOptions(seed));
  c.run();
  double worst = 0;
  std::uint64_t pkts = 0;
  for (const auto& client : c.ntp_clients()) {
    worst = std::max(worst, tail_max_abs(client->true_series(), 0.4));
    pkts += 2 * client->polls_sent();  // request + response
  }
  return {worst, static_cast<double>(pkts) / to_sec_f(duration)};
}

ProtoResult run_ptp(fs_t duration, std::uint64_t seed) {
  PtpStarExperiment exp(seed, 2, /*time_scale=*/4);
  exp.sim.run_until(duration);
  double worst = 0;
  for (auto& c : exp.clients) worst = std::max(worst, tail_max_abs(c->true_series(), 0.4));
  std::uint64_t pkts = exp.gm->packets_sent();
  for (auto& c : exp.clients) pkts += c->packets_sent();
  return {worst, static_cast<double>(pkts) / to_sec_f(duration)};
}

ProtoResult run_gps(fs_t duration, std::uint64_t seed) {
  // GPS: each server disciplines its clock to the satellite signal
  // directly; per-receiver error is ~dozens of ns (the paper cites ~100 ns
  // pairwise in practice). No network packets at all.
  Rng rng(seed);
  double worst = 0;
  const int samples = static_cast<int>(to_sec_f(duration) * 10);
  for (int i = 0; i < samples; ++i) {
    const double a = rng.normal(0.0, 35.0);  // receiver A error (ns)
    const double b = rng.normal(0.0, 35.0);  // receiver B error (ns)
    worst = std::max(worst, std::abs(a - b));
  }
  return {worst, 0.0};
}

ProtoResult run_dtp(fs_t duration, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  auto star = net::build_star(net, 3);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  sim.run_until(from_ms(2));
  double worst_ticks = 0;
  while (sim.now() < duration) {
    sim.run_until(sim.now() + from_us(100));
    worst_ticks = std::max(worst_ticks, dtp.max_pairwise_offset_ticks(sim.now()));
  }
  // Frame overhead: count every frame any NIC sent (must be zero).
  std::uint64_t frames = 0;
  for (auto* h : star.hosts) frames += h->nic().stats().tx_frames;
  for (std::size_t p = 0; p < star.hub->port_count(); ++p)
    frames += star.hub->mac(p).stats().tx_frames;
  return {worst_ticks * 6.4, static_cast<double>(frames) / to_sec_f(duration)};
}

std::string fmt_precision(double ns) {
  if (ns < 1'000) return Table::cell("%.0f ns", ns);
  if (ns < 1'000'000) return Table::cell("%.1f us", ns / 1e3);
  return Table::cell("%.1f ms", ns / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fs_t duration = duration_flag(flags, 20.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6010));

  banner("Table 1  NTP vs PTP vs GPS vs DTP");

  const ProtoResult ntp = run_ntp(duration, seed);
  const ProtoResult ptp = run_ptp(duration, seed + 1);
  const ProtoResult gps = run_gps(duration, seed + 2);
  const ProtoResult dtp = run_dtp(std::min(duration, from_sec(2)), seed + 3);

  Table t({"", "Precision (measured)", "Scalability", "Overhead (pckts/s)",
           "Extra hardware"});
  t.add_row({"NTP", fmt_precision(ntp.precision_ns), "Good",
             Table::cell("%.1f", ntp.packets_per_sec), "None"});
  t.add_row({"PTP", fmt_precision(ptp.precision_ns), "Good",
             Table::cell("%.1f", ptp.packets_per_sec), "PTP-enabled devices"});
  t.add_row({"GPS", fmt_precision(gps.precision_ns), "Bad",
             Table::cell("%.1f", gps.packets_per_sec), "Timing signal receivers, cables"});
  t.add_row({"DTP", fmt_precision(dtp.precision_ns), "Good",
             Table::cell("%.1f", dtp.packets_per_sec), "DTP-enabled devices"});
  std::printf("\n%s\n", t.render().c_str());

  const bool pass =
      benchutil::check("NTP lands at microsecond scale (paper: us)",
                       ntp.precision_ns > 1'000 && ntp.precision_ns < 1'000'000) &
      benchutil::check("PTP lands at sub-microsecond scale when idle (paper: sub-us)",
                       ptp.precision_ns > 10 && ptp.precision_ns < 2'000) &
      benchutil::check("GPS lands at nanosecond scale (paper: ns)", gps.precision_ns < 1'000) &
      benchutil::check("DTP lands at nanosecond scale (paper: ns)", dtp.precision_ns < 60.0) &
      benchutil::check("DTP sends zero packets", dtp.packets_per_sec == 0.0) &
      benchutil::check("GPS sends zero packets", gps.packets_per_sec == 0.0) &
      benchutil::check("NTP/PTP have real packet overhead",
                       ntp.packets_per_sec > 1 && ptp.packets_per_sec > 1);
  BenchJson json;
  json.add("bench", std::string("table1_comparison"));
  json.add("ntp_precision_ns", ntp.precision_ns);
  json.add("ptp_precision_ns", ptp.precision_ns);
  json.add("gps_precision_ns", gps.precision_ns);
  json.add("dtp_precision_ns", dtp.precision_ns);
  json.add("pass", pass);
  json.write(json_out_path(flags, "table1_comparison"));
  return pass ? 0 : 1;
}
