// Round-trip and strictness tests for the fault-line serializer — the
// grammar every stress repro file writes its fault schedule in — and for
// the engine's resolution of the names a FaultSpec carries.

#include <gtest/gtest.h>

#include <cmath>

#include "chaos/engine.hpp"
#include "chaos/serialize.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

using namespace dtpsim;

namespace {

chaos::FaultSpec sample_spec() {
  chaos::FaultSpec d;
  d.kind = chaos::FaultKind::kFlapStorm;
  d.a = "S1";
  d.b = "S4";
  d.at = from_ms(3);
  d.duration = from_us(40);
  d.count = 5;
  d.period = from_us(120);
  d.magnitude = 0.25;
  return d;
}

/// Every fault of `plan` written as a line and parsed back.
chaos::FaultPlan through_lines(const chaos::FaultPlan& plan) {
  chaos::FaultPlan back;
  for (const chaos::FaultSpec& f : plan.faults)
    back.add(chaos::fault_from_line(chaos::fault_to_line(f)));
  return back;
}

}  // namespace

TEST(ChaosSerialize, FaultLineRoundTripsEveryField) {
  chaos::FaultSpec d = sample_spec();
  d.probe_threshold_ticks = 6.5;
  d.probe_sample_period = from_us(3);
  d.probe_timeout = from_ms(2);
  d.label = "a label with spaces";

  const chaos::FaultSpec back = chaos::fault_from_line(chaos::fault_to_line(d));
  EXPECT_EQ(d, back);
}

TEST(ChaosSerialize, DoublesRoundTripBitExactly) {
  chaos::FaultSpec d = sample_spec();
  d.kind = chaos::FaultKind::kBerBurst;
  d.magnitude = 2.7182818284590452e-5;  // needs all 17 significant digits
  const chaos::FaultSpec back = chaos::fault_from_line(chaos::fault_to_line(d));
  EXPECT_EQ(d.magnitude, back.magnitude);
}

TEST(ChaosSerialize, NodeFaultOmitsSecondEndpoint) {
  chaos::FaultSpec d;
  d.kind = chaos::FaultKind::kNodeCrash;
  d.a = "S7";
  d.at = from_ms(4);
  d.duration = from_us(300);
  const std::string line = chaos::fault_to_line(d);
  EXPECT_EQ(line.find(" b="), std::string::npos) << line;
  EXPECT_EQ(d, chaos::fault_from_line(line));
}

TEST(ChaosSerialize, PcieStormIsNotSerializable) {
  // A storm targets a daemon, which has no device name to write.
  chaos::FaultSpec d;
  d.kind = chaos::FaultKind::kPcieStorm;
  EXPECT_THROW(chaos::fault_to_line(d), std::invalid_argument);
}

TEST(ChaosSerialize, MalformedLinesThrow) {
  const char* bad[] = {
      "flt kind=link_flap a=x b=y at=0 dur=0 count=1 period=0 mag=0",  // bad head
      "fault kind=volcano a=x b=y at=0 dur=0 count=1 period=0 mag=0",  // bad kind
      "fault kind=link_flap a=x at=0 dur=0 count=1 period=0 mag=0",    // missing b
      "fault kind=link_flap a=x b=y at=0 dur=0 count=1 period=0",      // missing mag
      "fault kind=link_flap a=x b=y at=zero dur=0 count=1 period=0 mag=0",
      "fault kind=link_flap a=x b=y at=0 at=1 dur=0 count=1 period=0 mag=0",
      "fault kind=link_flap a=x b=y at=0 dur=0 count=1 period=0 mag=0 bogus=1",
      "fault kind=link_flap a=x b=y at=0 dur=0 count=1 period=0 mag=0 naked-token",
      // Values that do not fit their field.
      "fault kind=link_flap a=x b=y at=0 dur=0 count=4294967300 period=0 mag=0",
      "fault kind=link_flap a=x b=y at=-1 dur=0 count=1 period=0 mag=0",
      "fault kind=link_flap a=x b=y at=0 dur=-5 count=1 period=0 mag=0",
      "fault kind=link_flap a=x b=y at=0 dur=0 count=-1 period=0 mag=0",
      "fault kind=link_flap a=x b=y at=+0 dur=0 count=1 period=0 mag=0",
      "fault kind=link_flap a=x b=y at=0 dur=0 count=1 period=0 mag=nan",
      "fault kind=link_flap a=x b=y at=9223372036854775808 dur=0 count=1 period=0 mag=0",
      // Each value fits, but the fault's end (fault_end) does not.
      "fault kind=link_flap a=x b=y at=9223372036854775807 dur=1 count=1 period=0 mag=0",
      "fault kind=flap_storm a=x b=y at=1 dur=1 count=4 period=3074457345618258602 mag=0",
      "fault kind=stratum_flap a=x at=0 dur=0 count=2 period=4611686018427387904 mag=5",
  };
  for (const char* line : bad)
    EXPECT_THROW(chaos::fault_from_line(line), std::invalid_argument) << line;
  // The last representable end is fine.
  EXPECT_NO_THROW(chaos::fault_from_line(
      "fault kind=link_flap a=x b=y at=9223372036854775806 dur=1 count=1 period=0 mag=0"));
}

TEST(ChaosSerialize, PlanRoundTripsThroughALiveTopology) {
  sim::Simulator sim(11);
  net::Network net(sim);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtpn = dtp::enable_dtp(net);

  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::link_flap(*topo.root, *topo.aggs[0], from_ms(3), from_us(80)));
  plan.add(chaos::FaultSpec::ber_burst(*topo.aggs[1], *topo.leaves[3], from_ms(4),
                                       from_us(150), 1e-5));
  plan.add(chaos::FaultSpec::node_crash(*topo.leaves[7], from_ms(5), from_us(250)));
  // The named constructors store the devices' names.
  EXPECT_EQ(plan.faults[0].a, "S0");
  EXPECT_EQ(plan.faults[0].b, "S1");
  EXPECT_EQ(plan.faults[2].a, "S11");
  EXPECT_EQ(plan.faults[2].b, "");

  const chaos::FaultPlan back = through_lines(plan);
  EXPECT_EQ(back.faults, plan.faults);
  // The parsed plan resolves against the live network.
  chaos::ChaosEngine engine(net, dtpn);
  EXPECT_NO_THROW(engine.schedule(back));
}

TEST(ChaosSerialize, SourceFaultsRoundTripThroughALiveTopology) {
  // The four source-level fault kinds ride the same grammar: the hosting
  // device name in a= (island_partition is a link fault: a= and b=), timing
  // in at/dur, flaps in count/period, the lie / alternate stratum in mag.
  sim::Simulator sim(14);
  net::Network net(sim);
  net::PaperTreeTopology topo = net::build_paper_tree(net);

  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::gps_loss(*topo.leaves[0], from_ms(3), from_ms(1)));
  plan.add(chaos::FaultSpec::rogue_grandmaster(*topo.leaves[0], from_ms(5), 2000.0,
                                               from_ms(2), from_us(500)));
  plan.add(chaos::FaultSpec::island_partition(*topo.root, *topo.aggs[2], from_ms(8),
                                              from_ms(2)));
  plan.add(chaos::FaultSpec::stratum_flap(*topo.leaves[3], from_ms(11), 4,
                                          from_us(200), 5));

  std::string text;
  for (const chaos::FaultSpec& f : plan.faults) text += chaos::fault_to_line(f) + "\n";
  for (const char* name :
       {"gps_loss", "rogue_grandmaster", "island_partition", "stratum_flap"})
    EXPECT_NE(text.find(std::string("kind=") + name), std::string::npos) << text;

  EXPECT_EQ(through_lines(plan).faults, plan.faults);
}

TEST(ChaosSerialize, SourceFaultStrictness) {
  // island_partition is a link fault and must carry both endpoints; a
  // misspelled source kind fails loudly, never silently skips.
  EXPECT_THROW(
      chaos::fault_from_line(
          "fault kind=island_partition a=S0 at=0 dur=0 count=1 period=0 mag=0"),
      std::invalid_argument);
  EXPECT_THROW(
      chaos::fault_from_line(
          "fault kind=gps_lost a=S4 at=0 dur=0 count=1 period=0 mag=0"),
      std::invalid_argument);
}

TEST(ChaosSerialize, GrayFaultsRoundTripThroughALiveTopology) {
  // The four gray-failure kinds (DESIGN.md §15) are link faults riding the
  // same grammar: direction in a=/b= order, the magnitude knob in mag=
  // (stall / corruption probability), the latency / stall span in period=.
  sim::Simulator sim(15);
  net::Network net(sim);
  net::PaperTreeTopology topo = net::build_paper_tree(net);

  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::asymmetric_delay(*topo.root, *topo.aggs[0], from_ms(3),
                                              from_ms(2), from_ns(52)));
  plan.add(chaos::FaultSpec::limping_port(*topo.leaves[2], *topo.aggs[0], from_ms(6),
                                          from_ms(2), 0.3, from_ns(90)));
  plan.add(chaos::FaultSpec::silent_corruption(*topo.leaves[4], *topo.aggs[1],
                                               from_ms(9), from_ms(2), 0.8));
  plan.add(chaos::FaultSpec::frozen_counter(*topo.leaves[6], *topo.aggs[2],
                                            from_ms(12), from_ms(2)));
  plan.faults.back().label = "gray:frozen_counter";
  plan.faults.back().probe_timeout = from_ms(5);

  std::string text;
  for (const chaos::FaultSpec& f : plan.faults) text += chaos::fault_to_line(f) + "\n";
  for (const char* name : {"asymmetric_delay", "limping_port", "silent_corruption",
                           "frozen_counter"})
    EXPECT_NE(text.find(std::string("kind=") + name), std::string::npos) << text;

  EXPECT_EQ(through_lines(plan).faults, plan.faults);
}

TEST(ChaosSerialize, GrayKindsRejectMisspellingsAndMissingEndpoints) {
  // Every gray kind is a link fault: a missing b= endpoint or an unknown
  // kind spelling must fail loudly — a dropped gray fault IS a gray failure.
  EXPECT_THROW(
      chaos::fault_from_line(
          "fault kind=frozen_counter a=S4 at=0 dur=1 count=1 period=0 mag=0"),
      std::invalid_argument);
  EXPECT_THROW(
      chaos::fault_from_line(
          "fault kind=asymetric_delay a=S0 b=S1 at=0 dur=1 count=1 period=50 mag=0"),
      std::invalid_argument);
  EXPECT_THROW(
      chaos::fault_from_line(
          "fault kind=limping a=S4 b=S1 at=0 dur=1 count=1 period=90 mag=0.3"),
      std::invalid_argument);
}

TEST(ChaosSerialize, FaultLinesObeyTheNamedConstructorsRules) {
  // A line the named constructors would refuse must not parse either: it
  // would otherwise replay as a clean run, or fail only once it fires.
  const char* bad[] = {
      "fault kind=ber_burst a=S0 b=S1 at=0 dur=1 count=1 period=0 mag=7.5",
      "fault kind=ber_burst a=S0 b=S1 at=0 dur=1 count=1 period=0 mag=-1e-9",
      "fault kind=beacon_loss a=S0 b=S1 at=0 dur=1 count=1 period=0 mag=-2",
      "fault kind=limping_port a=S4 b=S1 at=0 dur=0 count=1 period=90 mag=0.3",
      "fault kind=limping_port a=S4 b=S1 at=0 dur=1 count=1 period=90 mag=-3",
      "fault kind=limping_port a=S4 b=S1 at=0 dur=1 count=1 period=0 mag=0.3",
      "fault kind=silent_corruption a=S4 b=S1 at=0 dur=1 count=1 period=0 mag=1.5",
      "fault kind=silent_corruption a=S4 b=S1 at=0 dur=0 count=1 period=0 mag=0.5",
      "fault kind=asymmetric_delay a=S0 b=S1 at=0 dur=1 count=1 period=0 mag=0",
      "fault kind=frozen_counter a=S4 b=S1 at=0 dur=0 count=1 period=0 mag=0",
  };
  for (const char* line : bad)
    EXPECT_THROW(chaos::fault_from_line(line), std::invalid_argument) << line;
  // The rules' edges parse.
  for (const char* line : {
           "fault kind=ber_burst a=S0 b=S1 at=0 dur=1 count=1 period=0 mag=0",
           "fault kind=ber_burst a=S0 b=S1 at=0 dur=1 count=1 period=0 mag=1",
           "fault kind=beacon_loss a=S0 b=S1 at=0 dur=1 count=1 period=0 mag=1",
           "fault kind=limping_port a=S4 b=S1 at=0 dur=1 count=1 period=1 mag=0",
           "fault kind=rogue_oscillator a=S4 at=0 dur=1 count=1 period=0 mag=-500",
       })
    EXPECT_NO_THROW(chaos::fault_from_line(line)) << line;
}

TEST(ChaosSerialize, NamedConstructorsApplyTheSameRules) {
  sim::Simulator sim(16);
  net::Network net(sim);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  net::Device& a = *topo.root;
  net::Device& b = *topo.aggs[0];
  EXPECT_THROW(chaos::FaultSpec::ber_burst(a, b, 0, 1, 7.5), std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::beacon_loss(a, b, 0, 1, -2), std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::rogue_oscillator(a, 0, std::nan(""), 1, 1),
               std::invalid_argument);
  EXPECT_THROW(chaos::FaultSpec::rogue_grandmaster(a, 0, HUGE_VAL, 1, 1),
               std::invalid_argument);
}

TEST(ChaosSerialize, UnresolvableDeviceNameThrows) {
  sim::Simulator sim(12);
  net::Network net(sim);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtpn = dtp::enable_dtp(net);
  chaos::ChaosEngine engine(net, dtpn);

  // A valid fault ahead of one naming a device this topology lacks: the
  // schedule throws before either is scheduled.
  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::link_flap(*topo.root, *topo.aggs[0], from_ms(3), from_us(80)));
  chaos::FaultSpec unknown = sample_spec();
  unknown.a = "S99";
  plan.add(unknown);
  EXPECT_THROW(engine.schedule(plan), std::invalid_argument);
  EXPECT_TRUE(engine.all_probes_done()) << "nothing may be scheduled";
}
