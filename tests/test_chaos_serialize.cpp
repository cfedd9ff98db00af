// Round-trip and strictness tests for the chaos plan <-> text serializer —
// the grammar every stress repro file embeds its fault schedule in.

#include <gtest/gtest.h>

#include "chaos/engine.hpp"
#include "chaos/serialize.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

using namespace dtpsim;

namespace {

chaos::FaultDescriptor sample_descriptor() {
  chaos::FaultDescriptor d;
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

}  // namespace

TEST(ChaosSerialize, FaultLineRoundTripsEveryField) {
  chaos::FaultDescriptor d = sample_descriptor();
  d.probe_threshold_ticks = 6.5;
  d.probe_sample_period = from_us(3);
  d.probe_timeout = from_ms(2);
  d.label = "a label with spaces";

  const chaos::FaultDescriptor back = chaos::fault_from_line(chaos::fault_to_line(d));
  EXPECT_EQ(d, back);
}

TEST(ChaosSerialize, DoublesRoundTripBitExactly) {
  chaos::FaultDescriptor d = sample_descriptor();
  d.kind = chaos::FaultKind::kBerBurst;
  d.magnitude = 2.7182818284590452e-5;  // needs all 17 significant digits
  const chaos::FaultDescriptor back = chaos::fault_from_line(chaos::fault_to_line(d));
  EXPECT_EQ(d.magnitude, back.magnitude);
}

TEST(ChaosSerialize, NodeFaultOmitsSecondEndpoint) {
  chaos::FaultDescriptor d;
  d.kind = chaos::FaultKind::kNodeCrash;
  d.a = "S7";
  d.at = from_ms(4);
  d.duration = from_us(300);
  const std::string line = chaos::fault_to_line(d);
  EXPECT_EQ(line.find(" b="), std::string::npos) << line;
  EXPECT_EQ(d, chaos::fault_from_line(line));
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
  };
  for (const char* line : bad)
    EXPECT_THROW(chaos::fault_from_line(line), std::invalid_argument) << line;
}

TEST(ChaosSerialize, PlanRoundTripsThroughALiveTopology) {
  sim::Simulator sim(11);
  net::Network net(sim);
  net::PaperTreeTopology topo = net::build_paper_tree(net);

  chaos::FaultPlan plan;
  plan.add(chaos::FaultSpec::link_flap(*topo.root, *topo.aggs[0], from_ms(3), from_us(80)));
  plan.add(chaos::FaultSpec::ber_burst(*topo.aggs[1], *topo.leaves[3], from_ms(4),
                                       from_us(150), 1e-5));
  plan.add(chaos::FaultSpec::node_crash(*topo.leaves[7], from_ms(5), from_us(250)));

  const std::string text = chaos::plan_to_text(plan);
  chaos::FaultPlan back = chaos::plan_from_text(text, net);

  ASSERT_EQ(back.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(back.faults[i].kind, plan.faults[i].kind);
    EXPECT_EQ(back.faults[i].link_a, plan.faults[i].link_a);
    EXPECT_EQ(back.faults[i].link_b, plan.faults[i].link_b);
    EXPECT_EQ(back.faults[i].device, plan.faults[i].device);
    EXPECT_EQ(back.faults[i].at, plan.faults[i].at);
    EXPECT_EQ(back.faults[i].duration, plan.faults[i].duration);
    EXPECT_EQ(back.faults[i].magnitude, plan.faults[i].magnitude);
  }
  // Serializing the parsed plan reproduces the text byte for byte.
  EXPECT_EQ(chaos::plan_to_text(back), text);
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

  const std::string text = chaos::plan_to_text(plan);
  for (const char* name :
       {"gps_loss", "rogue_grandmaster", "island_partition", "stratum_flap"})
    EXPECT_NE(text.find(std::string("kind=") + name), std::string::npos) << text;

  chaos::FaultPlan back = chaos::plan_from_text(text, net);
  ASSERT_EQ(back.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(back.faults[i].kind, plan.faults[i].kind);
    EXPECT_EQ(back.faults[i].device, plan.faults[i].device);
    EXPECT_EQ(back.faults[i].link_a, plan.faults[i].link_a);
    EXPECT_EQ(back.faults[i].link_b, plan.faults[i].link_b);
    EXPECT_EQ(back.faults[i].at, plan.faults[i].at);
    EXPECT_EQ(back.faults[i].duration, plan.faults[i].duration);
    EXPECT_EQ(back.faults[i].count, plan.faults[i].count);
    EXPECT_EQ(back.faults[i].period, plan.faults[i].period);
    EXPECT_EQ(back.faults[i].magnitude, plan.faults[i].magnitude);
  }
  EXPECT_EQ(chaos::plan_to_text(back), text);
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

  const std::string text = chaos::plan_to_text(plan);
  for (const char* name : {"asymmetric_delay", "limping_port", "silent_corruption",
                           "frozen_counter"})
    EXPECT_NE(text.find(std::string("kind=") + name), std::string::npos) << text;

  chaos::FaultPlan back = chaos::plan_from_text(text, net);
  ASSERT_EQ(back.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(back.faults[i].kind, plan.faults[i].kind);
    EXPECT_EQ(back.faults[i].link_a, plan.faults[i].link_a);
    EXPECT_EQ(back.faults[i].link_b, plan.faults[i].link_b);
    EXPECT_EQ(back.faults[i].at, plan.faults[i].at);
    EXPECT_EQ(back.faults[i].duration, plan.faults[i].duration);
    EXPECT_EQ(back.faults[i].period, plan.faults[i].period);
    EXPECT_EQ(back.faults[i].magnitude, plan.faults[i].magnitude);
    EXPECT_EQ(back.faults[i].label, plan.faults[i].label);
    EXPECT_EQ(back.faults[i].probe_timeout, plan.faults[i].probe_timeout);
  }
  EXPECT_EQ(chaos::plan_to_text(back), text);
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

TEST(ChaosSerialize, UnresolvableDeviceNameThrows) {
  sim::Simulator sim(12);
  net::Network net(sim);
  net::build_paper_tree(net);

  chaos::FaultDescriptor d = sample_descriptor();
  d.a = "S99";
  EXPECT_THROW(chaos::realize(d, net), std::invalid_argument);
}

TEST(ChaosSerialize, PlanTextRequiresHeaderAndFooter) {
  sim::Simulator sim(13);
  net::Network net(sim);
  net::build_paper_tree(net);

  EXPECT_THROW(chaos::plan_from_text("dtp-chaos-plan v2\nend\n", net),
               std::invalid_argument);
  EXPECT_THROW(chaos::plan_from_text("dtp-chaos-plan v1\n", net), std::invalid_argument);
  EXPECT_NO_THROW(chaos::plan_from_text("dtp-chaos-plan v1\nend\n", net));
}
