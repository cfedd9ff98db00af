/// Time-slotted packet scheduling over DTP time — the Fastpass/R2C2-style
/// use case from the paper's introduction: with ~100 ns synchronized
/// clocks, senders can share a link in fine-grained time slots.
///
/// Three servers with worst-case crystals behind one switch run
/// `apps::TdmaApp`: a repeating round of 3.2 us slots, one per sender, each
/// shrunk by a 0.8 us guard band on both sides. A sender aims with its
/// daemon's timebase page; the verdict reads the NIC's hardware DTP counter
/// as the frame leaves, and a frame outside its guarded window is a miss.
///
/// For contrast, the example computes how soon free-running crystals at the
/// same rates would drift a full guard band apart.
///
/// Build & run:  ./build/examples/packet_scheduling

#include <cstdio>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"

using namespace dtpsim;

int main() {
  sim::Simulator sim(17);
  net::Network net(sim);
  auto& hub = net.add_switch("hub", 0.0);
  const double ppm[] = {+100.0, -100.0, 0.0};  // worst-case opposite skews
  std::vector<net::Host*> senders;
  for (int i = 0; i < 3; ++i) {
    senders.push_back(&net.add_host("s" + std::to_string(i), ppm[i]));
    net.connect(hub, *senders.back());
  }
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);

  apps::AppHarnessParams hp;
  hp.daemon.poll_period = from_ms(1);
  hp.daemon.sample_period = 0;
  hp.tdma_senders = {0, 1, 2};
  apps::AppHarness harness(sim, dtp, senders, hp);
  const fs_t start = from_ms(5);  // DTP converges and daemons calibrate first
  const fs_t until = from_ms(45);
  harness.start_daemons();
  harness.start_apps(start);
  sim.run_until(until);

  const apps::TdmaSenderStats tdma = harness.tdma()->total();
  const double unit_ns = apps::ns_per_unit(harness.daemon(0));
  const double guard_ns = static_cast<double>(apps::kTdmaGuardUnits) * unit_ns;
  std::printf("three senders, %.1f us slots with %.1f us guard bands, %.0f ms of schedule\n\n",
              static_cast<double>(apps::kTdmaSlotUnits) * unit_ns / 1e3, guard_ns / 1e3,
              to_ns_f(until - start) / 1e6);
  std::printf("DTP-synchronized slots:\n");
  std::printf("  frames sent:             %llu\n", static_cast<unsigned long long>(tdma.sends));
  std::printf("  outside the guard bands: %llu\n", static_cast<unsigned long long>(tdma.misses));
  std::printf("  fired on a stale page:   %llu\n",
              static_cast<unsigned long long>(tdma.stale_fires));

  const double gap_ppm = ppm[0] - ppm[1];
  std::printf("\nfree-running crystals %.0f ppm apart drift a full %.1f us guard band apart\n"
              "within %.1f ms, after which slots collide. With DTP the whole schedule\n"
              "runs inside its windows — the paper's packet-scheduling pitch.\n",
              gap_ppm, guard_ns / 1e3, guard_ns / (gap_ppm * 1e-6) / 1e6);
  return tdma.sends > 0 && tdma.misses == 0 ? 0 : 1;
}
