#pragma once

/// \file topology.hpp
/// Network container and topology builders.
///
/// `Network` owns every simulated object (devices, cables, traffic sources)
/// and assigns each device an oscillator offset sampled uniformly within the
/// 802.3 envelope plus a random tick phase, so no two tick grids align.
/// Builders construct the shapes the paper evaluates:
///
///   * `build_star`        — the PTP testbed (hosts around one switch);
///   * `build_paper_tree`  — Fig. 5: root S0, aggregation S1-S3, leaves
///                           S4-S11 (max 4 hops between leaves);
///   * `build_chain`       — D-hop linear chains for the 4TD bound sweep;
///   * `build_fat_tree`    — k-ary fat-tree (6 hops max for any k), the
///                           "longest distance in a Fat-tree" case cited in
///                           the abstract.

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/switch.hpp"
#include "net/traffic.hpp"
#include "phy/syntonize.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::net {

/// Knobs applied to every device/cable the Network creates.
struct NetworkParams {
  phy::LinkRate rate = phy::LinkRate::k10G;
  double ppm_spread = phy::kMaxPpm;  ///< device ppm ~ U[-spread, +spread]
  bool enable_drift = false;
  phy::DriftParams drift{};
  phy::Cable::Params cable{};        ///< default ~10 m, no bit errors
  SwitchParams switch_params{};
  MacParams mac{};
  phy::SyncFifoParams fifo{};
};

/// Owns a set of devices and the cables between them.
class Network {
 public:
  Network(sim::Simulator& sim, NetworkParams params = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& simulator() { return sim_; }
  const NetworkParams& params() const { return params_; }

  /// Create a host with an auto-assigned MAC address.
  Host& add_host(const std::string& name);
  /// Create a host with an explicit oscillator offset (tests).
  Host& add_host(const std::string& name, double ppm);

  /// Create a switch.
  Switch& add_switch(const std::string& name);
  Switch& add_switch(const std::string& name, double ppm);

  /// Cable two devices together: hosts use their single NIC port, switches
  /// grow a new port. Returns the cable.
  phy::Cable& connect(Device& a, Device& b);
  /// Cable two specific ports together.
  phy::Cable& connect_ports(phy::PhyPort& a, phy::PhyPort& b);

  /// Attach a traffic generator (owned by the network).
  TrafficGenerator& add_traffic(Host& src, MacAddr dst, TrafficParams tp);

  const std::vector<Host*>& hosts() const { return hosts_; }
  const std::vector<Switch*>& switches() const { return switches_; }
  const std::vector<sim::ArenaPtr<phy::Cable>>& cables() const { return cables_; }
  std::vector<Device*> devices() const;

  /// Look a device up by name (the repro-file key: every builder assigns
  /// deterministic names). O(1); nullptr if absent.
  Device* find_device(const std::string& name) const;

  /// Pre-size the device/cable registries (and the simulator's partition
  /// graph) for a topology of known size, so a 10k-device fat-tree builds in
  /// O(n) without per-registration reallocation.
  void reserve(std::size_t n_devices, std::size_t n_cables);

 private:
  DeviceParams make_device_params(double ppm);
  double sample_ppm();
  phy::PhyPort& attach_port(Device& d);

  sim::Simulator& sim_;
  NetworkParams params_;
  Rng rng_;
  std::uint64_t next_mac_ = 0x02'00'00'00'00'01ULL;  // locally administered
  // Devices and cables live in the simulator's arena, in construction
  // order (sim/arena.hpp).
  std::vector<sim::ArenaPtr<Device>> devices_;
  std::vector<Host*> hosts_;
  std::vector<Switch*> switches_;
  std::vector<sim::ArenaPtr<phy::Cable>> cables_;
  std::vector<std::unique_ptr<TrafficGenerator>> traffic_;
  std::unordered_map<std::string, Device*> by_name_;  ///< find_device index
};

/// Hosts around one switch (the paper's PTP testbed shape).
struct StarTopology {
  Switch* hub = nullptr;
  std::vector<Host*> hosts;
};
StarTopology build_star(Network& net, std::size_t n_hosts,
                        const std::string& prefix = "h");

/// The paper's Fig. 5 deployment: S0 root switch; S1-S3 aggregation
/// switches; leaf servers S4-S11 (S1: S4-S6, S2: S7-S8, S3: S9-S11).
struct PaperTreeTopology {
  Switch* root = nullptr;                ///< S0
  std::array<Switch*, 3> aggs{};         ///< S1, S2, S3
  std::vector<Host*> leaves;             ///< S4 ... S11
  /// Which aggregation switch a leaf hangs off (index into aggs).
  std::array<std::size_t, 8> agg_of_leaf{};
};
PaperTreeTopology build_paper_tree(Network& net);

/// host - switch_1 - ... - switch_n - host. Hop count between the two hosts
/// is n_switches + 1.
struct ChainTopology {
  Host* left = nullptr;
  Host* right = nullptr;
  std::vector<Switch*> switches;
};
ChainTopology build_chain(Network& net, std::size_t n_switches);

/// Random tree over `n_switches` switches ("sw0".."swN-1", sw0 the root:
/// each switch i >= 1 hangs off a uniform switch j < i) with `n_hosts`
/// hosts ("h0".."hM-1") on uniform switches. The shape is a pure function
/// of `shape_seed`, independent of the network's own RNG, so a stress spec
/// can name it by seed. Used by the fuzzer's topology sampling.
struct RandomTreeTopology {
  std::vector<Switch*> switches;
  std::vector<Host*> hosts;
};
RandomTreeTopology build_random_tree(Network& net, std::uint64_t shape_seed,
                                     std::size_t n_switches, std::size_t n_hosts);

/// SyncE-style frequency syntonization over a network (Section 8 of the
/// paper): breadth-first from `root`, each device's oscillator is
/// frequency-locked to its BFS parent's. Returns the PLLs (they must stay
/// alive for the lock to persist); they are already started.
std::vector<std::unique_ptr<phy::Syntonizer>> syntonize_tree(
    Network& net, Device& root, phy::SyntonizeParams params = {});

/// k-ary fat-tree: (k/2)^2 cores, k pods of k/2 agg + k/2 edge switches,
/// `hosts_per_edge` hosts per edge switch (default -1 = the canonical k/2).
/// k must be even and >= 2. Overriding hosts_per_edge decouples the host
/// count from the switching fabric — e.g. k=16 with 4 hosts/edge yields 512
/// hosts at fat-tree diameter 6 without the 1024-host canonical build, and
/// values above k/2 oversubscribe the edge tier (more hosts than uplink
/// bandwidth, the common datacenter deployment shape).
struct FatTreeParams {
  int k = 4;
  /// Hosts per edge switch; -1 = canonical k/2. Values > k/2 oversubscribe.
  int hosts_per_edge = -1;
  /// How many of the k pods to build; -1 = all k. A smaller slice keeps the
  /// full core tier and per-pod shape (for trimmed CI runs of a big k).
  int pods = -1;
};
struct FatTreeTopology {
  int k = 0;
  int pods = 0;  ///< pods actually built
  std::vector<Switch*> core;
  std::vector<Switch*> agg;    ///< pod-major order
  std::vector<Switch*> edge;   ///< pod-major order
  std::vector<Host*> hosts;    ///< edge-major order
};
/// Builds the fabric in O(n): registries are reserved ahead, devices are
/// indexed by name as they are created, and every device is tagged with its
/// pod id (cores stay unassigned) so Simulator::set_threads partitions
/// two-level — whole pods become super-shards and only pod-to-core uplinks
/// are cut (partition.hpp).
FatTreeTopology build_fat_tree(Network& net, const FatTreeParams& params);
FatTreeTopology build_fat_tree(Network& net, int k, int hosts_per_edge = -1);

/// Every connected cable as the pair of devices it joins, in the order the
/// cables were made, each pair oriented as cabled (port_a's device first).
std::vector<std::pair<Device*, Device*>> cabled_devices(const Network& net);

/// The network's hop diameter D, the D of the paper's 4TD bound (§3.3): the
/// longest shortest path, in cables, between any two devices, by a BFS from
/// every device (exact on any graph, unlike a double BFS, which is exact only
/// on trees). Disconnected cables do not count; pairs with no path are
/// ignored.
std::size_t hop_diameter(const Network& net);

}  // namespace dtpsim::net
