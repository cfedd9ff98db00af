#pragma once

/// \file port_records.hpp
/// The per-port records of the quiet beacon cycle (DESIGN.md §14).
///
/// Everything a quiet beacon reads per port sits in one fixed-size record,
/// indexed by a 32-bit port id: the PHY's transmit and CDC state, the
/// direction of the cable the port transmits on, and the DTP port logic's
/// counter and beacon state. A record is three cache lines. The layer above
/// the PHY (dtp::PortLogic) owns its first kUpperBytes, the PHY
/// (phy::PhyPort) the rest. This table only allots the bytes: each layer
/// places its own struct in its half, pins the struct's size with a
/// static_assert, and constructs and destroys it with the object that owns
/// it. A bridged step names the port it acts on by its id, so the event
/// queue can prefetch the next step's record.
///
/// Ids are handed out in runs: a device reserves one run for all its ports
/// (net::Device::reserve_ports), so a device's records are contiguous in
/// port order. Every record starts on a fresh cache line, so no line holds
/// two ports' state and no two shards ever write one line. Ids are never
/// reused and records never move; the table goes with its Simulator.
///
/// Under AddressSanitizer a half is poisoned while no object owns it, so a
/// use of a destroyed port's or a crashed agent's state still faults.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define DTPSIM_RECORD_POISON 1
#else
#define DTPSIM_RECORD_POISON 0
#endif

namespace dtpsim::sim {

/// Fixed-size per-port records (see file comment). Not thread-safe to grow:
/// ports are built at set-up, never on a worker.
class PortRecords {
 public:
  static constexpr std::size_t kBytes = 192;       ///< three cache lines
  static constexpr std::size_t kUpperBytes = 104;  ///< dtp::PortLogic's half
  static constexpr std::size_t kPhyBytes = kBytes - kUpperBytes;
  static constexpr std::uint32_t kNoPort = 0xFFFFFFFFu;
  /// Longest run one allocate() hands out (one storage chunk).
  static constexpr std::uint32_t kMaxRun = 256;

  PortRecords() = default;
  ~PortRecords();
  PortRecords(const PortRecords&) = delete;
  PortRecords& operator=(const PortRecords&) = delete;

  /// Hand out `n` (1..kMaxRun) consecutive ids whose records are contiguous
  /// in memory. Both halves start poisoned under AddressSanitizer.
  std::uint32_t allocate(std::uint32_t n);

  /// One past the largest id handed out so far.
  std::uint32_t size() const { return next_; }

  std::byte* record(std::uint32_t id) {
    return chunks_[id >> kChunkShift][id & kChunkMask].bytes;
  }
  const std::byte* record(std::uint32_t id) const {
    return chunks_[id >> kChunkShift][id & kChunkMask].bytes;
  }
  std::byte* upper(std::uint32_t id) { return record(id); }
  std::byte* phy(std::uint32_t id) { return record(id) + kUpperBytes; }

  /// The objects that own a record's halves, for the paths that leave the
  /// record (fallbacks, hooks, the CDC's random draw). Null while unowned.
  void set_phy_owner(std::uint32_t id, void* owner) { owners_[id].phy = owner; }
  void set_upper_owner(std::uint32_t id, void* owner) { owners_[id].upper = owner; }
  void* phy_owner(std::uint32_t id) const { return owners_[id].phy; }
  void* upper_owner(std::uint32_t id) const { return owners_[id].upper; }

  /// A half comes into use (its owner is about to construct its struct
  /// there) or goes out of use (its owner destroyed it). Under
  /// AddressSanitizer these unpoison and poison the bytes.
  static void revive(void* half, std::size_t bytes) {
#if DTPSIM_RECORD_POISON
    ASAN_UNPOISON_MEMORY_REGION(half, bytes);
#else
    (void)half;
    (void)bytes;
#endif
  }
  static void retire(void* half, std::size_t bytes) {
#if DTPSIM_RECORD_POISON
    ASAN_POISON_MEMORY_REGION(half, bytes);
#else
    (void)half;
    (void)bytes;
#endif
  }

 private:
  struct alignas(64) Record {
    std::byte bytes[kBytes];
  };
  static_assert(sizeof(Record) == kBytes, "a record is three whole cache lines");

  struct Owners {
    void* phy = nullptr;
    void* upper = nullptr;
  };

  static constexpr std::uint32_t kChunkShift = 8;  // kMaxRun records, 48 KiB
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  static_assert(kMaxRun == 1u << kChunkShift, "a run never straddles two chunks");

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<Owners> owners_;
  std::uint32_t next_ = 0;
};

}  // namespace dtpsim::sim
