#pragma once

/// \file arena.hpp
/// Bump arena for the objects a simulated network is built from.
///
/// A Simulator owns one Arena. Devices, PHY ports, cables, DTP agents and
/// port logics are placed in it in construction order, so a device's ports
/// sit next to each other and the objects a quiet beacon cycle reads are
/// contiguous instead of scattered over the general-purpose heap. Their
/// owners destroy them as before (an ArenaPtr runs the destructor); the
/// memory itself returns when the Arena, i.e. the Simulator, is destroyed.
/// Every such object holds a `Simulator&` and is destroyed before it.
///
/// Under AddressSanitizer a destroyed object's bytes are poisoned, so a use
/// after a node crash (an agent torn down mid-run) still faults, as it did
/// when each object had its own heap allocation.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define DTPSIM_ARENA_POISON 1
#else
#define DTPSIM_ARENA_POISON 0
#endif

namespace dtpsim::sim {

/// Deleter for arena objects: runs the destructor and leaves the memory to
/// the arena. Under AddressSanitizer it also poisons the object's bytes; it
/// then carries their count, since a Device pointer may hold a Switch.
struct ArenaDelete {
#if DTPSIM_ARENA_POISON
  std::size_t bytes = 0;
#endif
  template <typename T>
  void operator()(T* p) const noexcept {
#if DTPSIM_ARENA_POISON
    void* base = p;
    if constexpr (std::is_polymorphic_v<T>) base = dynamic_cast<void*>(p);
    p->~T();
    ASAN_POISON_MEMORY_REGION(base, bytes);
#else
    p->~T();
#endif
  }
};

/// Owning pointer to an arena object.
template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDelete>;

/// Append-only object arena (see file comment). Not thread-safe: objects
/// are built at set-up or at coordinator sync points, never on a worker.
class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Construct a T at the arena's end.
  template <typename T, typename... Args>
  ArenaPtr<T> make(Args&&... args) {
    static_assert(alignof(T) <= static_cast<std::size_t>(kBlockAlign),
                  "arena blocks are only cache-line aligned");
    T* obj = ::new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
#if DTPSIM_ARENA_POISON
    return ArenaPtr<T>(obj, ArenaDelete{sizeof(T)});
#else
    return ArenaPtr<T>(obj);
#endif
  }

 private:
  /// Blocks are cache-line aligned; a larger object gets a block of its own.
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;
  static constexpr std::align_val_t kBlockAlign{64};

  struct Block {
    std::byte* base;
    std::size_t bytes;
  };

  void* allocate(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
};

}  // namespace dtpsim::sim
