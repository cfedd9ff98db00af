#include "sim/arena.hpp"

#include <cstdint>

namespace dtpsim::sim {

Arena::~Arena() {
  for (const Block& b : blocks_) {
#if DTPSIM_ARENA_POISON
    ASAN_UNPOISON_MEMORY_REGION(b.base, b.bytes);
#endif
    ::operator delete(b.base, b.bytes, kBlockAlign);
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  const auto cur = reinterpret_cast<std::uintptr_t>(cur_);
  std::uintptr_t p = (cur + align - 1) / align * align;
  if (cur_ == nullptr || p + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
    // Start a new block and abandon the old one's tail: objects are a few
    // hundred bytes, so that wastes at most one object's worth per block.
    const std::size_t block = bytes > kBlockBytes ? bytes : kBlockBytes;
    auto* base = static_cast<std::byte*>(::operator new(block, kBlockAlign));
    blocks_.push_back(Block{base, block});
    end_ = base + block;
    p = reinterpret_cast<std::uintptr_t>(base);
  }
  cur_ = reinterpret_cast<std::byte*>(p + bytes);
  return reinterpret_cast<void*>(p);
}

}  // namespace dtpsim::sim
