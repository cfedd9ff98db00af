#include "sim/port_records.hpp"

#include <stdexcept>

namespace dtpsim::sim {

PortRecords::~PortRecords() {
#if DTPSIM_RECORD_POISON
  for (auto& chunk : chunks_)
    ASAN_UNPOISON_MEMORY_REGION(chunk.get(), sizeof(Record) << kChunkShift);
#endif
}

std::uint32_t PortRecords::allocate(std::uint32_t n) {
  if (n == 0 || n > kMaxRun)
    throw std::invalid_argument("PortRecords: a run holds 1 to 256 records");
  // A run that does not fit the current chunk's tail starts the next chunk;
  // the skipped ids are never handed out.
  const std::uint32_t used = next_ & kChunkMask;
  if (next_ == chunks_.size() << kChunkShift || (used != 0 && used + n > kMaxRun)) {
    if (used != 0) next_ = static_cast<std::uint32_t>(chunks_.size() << kChunkShift);
    if (next_ > kNoPort - kMaxRun)
      throw std::length_error("PortRecords: port ids exhausted");
    chunks_.push_back(std::make_unique_for_overwrite<Record[]>(kMaxRun));
    retire(chunks_.back().get(), sizeof(Record) << kChunkShift);
    owners_.resize(chunks_.size() << kChunkShift);
  }
  const std::uint32_t first = next_;
  next_ += n;
  return first;
}

}  // namespace dtpsim::sim
