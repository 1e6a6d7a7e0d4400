#include "src/cache/prefetch.h"

#include <stdexcept>

namespace ebs {

PrefetchCache::PrefetchCache(PrefetchConfig config) : config_(config) {
  if (config.min_run_ios == 0) {
    throw std::invalid_argument("PrefetchCache: min_run_ios must be at least 1");
  }
  if (config.readahead_bytes == 0) {
    throw std::invalid_argument("PrefetchCache: readahead_bytes must be positive");
  }
  if (config.capacity_bytes < config.readahead_bytes) {
    throw std::invalid_argument("PrefetchCache: capacity_bytes must hold one readahead");
  }
}

bool PrefetchCache::Covered(SegmentId segment, uint64_t begin, uint64_t end) const {
  for (const Range& range : ranges_) {
    if (range.segment == segment && begin >= range.begin && end <= range.end) {
      return true;
    }
  }
  return false;
}

void PrefetchCache::Insert(SegmentId segment, uint64_t begin, uint64_t end) {
  ranges_.push_back({segment, begin, end});
  resident_bytes_ += end - begin;
  ++prefetch_issued_;
  EvictUntilFits();
}

void PrefetchCache::EvictUntilFits() {
  while (resident_bytes_ > config_.capacity_bytes && !ranges_.empty()) {
    resident_bytes_ -= ranges_.front().end - ranges_.front().begin;
    ranges_.pop_front();
  }
}

bool PrefetchCache::AccessRead(SegmentId segment, uint64_t offset, uint32_t size_bytes) {
  const uint64_t end = offset + size_bytes;
  const bool hit = Covered(segment, offset, end);

  // Sequential-run detection (per segment).
  RunState& run = runs_[segment.value()];
  if (size_bytes >= config_.min_io_bytes && offset == run.expected_next &&
      run.run_length > 0) {
    ++run.run_length;
  } else if (size_bytes >= config_.min_io_bytes) {
    run.run_length = 1;
  } else {
    run.run_length = 0;
  }
  run.expected_next = end;

  if (run.run_length >= config_.min_run_ios) {
    // Trigger: fetch the bytes following the run.
    Insert(segment, end, end + config_.readahead_bytes);
    run.run_length = 0;  // re-arm after the readahead window
  }
  return hit;
}

void PrefetchCache::AccessWrite(SegmentId segment, uint64_t offset, uint32_t size_bytes) {
  const uint64_t begin = offset;
  const uint64_t end = offset + size_bytes;
  for (auto it = ranges_.begin(); it != ranges_.end();) {
    if (it->segment == segment && begin < it->end && end > it->begin) {
      resident_bytes_ -= it->end - it->begin;
      it = ranges_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ebs
