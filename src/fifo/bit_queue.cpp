#include "fifo/bit_queue.hpp"

#include <algorithm>

namespace ouessant::fifo {

BitQueue::BitQueue(std::size_t capacity_bits)
    : ring_(std::max<std::size_t>(1, (capacity_bits + 63) / 64), 0),
      ring_bits_(64 * ring_.size()),
      capacity_(capacity_bits) {}

void BitQueue::fail(const char* what) { throw SimError(what); }

std::vector<u32> BitQueue::pack_words() const {
  std::vector<u32> words((size_ + 31) / 32);
  std::size_t pos = head_;
  for (std::size_t k = 0; k < words.size(); ++k) {
    const auto width = static_cast<unsigned>(std::min<std::size_t>(
        32, size_ - 32 * k));
    words[k] = static_cast<u32>(load(pos, width));
    pos = advance(pos, width);
  }
  return words;
}

void BitQueue::unpack_words(const std::vector<u32>& words,
                            std::size_t bit_count) {
  if (words.size() < (bit_count + 31) / 32) {
    fail("BitQueue: word image shorter than its bit count");
  }
  clear();
  for (std::size_t k = 0; 32 * k < bit_count; ++k) {
    push(words[k],
         static_cast<unsigned>(std::min<std::size_t>(32, bit_count - 32 * k)));
  }
}

}  // namespace ouessant::fifo
