// Bit-granular FIFO storage used by the width-adapting FIFOs (paper
// Fig. 2). Values are serialized LSB-first: pushing a 96-bit word and
// popping three 32-bit words yields bits [31:0], [63:32], [95:64] in that
// order, which matches the word order a little-endian bus master would
// write into a wide accelerator register.
//
// The bits live in one packed ring of u64 words sized once from the
// capacity, so every push, peek and drop is one or two shift-and-mask word
// operations whatever the width. Ring bit p is bit p % 64 of word p / 64.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace ouessant::fifo {

class BitQueue {
 public:
  /// Empty queue able to hold @p capacity_bits bits.
  explicit BitQueue(std::size_t capacity_bits);

  /// Append the low @p width bits of @p value (1..64). Requires
  /// size_bits() + width <= the capacity.
  void push(u64 value, unsigned width) {
    check_width(width);
    if (size_ + width > capacity_) fail("BitQueue: overflow");
    store(advance(head_, size_), value, width);
    size_ += width;
  }

  /// Return the next @p width bits (1..64) without removing them.
  /// Requires size_bits() >= width.
  [[nodiscard]] u64 peek(unsigned width) const {
    check_available(width);
    return load(head_, width);
  }

  /// Remove the next @p width bits (1..64) without decoding them.
  void drop(unsigned width) {
    check_available(width);
    head_ = advance(head_, width);
    size_ -= width;
  }

  /// Remove and return the next @p width bits (1..64).
  u64 pop(unsigned width) {
    const u64 v = peek(width);
    drop(width);
    return v;
  }

  [[nodiscard]] std::size_t size_bits() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Snapshot support: dense word image of the queue, oldest bit in bit
  /// 0 of word 0, zero-padded in the final word.
  [[nodiscard]] std::vector<u32> pack_words() const;

  /// Inverse of pack_words(): replace the contents with @p bit_count
  /// bits unpacked from @p words.
  void unpack_words(const std::vector<u32>& words, std::size_t bit_count);

 private:
  [[noreturn]] static void fail(const char* what);

  static void check_width(unsigned width) {
    if (width == 0 || width > 64) fail("BitQueue: width must be 1..64");
  }
  void check_available(unsigned width) const {
    check_width(width);
    if (size_ < width) fail("BitQueue: underflow");
  }

  /// Low @p width bits set (1..64).
  static u64 mask(unsigned width) { return ~u64{0} >> (64 - width); }

  [[nodiscard]] std::size_t next_word(std::size_t i) const {
    return i + 1 == ring_.size() ? 0 : i + 1;
  }
  [[nodiscard]] std::size_t advance(std::size_t pos, std::size_t n) const {
    pos += n;
    return pos >= ring_bits_ ? pos - ring_bits_ : pos;
  }

  /// The @p width bits starting at ring bit @p pos.
  [[nodiscard]] u64 load(std::size_t pos, unsigned width) const {
    const std::size_t i = pos / 64;
    const unsigned off = pos % 64;
    u64 v = ring_[i] >> off;
    if (off + width > 64) v |= ring_[next_word(i)] << (64 - off);
    return v & mask(width);
  }

  /// Overwrite the @p width bits starting at ring bit @p pos with the low
  /// bits of @p value, leaving every other bit as it was.
  void store(std::size_t pos, u64 value, unsigned width) {
    const std::size_t i = pos / 64;
    const unsigned off = pos % 64;
    value &= mask(width);
    ring_[i] = (ring_[i] & ~(mask(width) << off)) | (value << off);
    if (off + width > 64) {
      const std::size_t j = next_word(i);
      ring_[j] = (ring_[j] & ~mask(off + width - 64)) | (value >> (64 - off));
    }
  }

  std::vector<u64> ring_;  // at least one word; never resized
  std::size_t ring_bits_;  // 64 * ring_.size() >= capacity_
  std::size_t capacity_;
  std::size_t head_ = 0;  // ring bit of the oldest stored bit
  std::size_t size_ = 0;  // stored bits
};

}  // namespace ouessant::fifo
