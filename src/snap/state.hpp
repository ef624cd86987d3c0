// Tagged sequential state streams — the per-component wire format of a
// snapshot section.
//
// A component's save_state() writes a sequence of named, type-tagged
// fields through a StateWriter; restore_state() reads the same sequence
// back through a StateReader. Names and tags are verified on read, so a
// version skew or a reordered field fails loudly with a SnapshotError
// naming the component, the field, and what was found instead — never a
// silent misparse. The format is deliberately sequential (no random
// access): component state is small and ordered, and the name checks
// make the stream self-describing enough for debugging with xxd.
//
// Encoding (little-endian throughout):
//   field   := tag:u8 name_len:u8 name[name_len] payload
//   bool    := u8 (0/1)            u8/u32/u64 := fixed width
//   double  := 8 bytes (bit pattern via u64)
//   string  := u32 len + bytes
//   words32 := u32 count + RLE blocks (see below)
//   words64 := u32 count + raw words
//   bytes   := u32 len + raw bytes
//
// words32 RLE: blocks of (u32 n, payload). If n has bit 31 set, a
// literal block of (n & 0x7fffffff) words follows; otherwise one u32
// value follows, repeated n times. Blocks concatenate until `count`
// words are produced. Memories are mostly zero or mostly repetitive, so
// this keeps SRAM sections proportional to touched data.
//
// One encoder core and one decoder core handle every words32 field. The
// encoder reads a PagedWords view, in which a null page stands for a
// page of zeros and costs O(1); the std::vector form is a view of one
// page. The decoder hands each block to a WordSink; the std::vector form
// is a sink capped at kMaxVectorWords, so a crafted word count cannot
// make it allocate more than that.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace ouessant::snap {

/// Error for every malformed-snapshot condition: bad magic, version
/// skew, truncation, CRC mismatch, or a field tag/name that does not
/// match what restore_state() expects. Derives from SimError so
/// existing catch sites handle it.
class SnapshotError : public SimError {
 public:
  explicit SnapshotError(const std::string& what) : SimError(what) {}
};

/// Field type tags. Values are part of the on-disk format — append
/// only, never renumber.
enum class Tag : u8 {
  kBool = 1,
  kU8 = 2,
  kU32 = 3,
  kU64 = 4,
  kDouble = 5,
  kString = 6,
  kWords32 = 7,
  kWords64 = 8,
  kBytes = 9,
};

/// Largest words32 field the std::vector form of
/// StateReader::read_words32 accepts. Real vector fields (job payloads,
/// FIFO storage, bus burst data, decode caches) hold at most a few
/// thousand words; memories decode through their own WordSink instead.
inline constexpr u32 kMaxVectorWords = 1u << 20;

/// A words32 field as the encoder reads it: `count` words held in pages
/// of 2^page_shift words each, page k covering words
/// [k << page_shift, (k + 1) << page_shift). A null page holds only
/// zeros.
struct PagedWords {
  std::span<const u32* const> pages;
  unsigned page_shift = 0;
  std::size_t count = 0;
};

/// Receives a words32 field as the decoder walks it: begin() gets the
/// saved word count before anything else is decoded (throw to reject
/// it), then run() and literal() get each block in order. @p at is the
/// index of the block's first word; blocks never overrun the count.
class WordSink {
 public:
  virtual ~WordSink() = default;
  virtual void begin(u32 count) = 0;
  virtual void run(std::size_t at, u32 n, u32 value) = 0;
  virtual void literal(std::size_t at, std::span<const u32> words) = 0;
};

/// Builds one component's byte stream, field by field.
class StateWriter {
 public:
  void write_bool(std::string_view name, bool v);
  void write_u8(std::string_view name, u8 v);
  void write_u32(std::string_view name, u32 v);
  void write_u64(std::string_view name, u64 v);
  void write_double(std::string_view name, double v);
  void write_string(std::string_view name, std::string_view v);
  void write_words32(std::string_view name, const std::vector<u32>& v);
  void write_words32(std::string_view name, const PagedWords& v);
  void write_words64(std::string_view name, const std::vector<u64>& v);
  void write_bytes(std::string_view name, const std::vector<u8>& v);

  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  void field(Tag tag, std::string_view name);
  void raw_u32(u32 v);
  void raw_u64(u64 v);

  std::vector<u8> buf_;
};

/// Replays one component's byte stream. Every read names the expected
/// field; a mismatch (wrong tag, wrong name, truncated payload) throws
/// SnapshotError with @p context (typically the section name) in the
/// message.
class StateReader {
 public:
  StateReader(std::vector<u8> bytes, std::string context);

  bool read_bool(std::string_view name);
  u8 read_u8(std::string_view name);
  u32 read_u32(std::string_view name);
  u64 read_u64(std::string_view name);
  double read_double(std::string_view name);
  std::string read_string(std::string_view name);
  /// Throws SnapshotError, before allocating, on a count above
  /// kMaxVectorWords.
  std::vector<u32> read_words32(std::string_view name);
  void read_words32(std::string_view name, WordSink& sink);
  std::vector<u64> read_words64(std::string_view name);
  std::vector<u8> read_bytes(std::string_view name);

  /// Throws unless the whole stream has been consumed — catches a
  /// restore_state() that silently ignores trailing saved fields.
  void expect_end() const;

 private:
  [[noreturn]] void fail(const std::string& why) const;
  void expect_field(Tag tag, std::string_view name);
  u8 raw_u8();
  u32 raw_u32();
  u64 raw_u64();
  void need(std::size_t n) const;

  std::vector<u8> buf_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace ouessant::snap
