#include "snap/state.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

namespace ouessant::snap {

namespace {

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::kBool: return "bool";
    case Tag::kU8: return "u8";
    case Tag::kU32: return "u32";
    case Tag::kU64: return "u64";
    case Tag::kDouble: return "double";
    case Tag::kString: return "string";
    case Tag::kWords32: return "words32";
    case Tag::kWords64: return "words64";
    case Tag::kBytes: return "bytes";
  }
  return "?";
}

constexpr u32 kLiteralBit = 0x8000'0000u;
constexpr u32 kMaxBlockWords = 0x7fff'ffffu;
/// Page shift of the one-page view of a std::vector: any index below
/// 2^63 maps to page 0.
constexpr unsigned kOnePageShift = std::numeric_limits<std::size_t>::digits - 1;

}  // namespace

// ---------------------------------------------------------------------------
// StateWriter

void StateWriter::field(Tag tag, std::string_view name) {
  if (name.size() > 255) {
    throw SnapshotError("snapshot field name too long: " +
                        std::string(name));
  }
  buf_.push_back(static_cast<u8>(tag));
  buf_.push_back(static_cast<u8>(name.size()));
  buf_.insert(buf_.end(), name.begin(), name.end());
}

void StateWriter::raw_u32(u32 v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void StateWriter::raw_u64(u64 v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void StateWriter::write_bool(std::string_view name, bool v) {
  field(Tag::kBool, name);
  buf_.push_back(v ? 1 : 0);
}

void StateWriter::write_u8(std::string_view name, u8 v) {
  field(Tag::kU8, name);
  buf_.push_back(v);
}

void StateWriter::write_u32(std::string_view name, u32 v) {
  field(Tag::kU32, name);
  raw_u32(v);
}

void StateWriter::write_u64(std::string_view name, u64 v) {
  field(Tag::kU64, name);
  raw_u64(v);
}

void StateWriter::write_double(std::string_view name, double v) {
  field(Tag::kDouble, name);
  u64 bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  raw_u64(bits);
}

void StateWriter::write_string(std::string_view name, std::string_view v) {
  field(Tag::kString, name);
  raw_u32(static_cast<u32>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void StateWriter::write_words32(std::string_view name,
                                const std::vector<u32>& v) {
  // One page big enough for any vector: every index shifts to page 0.
  const u32* const page = v.data();
  write_words32(name, PagedWords{.pages = {&page, 1},
                                 .page_shift = kOnePageShift,
                                 .count = v.size()});
}

void StateWriter::write_words32(std::string_view name, const PagedWords& v) {
  field(Tag::kWords32, name);
  raw_u32(static_cast<u32>(v.count));
  const std::size_t count = v.count;
  const std::size_t mask = (std::size_t{1} << v.page_shift) - 1;
  auto page = [&](std::size_t i) { return v.pages[i >> v.page_shift]; };
  auto word = [&](std::size_t i) {
    const u32* p = page(i);
    return p != nullptr ? p[i & mask] : 0u;
  };
  // Length of the run of equal words starting at i, capped at one
  // block. A null page extends a zero run by a whole page at once.
  auto run_from = [&](std::size_t i) {
    const u32 value = word(i);
    const std::size_t limit = std::min(count, i + kMaxBlockWords);
    std::size_t j = i + 1;
    while (j < limit) {
      const std::size_t end = std::min((j | mask) + 1, limit);
      const u32* p = page(j);
      if (p == nullptr) {
        if (value != 0) break;
        j = end;
        continue;
      }
      while (j < end && p[j & mask] == value) ++j;
      if (j < end) break;
    }
    return j - i;
  };
  // Greedy RLE: runs of >= 4 equal words become a run block, everything
  // between them a literal block. The 4-word threshold keeps a literal
  // stream from degenerating into per-word blocks.
  std::size_t i = 0;
  std::size_t lit_begin = 0;
  auto flush_literal = [&](std::size_t end) {
    std::size_t b = lit_begin;
    while (b < end) {
      const std::size_t n = std::min<std::size_t>(end - b, kMaxBlockWords);
      raw_u32(kLiteralBit | static_cast<u32>(n));
      for (std::size_t k = b; k < b + n; ++k) raw_u32(word(k));
      b += n;
    }
  };
  while (i < count) {
    const std::size_t run = run_from(i);
    if (run >= 4) {
      flush_literal(i);
      raw_u32(static_cast<u32>(run));
      raw_u32(word(i));
      i += run;
      lit_begin = i;
    } else {
      i += run;
    }
  }
  flush_literal(count);
}

void StateWriter::write_words64(std::string_view name,
                                const std::vector<u64>& v) {
  field(Tag::kWords64, name);
  raw_u32(static_cast<u32>(v.size()));
  for (u64 w : v) raw_u64(w);
}

void StateWriter::write_bytes(std::string_view name,
                              const std::vector<u8>& v) {
  field(Tag::kBytes, name);
  raw_u32(static_cast<u32>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// StateReader

StateReader::StateReader(std::vector<u8> bytes, std::string context)
    : buf_(std::move(bytes)), context_(std::move(context)) {}

void StateReader::fail(const std::string& why) const {
  throw SnapshotError("snapshot [" + context_ + "] at byte " +
                      std::to_string(pos_) + ": " + why);
}

void StateReader::need(std::size_t n) const {
  if (pos_ + n > buf_.size()) {
    fail("truncated (need " + std::to_string(n) + " bytes, have " +
         std::to_string(buf_.size() - pos_) + ")");
  }
}

u8 StateReader::raw_u8() {
  need(1);
  return buf_[pos_++];
}

u32 StateReader::raw_u32() {
  need(4);
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(buf_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

u64 StateReader::raw_u64() {
  need(8);
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(buf_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

void StateReader::expect_field(Tag tag, std::string_view name) {
  const u8 got_tag = raw_u8();
  const u8 name_len = raw_u8();
  need(name_len);
  const std::string_view got_name(
      reinterpret_cast<const char*>(buf_.data() + pos_), name_len);
  if (got_tag != static_cast<u8>(tag) || got_name != name) {
    fail("expected " + std::string(tag_name(tag)) + " '" +
         std::string(name) + "', found tag " + std::to_string(got_tag) +
         " '" + std::string(got_name) + "'");
  }
  pos_ += name_len;
}

bool StateReader::read_bool(std::string_view name) {
  expect_field(Tag::kBool, name);
  const u8 v = raw_u8();
  if (v > 1) fail("bool '" + std::string(name) + "' holds " +
                  std::to_string(v));
  return v != 0;
}

u8 StateReader::read_u8(std::string_view name) {
  expect_field(Tag::kU8, name);
  return raw_u8();
}

u32 StateReader::read_u32(std::string_view name) {
  expect_field(Tag::kU32, name);
  return raw_u32();
}

u64 StateReader::read_u64(std::string_view name) {
  expect_field(Tag::kU64, name);
  return raw_u64();
}

double StateReader::read_double(std::string_view name) {
  expect_field(Tag::kDouble, name);
  const u64 bits = raw_u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string StateReader::read_string(std::string_view name) {
  expect_field(Tag::kString, name);
  const u32 len = raw_u32();
  need(len);
  std::string v(reinterpret_cast<const char*>(buf_.data() + pos_), len);
  pos_ += len;
  return v;
}

std::vector<u32> StateReader::read_words32(std::string_view name) {
  struct VectorSink final : WordSink {
    StateReader* reader;
    std::vector<u32> v;
    explicit VectorSink(StateReader* r) : reader(r) {}
    void begin(u32 count) override {
      if (count > kMaxVectorWords) {
        reader->fail("words32 field holds " + std::to_string(count) +
                     " words, more than the " +
                     std::to_string(kMaxVectorWords) + " a vector accepts");
      }
      v.reserve(count);
    }
    void run(std::size_t, u32 n, u32 value) override {
      v.insert(v.end(), n, value);
    }
    void literal(std::size_t, std::span<const u32> words) override {
      v.insert(v.end(), words.begin(), words.end());
    }
  } sink(this);
  read_words32(name, sink);
  return std::move(sink.v);
}

void StateReader::read_words32(std::string_view name, WordSink& sink) {
  expect_field(Tag::kWords32, name);
  const u32 count = raw_u32();
  sink.begin(count);
  // Literal words reach the sink in chunks of at most this many.
  std::array<u32, 256> chunk{};
  std::size_t at = 0;
  while (at < count) {
    const u32 block = raw_u32();
    if ((block & kLiteralBit) != 0) {
      const u32 n = block & kMaxBlockWords;
      if (at + n > count) fail("RLE literal overruns word count");
      need(static_cast<std::size_t>(n) * 4);
      for (u32 done = 0; done < n;) {
        const u32 m = std::min<u32>(n - done, chunk.size());
        for (u32 k = 0; k < m; ++k) chunk[k] = raw_u32();
        sink.literal(at + done, {chunk.data(), m});
        done += m;
      }
      at += n;
    } else {
      if (block == 0 || at + block > count) {
        fail("RLE run overruns word count");
      }
      sink.run(at, block, raw_u32());
      at += block;
    }
  }
}

std::vector<u64> StateReader::read_words64(std::string_view name) {
  expect_field(Tag::kWords64, name);
  const u32 count = raw_u32();
  need(static_cast<std::size_t>(count) * 8);
  std::vector<u64> v;
  v.reserve(count);
  for (u32 i = 0; i < count; ++i) v.push_back(raw_u64());
  return v;
}

std::vector<u8> StateReader::read_bytes(std::string_view name) {
  expect_field(Tag::kBytes, name);
  const u32 len = raw_u32();
  need(len);
  std::vector<u8> v(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                    buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return v;
}

void StateReader::expect_end() const {
  if (pos_ != buf_.size()) {
    fail("unconsumed trailing state (" +
         std::to_string(buf_.size() - pos_) + " bytes)");
  }
}

}  // namespace ouessant::snap
