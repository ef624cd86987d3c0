#include "codec/huffman.hpp"

#include <string>

namespace ouessant::codec {

// ------------------------------------------------------------ bitstream --

void BitWriter::put(u32 bits, unsigned count) {
  if (count > 24) throw SimError("BitWriter: too many bits at once");
  acc_ = (acc_ << count) | (bits & ((count == 32 ? 0 : (1u << count)) - 1u));
  acc_bits_ += count;
  bit_count_ += count;
  while (acc_bits_ >= 8) {
    acc_bits_ -= 8;
    bytes_.push_back(static_cast<u8>((acc_ >> acc_bits_) & 0xFF));
  }
}

std::vector<u8> BitWriter::finish() {
  if (acc_bits_ > 0) {
    const unsigned pad = 8 - acc_bits_;
    put((1u << pad) - 1, pad);  // JPEG pads with 1-bits
  }
  return std::move(bytes_);
}

u32 BitReader::get_bit() {
  const std::size_t byte = pos_ / 8;
  if (byte >= bytes_.size()) {
    throw SimError("BitReader: past end of stream at bit " +
                   std::to_string(pos_) + " (" +
                   std::to_string(bytes_.size()) + " bytes)");
  }
  const u32 bit = (bytes_[byte] >> (7 - pos_ % 8)) & 1u;
  ++pos_;
  return bit;
}

u32 BitReader::get(unsigned count) {
  u32 v = 0;
  for (unsigned i = 0; i < count; ++i) v = (v << 1) | get_bit();
  return v;
}

// ------------------------------------------------------ canonical codes --

HuffTable::HuffTable(const std::array<u8, 16>& bits,
                     const std::vector<u8>& values)
    : values_(values) {
  // Canonical code assignment (T.81 C.2): codes of each length are
  // consecutive, starting from (previous minimum + count) << 1.
  u16 code = 0;
  std::size_t vi = 0;
  for (unsigned len = 1; len <= 16; ++len) {
    min_code_[len] = code;
    val_index_[len] = static_cast<u16>(vi);
    for (u8 i = 0; i < bits[len - 1]; ++i) {
      if (vi >= values_.size()) {
        throw ConfigError("HuffTable: BITS and HUFFVAL disagree");
      }
      const u8 sym = values_[vi++];
      by_symbol_[sym] = {.code = code, .length = static_cast<u8>(len)};
      coded_[sym] = true;
      ++code;
    }
    max_code_[len] = bits[len - 1] == 0 ? -1 : code - 1;
    code = static_cast<u16>(code << 1);
  }
  if (vi != values_.size()) {
    throw ConfigError("HuffTable: unused HUFFVAL entries");
  }
  count_ = values_.size();
}

HuffTable::Code HuffTable::encode(u8 symbol) const {
  if (!coded_[symbol]) {
    throw SimError("HuffTable: symbol not in table");
  }
  return by_symbol_[symbol];
}

u8 HuffTable::decode(BitReader& in) const {
  i32 code = 0;
  for (unsigned len = 1; len <= 16; ++len) {
    code = (code << 1) | static_cast<i32>(in.get_bit());
    if (max_code_[len] >= 0 && code <= max_code_[len]) {
      return values_[val_index_[len] + static_cast<u16>(code - min_code_[len])];
    }
  }
  throw SimError("HuffTable: invalid code in stream at bit " +
                 std::to_string(in.bits_consumed()));
}

// T.81 Table K.3 — luminance DC.
const HuffTable& dc_luminance_table() {
  static const HuffTable table(
      {0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  return table;
}

// T.81 Table K.5 — luminance AC.
const HuffTable& ac_luminance_table() {
  static const HuffTable table(
      {0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D},
      {0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
       0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
       0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
       0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
       0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
       0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
       0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
       0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
       0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
       0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
       0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
       0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
       0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
       0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
       0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA});
  return table;
}

// ------------------------------------------------------- block coding --

unsigned magnitude_category(i32 v) {
  u32 mag = static_cast<u32>(v < 0 ? -v : v);
  unsigned cat = 0;
  while (mag != 0) {
    mag >>= 1;
    ++cat;
  }
  return cat;
}

namespace {

/// JPEG magnitude bits: positive values as-is; negative values as
/// (value - 1) in @p cat low bits (one's complement).
u32 magnitude_bits(i32 v, unsigned cat) {
  if (v >= 0) return static_cast<u32>(v);
  return static_cast<u32>(v - 1) & ((1u << cat) - 1u);
}

i32 extend(u32 bits, unsigned cat) {
  if (cat == 0) return 0;
  // If the MSB is 0 the value was negative.
  if ((bits >> (cat - 1)) == 0) {
    return static_cast<i32>(bits) - static_cast<i32>((1u << cat) - 1);
  }
  return static_cast<i32>(bits);
}

constexpr u8 kZrl = 0xF0;  // run of 16 zeros
constexpr u8 kEob = 0x00;

}  // namespace

void huff_encode_block(BitWriter& out, const i32 scan[64], i32& dc_pred) {
  const HuffTable& dc = dc_luminance_table();
  const HuffTable& ac = ac_luminance_table();

  // DC: difference from the predictor.
  const i32 diff = scan[0] - dc_pred;
  dc_pred = scan[0];
  const unsigned dcat = magnitude_category(diff);
  if (dcat > 11) throw SimError("huff_encode_block: DC out of range");
  const auto dcode = dc.encode(static_cast<u8>(dcat));
  out.put(dcode.code, dcode.length);
  if (dcat > 0) out.put(magnitude_bits(diff, dcat), dcat);

  // AC: (run, size) symbols.
  u32 run = 0;
  for (u32 i = 1; i < 64; ++i) {
    if (scan[i] == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      const auto z = ac.encode(kZrl);
      out.put(z.code, z.length);
      run -= 16;
    }
    const unsigned cat = magnitude_category(scan[i]);
    if (cat == 0 || cat > 10) {
      throw SimError("huff_encode_block: AC out of range");
    }
    const auto code = ac.encode(static_cast<u8>((run << 4) | cat));
    out.put(code.code, code.length);
    out.put(magnitude_bits(scan[i], cat), cat);
    run = 0;
  }
  if (run > 0) {
    const auto e = ac.encode(kEob);
    out.put(e.code, e.length);
  }
}

void huff_decode_block(BitReader& in, i32 scan[64], i32& dc_pred) {
  const HuffTable& dc = dc_luminance_table();
  const HuffTable& ac = ac_luminance_table();
  for (u32 i = 0; i < 64; ++i) scan[i] = 0;

  const unsigned dcat = dc.decode(in);
  const i32 diff = dcat == 0 ? 0 : extend(in.get(dcat), dcat);
  // A long enough run of same-sign differences walks the predictor out
  // of i32: a typed error, not a signed overflow.
  const i64 pred = i64{dc_pred} + diff;
  if (pred != static_cast<i32>(pred)) {
    throw SimError("huff_decode_block: DC predictor leaves i32 (bit " +
                   std::to_string(in.bits_consumed()) + ")");
  }
  dc_pred = static_cast<i32>(pred);
  scan[0] = dc_pred;

  u32 i = 1;
  while (i < 64) {
    const u8 symbol = ac.decode(in);
    if (symbol == kEob) return;
    if (symbol == kZrl) {
      i += 16;
      // A compliant encoder always follows ZRL with a coefficient, so a
      // ZRL that lands at or past the block end is stream corruption —
      // silently ending the block here would decode garbage as valid.
      if (i >= 64) {
        throw SimError("huff_decode_block: ZRL past block end (scan index " +
                       std::to_string(i) + ", bit " +
                       std::to_string(in.bits_consumed()) + ")");
      }
      continue;
    }
    const u32 run = symbol >> 4;
    const unsigned cat = symbol & 0xF;
    i += run;
    if (i >= 64) {
      throw SimError("huff_decode_block: run past block end (scan index " +
                     std::to_string(i) + ", bit " +
                     std::to_string(in.bits_consumed()) + ")");
    }
    scan[i] = extend(in.get(cat), cat);
    ++i;
  }
}

}  // namespace ouessant::codec
