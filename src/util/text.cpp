#include "util/text.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ouessant::util {

std::optional<u64> parse_u64(std::string_view s) {
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  }
  if (s.empty()) return std::nullopt;
  u64 v = 0;
  const auto [end, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<i64> parse_i64(std::string_view s) {
  const bool negative = !s.empty() && s[0] == '-';
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) s.remove_prefix(1);
  const std::optional<u64> mag = parse_u64(s);
  constexpr u64 kMax = static_cast<u64>(INT64_MAX);
  if (!mag || *mag > kMax + (negative ? 1 : 0)) return std::nullopt;
  return negative ? static_cast<i64>(0 - *mag) : static_cast<i64>(*mag);
}

std::optional<double> parse_double(std::string_view s) {
  if (s.empty()) return std::nullopt;
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string read_file(const std::string& path, const std::string& who) {
  std::ifstream in(path);
  if (!in) throw SimError(who + ": cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ------------------------------------------------------------ JsonCursor

void JsonCursor::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonCursor::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonCursor::expect(char c) {
  if (peek() != c) {
    fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
  }
  ++pos_;
}

bool JsonCursor::consume(char c) {
  if (peek() != c) return false;
  ++pos_;
  return true;
}

std::string JsonCursor::string() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    constexpr std::string_view kEscapes = "\"\\/bfnrt";
    constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    if (const std::size_t i = kEscapes.find(e); i != std::string_view::npos) {
      out += kDecoded[i];
      continue;
    }
    if (e != 'u') fail(std::string("unsupported escape \\") + e);
    const char* first = text_.data() + pos_;
    const std::size_t avail = std::min<std::size_t>(4, text_.size() - pos_);
    unsigned code = 0;
    const auto [end, ec] = std::from_chars(first, first + avail, code, 16);
    if (ec != std::errc{} || end != first + 4) fail("bad \\u escape");
    pos_ += 4;
    // UTF-8 encode the code unit (the escaper only ever writes \u00XX
    // for control bytes, which decode to themselves).
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }
}

u64 JsonCursor::uint() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
    ++pos_;
  }
  if (pos_ == start) {
    fail(pos_ < text_.size() && text_[pos_] == '-' ? "negative number"
                                                   : "expected a number");
  }
  const std::optional<u64> v = parse_u64(text_.substr(start, pos_ - start));
  if (!v) {
    pos_ = start;
    fail("number exceeds 2^64-1");
  }
  // Fractional parts are truncated (every integer field is a count or
  // a cycle stamp).
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
  }
  return *v;
}

double JsonCursor::real() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         std::string_view("0123456789.-+eE").find(text_[pos_]) !=
             std::string_view::npos) {
    ++pos_;
  }
  const std::optional<double> v =
      parse_double(text_.substr(start, pos_ - start));
  if (!v) {
    pos_ = start;
    fail("expected a finite number");
  }
  return *v;
}

void JsonCursor::skip_value() {
  const char c = peek();
  if (consume('{')) {
    if (consume('}')) return;
    do {
      (void)string();
      expect(':');
      skip_value();
    } while (consume(','));
    expect('}');
  } else if (consume('[')) {
    if (consume(']')) return;
    do {
      skip_value();
    } while (consume(','));
    expect(']');
  } else if (c == '"') {
    (void)string();
  } else if (c == 't' || c == 'f' || c == 'n') {
    for (const std::string_view lit : {"true", "false", "null"}) {
      if (text_.substr(pos_).starts_with(lit)) {
        pos_ += lit.size();
        return;
      }
    }
    fail("bad literal");
  } else {
    (void)real();
  }
}

void JsonCursor::fail(const std::string& why) const {
  throw SimError(context_ + ": " + why + " at byte " + std::to_string(pos_));
}

}  // namespace ouessant::util
