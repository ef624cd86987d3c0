// The one text codec: JSON string escaping, the JSON reading cursor every
// artifact reader runs on, and the checked number scans shared by the
// assemblers, the fault-plan grammar and the command-line tools.
//
// This is not a general JSON library. The artifact schemas (trace.v1,
// metrics.v1, slo.v1) need objects, arrays, strings and numbers; the
// cursor offers exactly those primitives and the schema code drives it.
// Every error it raises is a SimError naming the caller's context and
// the byte offset, so malformed input never escapes as a bare
// std::invalid_argument / std::out_of_range.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace ouessant::util {

/// Whole-string scan of a non-negative integer: decimal digits, or hex
/// digits behind a 0x/0X prefix. A leading zero does not mean octal.
/// Returns nullopt on empty input, any stray character (sign, space,
/// suffix) or a value above 2^64-1 — nothing wraps or saturates.
[[nodiscard]] std::optional<u64> parse_u64(std::string_view s);

/// parse_u64 behind an optional '+' or '-' sign; nullopt outside the
/// i64 range.
[[nodiscard]] std::optional<i64> parse_i64(std::string_view s);

/// Whole-string scan of a decimal real (fixed or exponent form, optional
/// leading '-'), via std::from_chars. Returns nullopt on malformed input,
/// on out-of-range magnitudes and on inf/nan: only finite values pass.
[[nodiscard]] std::optional<double> parse_double(std::string_view s);

/// JSON string-literal escape of @p s (quote, backslash and control
/// characters; the result is NOT quoted). Every writer that interpolates
/// a runtime string into hand-built JSON routes it through here.
[[nodiscard]] std::string json_escape(const std::string& s);

/// json_escape(@p s) in double quotes: a complete JSON string literal.
[[nodiscard]] inline std::string json_quote(const std::string& s) {
  return '"' + json_escape(s) + '"';
}

/// Whole contents of the file at @p path. Throws
/// SimError("<who>: cannot open <path>") when it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& who);

/// Cursor over JSON text. Whitespace between tokens is skipped by every
/// primitive; errors throw SimError("<context>: <why> at byte <offset>").
class JsonCursor {
 public:
  /// @p text must outlive the cursor.
  JsonCursor(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  /// Next non-space character, without consuming it (fails at the end).
  [[nodiscard]] char peek();
  /// Consume @p c or fail.
  void expect(char c);
  /// Consume @p c if it is next.
  [[nodiscard]] bool consume(char c);
  /// A string literal with every JSON escape decoded (\uXXXX to UTF-8).
  [[nodiscard]] std::string string();
  /// A non-negative integer. A fractional part is read and truncated;
  /// a value above 2^64-1 fails.
  [[nodiscard]] u64 uint();
  /// A finite real; malformed or out-of-range numbers fail.
  [[nodiscard]] double real();
  /// Skip one value of any type (object, array, string, number, literal).
  void skip_value();

  [[noreturn]] void fail(const std::string& why) const;

 private:
  void skip_ws();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace ouessant::util
