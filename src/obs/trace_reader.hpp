// Reader for ouessant.trace.v1 files (the EventTracer output format).
//
// Runs on util::JsonCursor (util/text.hpp), so hand-edited or
// pretty-printed variants of the same structure read the same. Unknown
// keys are skipped, so schema-compatible extensions stay readable.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace ouessant::obs {

/// One parsed trace event. Matches EventTracer::Event plus the decoded
/// metadata ('M') records used to recover track names.
struct ParsedEvent {
  std::string name;
  char ph = '?';
  u32 tid = 0;
  u64 ts = 0;
  u64 dur = 0;
  u64 id = 0;  ///< flow id ('s'/'t'/'f')
  struct Value {
    bool is_str = false;
    u64 u = 0;
    std::string s;
  };
  std::map<std::string, Value> args;
};

struct ParsedTrace {
  std::vector<ParsedEvent> events;  ///< non-metadata events, file order
  std::vector<std::string> track_names;  ///< indexed by tid

  /// Track name for @p tid, or "track<N>" when the file carried no
  /// thread_name metadata for it.
  [[nodiscard]] std::string track_name(u32 tid) const;
};

/// Parse trace-event JSON text. Throws SimError on malformed input.
[[nodiscard]] ParsedTrace parse_trace(const std::string& json);

/// Read and parse @p path. Throws SimError when unreadable.
[[nodiscard]] ParsedTrace read_trace(const std::string& path);

}  // namespace ouessant::obs
