#include "obs/trace_reader.hpp"

#include "util/text.hpp"

namespace ouessant::obs {

namespace {

using util::JsonCursor;

constexpr u64 kMaxTracks = u64{1} << 20;

ParsedEvent::Value parse_arg_value(JsonCursor& cur) {
  ParsedEvent::Value v;
  if (cur.peek() == '"') {
    v.is_str = true;
    v.s = cur.string();
  } else {
    v.u = cur.uint();
  }
  return v;
}

/// Parse one event object; returns false (skipping it) for metadata
/// records after folding thread_name records into @p track_names.
bool parse_event(JsonCursor& cur, ParsedEvent& ev,
                 std::vector<std::string>& track_names) {
  cur.expect('{');
  std::string meta_name;  // args.name of an 'M' record
  if (!cur.consume('}')) {
    do {
      const std::string key = cur.string();
      cur.expect(':');
      if (key == "name") {
        ev.name = cur.string();
      } else if (key == "ph") {
        const std::string ph = cur.string();
        ev.ph = ph.empty() ? '?' : ph[0];
      } else if (key == "tid") {
        // Track names live in a tid-indexed vector; bound the index.
        const u64 tid = cur.uint();
        if (tid >= kMaxTracks) cur.fail("tid beyond the track limit");
        ev.tid = static_cast<u32>(tid);
      } else if (key == "ts") {
        ev.ts = cur.uint();
      } else if (key == "dur") {
        ev.dur = cur.uint();
      } else if (key == "id") {
        ev.id = cur.uint();
      } else if (key == "args") {
        cur.expect('{');
        if (!cur.consume('}')) {
          do {
            const std::string akey = cur.string();
            cur.expect(':');
            ParsedEvent::Value v = parse_arg_value(cur);
            if (akey == "name" && v.is_str) meta_name = v.s;
            ev.args.emplace(akey, std::move(v));
          } while (cur.consume(','));
          cur.expect('}');
        }
      } else {
        cur.skip_value();
      }
    } while (cur.consume(','));
    cur.expect('}');
  }
  if (ev.ph == 'M') {
    if (ev.name == "thread_name") {
      if (track_names.size() <= ev.tid) track_names.resize(ev.tid + 1);
      track_names[ev.tid] = meta_name;
    }
    return false;
  }
  return true;
}

}  // namespace

std::string ParsedTrace::track_name(u32 tid) const {
  if (tid < track_names.size() && !track_names[tid].empty()) {
    return track_names[tid];
  }
  return "track" + std::to_string(tid);
}

ParsedTrace parse_trace(const std::string& json) {
  ParsedTrace trace;
  JsonCursor cur(json, "parse_trace");
  cur.expect('{');
  bool saw_events = false;
  if (!cur.consume('}')) {
    do {
      const std::string key = cur.string();
      cur.expect(':');
      if (key == "traceEvents") {
        saw_events = true;
        cur.expect('[');
        if (!cur.consume(']')) {
          do {
            ParsedEvent ev;
            if (parse_event(cur, ev, trace.track_names)) {
              trace.events.push_back(std::move(ev));
            }
          } while (cur.consume(','));
          cur.expect(']');
        }
      } else {
        cur.skip_value();
      }
    } while (cur.consume(','));
    cur.expect('}');
  }
  if (!saw_events) cur.fail("no traceEvents array");
  return trace;
}

ParsedTrace read_trace(const std::string& path) {
  return parse_trace(util::read_file(path, "read_trace"));
}

}  // namespace ouessant::obs
