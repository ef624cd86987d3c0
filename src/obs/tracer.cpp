#include "obs/tracer.hpp"

#include <algorithm>
#include <fstream>

#include "obs/artifact.hpp"
#include "util/text.hpp"

namespace ouessant::obs {

namespace {

void append_args(std::string& out, const std::vector<Arg>& args) {
  out += "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ',';
    out += util::json_quote(args[i].key);
    out += ':';
    if (args[i].is_str) {
      out += util::json_quote(args[i].s);
    } else {
      out += std::to_string(args[i].u);
    }
  }
  out += '}';
}

}  // namespace

EventTracer::EventTracer(sim::Kernel& kernel, std::size_t capacity)
    : kernel_(kernel), capacity_(capacity) {
  if (capacity_ == 0) {
    throw SimError("EventTracer: capacity must be >= 1");
  }
}

void EventTracer::record(Event e) {
  if (events_.size() < capacity_) {
    events_.push_back(std::move(e));
    return;
  }
  events_[next_] = std::move(e);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

TrackId EventTracer::track(const std::string& name) {
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) return static_cast<TrackId>(i);
  }
  track_names_.push_back(name);
  return static_cast<TrackId>(track_names_.size() - 1);
}

void EventTracer::complete(TrackId t, std::string name, Cycle start,
                           Cycle end, std::vector<Arg> args) {
  record(Event{.ph = 'X',
               .tid = t,
               .ts = start,
               .dur = end - start,
               .flow_id = 0,
               .name = std::move(name),
               .args = std::move(args)});
}

void EventTracer::instant(TrackId t, std::string name,
                          std::vector<Arg> args) {
  record(Event{.ph = 'i',
               .tid = t,
               .ts = kernel_.now(),
               .dur = 0,
               .flow_id = 0,
               .name = std::move(name),
               .args = std::move(args)});
}

void EventTracer::counter(TrackId t, std::string name, u64 value) {
  record(Event{.ph = 'C',
               .tid = t,
               .ts = kernel_.now(),
               .dur = 0,
               .flow_id = 0,
               .name = std::move(name),
               .args = {arg("value", value)}});
}

void EventTracer::flow_begin(TrackId t, std::string name, u64 flow_id) {
  record(Event{.ph = 's',
               .tid = t,
               .ts = kernel_.now(),
               .dur = 0,
               .flow_id = flow_id,
               .name = std::move(name),
               .args = {}});
}

void EventTracer::flow_step(TrackId t, std::string name, u64 flow_id) {
  record(Event{.ph = 't',
               .tid = t,
               .ts = kernel_.now(),
               .dur = 0,
               .flow_id = flow_id,
               .name = std::move(name),
               .args = {}});
}

void EventTracer::flow_end(TrackId t, std::string name, u64 flow_id) {
  record(Event{.ph = 'f',
               .tid = t,
               .ts = kernel_.now(),
               .dur = 0,
               .flow_id = flow_id,
               .name = std::move(name),
               .args = {}});
}

std::vector<const EventTracer::Event*> EventTracer::chronological() const {
  std::vector<const Event*> out;
  out.reserve(events_.size());
  // The oldest retained event sits at the write cursor (0 until a ring
  // wraps, and always 0 for a full trace).
  for (std::size_t i = next_; i < events_.size(); ++i) {
    out.push_back(&events_[i]);
  }
  for (std::size_t i = 0; i < next_; ++i) out.push_back(&events_[i]);
  return out;
}

void EventTracer::trigger(const std::string& reason) {
  instant(track("flight"), "flight_trigger", {arg("reason", reason)});
  if (triggered_) return;  // keep the earliest fault's context
  triggered_ = true;
  reason_ = reason;
  trigger_cycle_ = kernel_.now();
}

std::string EventTracer::to_json() const {
  std::string out;
  out.reserve(128 + events_.size() * 96);
  out += "{\n\"traceEvents\": [\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"ouessant\"}}";
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(i);
    out += ",\"args\":{\"name\":\"";
    out += util::json_escape(track_names_[i]);
    out += "\"}}";
  }
  for (const Event* ep : chronological()) {
    const Event& e = *ep;
    out += ",\n{\"name\":\"";
    out += util::json_escape(e.name);
    out += "\",\"cat\":\"";
    out += (e.ph == 's' || e.ph == 't' || e.ph == 'f') ? "flow" : "sim";
    out += "\",\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    out += std::to_string(e.ts);
    switch (e.ph) {
      case 'X':
        out += ",\"dur\":";
        out += std::to_string(e.dur);
        break;
      case 'i':
        out += ",\"s\":\"t\"";  // instant scope: thread
        break;
      case 's':
      case 't':
      case 'f':
        out += ",\"id\":";
        out += std::to_string(e.flow_id);
        if (e.ph == 'f') out += ",\"bp\":\"e\"";  // bind to enclosing slice
        break;
      default:
        break;
    }
    if (!e.args.empty()) {
      out += ',';
      append_args(out, e.args);
    }
    out += '}';
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n";
  out += "\"otherData\": {\"schema\": \"ouessant.trace.v1\", "
         "\"timestamp_unit\": \"cycle\"}\n}\n";
  return out;
}

void EventTracer::write_json(const std::string& path) const {
  std::ofstream out = open_artifact(path, "EventTracer");
  out << to_json();
}

void EventTracer::save_state(snap::StateWriter& w) const {
  w.write_u64("capacity", capacity_);
  w.write_u64("next", next_);
  w.write_u64("dropped", dropped_);
  w.write_bool("triggered", triggered_);
  w.write_string("reason", reason_);
  w.write_u64("trigger_cycle", trigger_cycle_);
  const std::vector<std::string>& tracks = track_names();
  snap::StateWriter inner;
  inner.write_u64("tracks", tracks.size());
  for (const std::string& t : tracks) inner.write_string("t", t);
  inner.write_u64("events", events_.size());
  for (const Event& e : events_) {
    inner.write_u8("ph", static_cast<u8>(e.ph));
    inner.write_u32("tid", e.tid);
    inner.write_u64("ts", e.ts);
    inner.write_u64("dur", e.dur);
    inner.write_u64("flow", e.flow_id);
    inner.write_string("name", e.name);
    inner.write_u64("nargs", e.args.size());
    for (const Arg& a : e.args) {
      inner.write_string("k", a.key);
      inner.write_bool("is_str", a.is_str);
      inner.write_u64("u", a.u);
      inner.write_string("s", a.s);
    }
  }
  w.write_bytes("ring", inner.take());
}

void EventTracer::restore_state(snap::StateReader& r) {
  // Decode and check the whole image before mutating anything: a ring
  // cursor or event count past the capacity would make record() write
  // out of bounds.
  const u64 cap = r.read_u64("capacity");
  if (cap != capacity_) {
    throw snap::SnapshotError(
        "EventTracer: snapshot capacity does not match the target tracer");
  }
  const u64 next = r.read_u64("next");
  const u64 dropped = r.read_u64("dropped");
  const bool triggered = r.read_bool("triggered");
  std::string reason = r.read_string("reason");
  const Cycle trigger_cycle = r.read_u64("trigger_cycle");
  snap::StateReader inner(r.read_bytes("ring"), "obs.flight");
  const u64 ntracks = inner.read_u64("tracks");
  std::vector<std::string> tracks;
  for (u64 i = 0; i < ntracks; ++i) tracks.push_back(inner.read_string("t"));
  const u64 nevents = inner.read_u64("events");
  if (nevents > capacity_ || next >= capacity_ ||
      (next != 0 && nevents < capacity_)) {
    throw snap::SnapshotError(
        "EventTracer: ring cursor or event count out of range");
  }
  std::vector<Event> events;
  for (u64 i = 0; i < nevents; ++i) {
    Event e;
    e.ph = static_cast<char>(inner.read_u8("ph"));
    e.tid = inner.read_u32("tid");
    e.ts = inner.read_u64("ts");
    e.dur = inner.read_u64("dur");
    e.flow_id = inner.read_u64("flow");
    e.name = inner.read_string("name");
    const u64 nargs = inner.read_u64("nargs");
    for (u64 a = 0; a < nargs; ++a) {
      Arg ar;
      ar.key = inner.read_string("k");
      ar.is_str = inner.read_bool("is_str");
      ar.u = inner.read_u64("u");
      ar.s = inner.read_string("s");
      e.args.push_back(std::move(ar));
    }
    events.push_back(std::move(e));
  }
  inner.expect_end();
  // Tracks were interned eagerly when the stack attached this tracer
  // (same-stack restore rule), in the same deterministic order the
  // saved stack used — verify the interning agrees and the names are
  // distinct, then re-intern any tail the target has not reached yet.
  const std::vector<std::string>& have = track_names();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const auto seen = tracks.begin() + static_cast<std::ptrdiff_t>(i);
    if ((i < have.size() && have[i] != tracks[i]) ||
        std::find(tracks.begin(), seen, tracks[i]) != seen) {
      throw snap::SnapshotError(
          "EventTracer: track interning order mismatch on restore (was "
          "the tracer attached to a different stack?)");
    }
  }
  for (const std::string& name : tracks) (void)track(name);

  next_ = static_cast<std::size_t>(next);
  dropped_ = dropped;
  triggered_ = triggered;
  reason_ = std::move(reason);
  trigger_cycle_ = trigger_cycle;
  events_ = std::move(events);
}

}  // namespace ouessant::obs
