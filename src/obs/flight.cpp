#include "obs/flight.hpp"

#include <algorithm>

namespace ouessant::obs {

FlightRecorder::FlightRecorder(sim::Kernel& kernel, std::size_t capacity)
    : EventTracer(kernel), capacity_(capacity) {
  if (capacity_ == 0) {
    throw SimError("FlightRecorder: capacity must be >= 1");
  }
  events_.reserve(capacity_);
}

void FlightRecorder::record(Event e) {
  if (events_.size() < capacity_) {
    events_.push_back(std::move(e));
    return;
  }
  events_[next_] = std::move(e);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<const EventTracer::Event*> FlightRecorder::chronological() const {
  std::vector<const Event*> out;
  out.reserve(events_.size());
  // Once full, the oldest retained event sits at the write cursor.
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(&events_[(next_ + i) % events_.size()]);
  }
  return out;
}

void FlightRecorder::trigger(const std::string& reason) {
  instant(track("flight"), "flight_trigger", {arg("reason", reason)});
  if (triggered_) return;  // keep the earliest fault's context
  triggered_ = true;
  reason_ = reason;
  trigger_cycle_ = kernel().now();
}

void FlightRecorder::save_state(snap::StateWriter& w) const {
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

void FlightRecorder::restore_state(snap::StateReader& r) {
  // Decode and check the whole image before mutating anything: a ring
  // cursor or event count past the capacity would make record() write
  // out of bounds.
  const u64 cap = r.read_u64("capacity");
  if (cap != capacity_) {
    throw snap::SnapshotError(
        "FlightRecorder: snapshot capacity does not match target recorder");
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
        "FlightRecorder: ring cursor or event count out of range");
  }
  std::vector<Event> events;
  events.reserve(capacity_);
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
  // Tracks were interned eagerly when the stack attached this recorder
  // (same-stack restore rule), in the same deterministic order the
  // saved stack used — verify the interning agrees and the names are
  // distinct, then re-intern any tail the target has not reached yet.
  const std::vector<std::string>& have = track_names();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const auto seen = tracks.begin() + static_cast<std::ptrdiff_t>(i);
    if ((i < have.size() && have[i] != tracks[i]) ||
        std::find(tracks.begin(), seen, tracks[i]) != seen) {
      throw snap::SnapshotError(
          "FlightRecorder: track interning order mismatch on restore (was "
          "the recorder attached to a different stack?)");
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
