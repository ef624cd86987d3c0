// Cross-layer event tracer (DESIGN.md §10).
//
// Components emit structured, cycle-timestamped events — spans, instants,
// counters and flows — onto named tracks; the tracer serializes them as
// Chrome trace-event JSON, which Perfetto / chrome://tracing load
// directly. Timestamps are sim cycles (the file declares the unit), so a
// span's length in the viewer is exactly its cycle cost in Table I terms.
//
// Retention is the one choice: a tracer keeps every event (kKeepAll, the
// default), or it is a flight recorder that keeps only the most recent
// `capacity` events in a ring, overwriting the oldest at O(1) per event.
// Both run the same record()/chronological() code. When a fault layer
// calls trigger(), the tracer latches the first reason so the owner
// knows the ring is worth dumping (docs/observability.md).
//
// Cost model: tracing is wired through nullable `obs::EventTracer*`
// members. When no tracer is attached every instrumentation site is a
// single pointer compare — the tracer deliberately has NO kernel sampler,
// so an untraced (or traced!) run's scheduling, cycle counts and Stats
// are untouched: tracing is passive (asserted by the determinism tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "snap/state.hpp"
#include "util/types.hpp"

namespace ouessant::obs {

/// Interned track index. Tracks map to Chrome trace "threads": each
/// component instrumenting itself owns one stably-named track.
using TrackId = u32;

/// One event argument: a key plus either an unsigned integer or a
/// string value (everything the instrumentation sites need).
struct Arg {
  std::string key;
  bool is_str = false;
  u64 u = 0;
  std::string s;
};

[[nodiscard]] inline Arg arg(std::string key, u64 v) {
  return Arg{.key = std::move(key), .is_str = false, .u = v, .s = {}};
}
[[nodiscard]] inline Arg arg(std::string key, const std::string& v) {
  return Arg{.key = std::move(key), .is_str = true, .u = 0, .s = v};
}
[[nodiscard]] inline Arg arg(std::string key, const char* v) {
  return Arg{.key = std::move(key), .is_str = true, .u = 0, .s = v};
}

class EventTracer {
 public:
  /// One raw event. ph follows the Chrome trace-event phase codes:
  /// 'X' complete span, 'i' instant, 'C' counter, 's'/'t'/'f' flow
  /// start/step/end.
  struct Event {
    char ph = 'X';
    TrackId tid = 0;
    Cycle ts = 0;
    u64 dur = 0;      ///< 'X' only
    u64 flow_id = 0;  ///< 's'/'t'/'f' only
    std::string name;
    std::vector<Arg> args;
  };

  /// Capacity of a tracer that keeps every event (a full trace).
  static constexpr std::size_t kKeepAll = SIZE_MAX;

  /// @p capacity: the most events retained; past it the oldest event is
  /// overwritten and counted in dropped(). Must be >= 1.
  explicit EventTracer(sim::Kernel& kernel, std::size_t capacity = kKeepAll);

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Intern @p name as a track; repeated calls return the same id. Track
  /// naming is stable: ids are assigned in first-use order, so identical
  /// runs produce identical files.
  [[nodiscard]] TrackId track(const std::string& name);

  /// Span covering [@p start, @p end] on the sim clock.
  void complete(TrackId t, std::string name, Cycle start, Cycle end,
                std::vector<Arg> args = {});

  /// Point event at the current cycle.
  void instant(TrackId t, std::string name, std::vector<Arg> args = {});

  /// Counter sample (one series per track/name pair) at the current cycle.
  void counter(TrackId t, std::string name, u64 value);

  // Flow arrows stitch one job's enqueue -> dispatch -> retire across
  // tracks; @p flow_id groups the three phases (the svc layer uses the
  // job id).
  void flow_begin(TrackId t, std::string name, u64 flow_id);
  void flow_step(TrackId t, std::string name, u64 flow_id);
  void flow_end(TrackId t, std::string name, u64 flow_id);

  /// Mark the trace "worth dumping": records a `flight_trigger` instant
  /// (with @p reason) on the "flight" track and latches the trigger so
  /// the owning layer knows to write the file out. Repeat triggers keep
  /// the first reason/cycle (the earliest fault is the interesting one)
  /// but still land in the trace.
  void trigger(const std::string& reason);

  [[nodiscard]] bool triggered() const { return triggered_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }
  [[nodiscard]] Cycle trigger_cycle() const { return trigger_cycle_; }

  /// True for a flight-recorder ring, false for a full trace.
  [[nodiscard]] bool bounded() const { return capacity_ != kKeepAll; }
  /// Events overwritten since the ring filled (0 for a full trace).
  [[nodiscard]] u64 dropped() const { return dropped_; }
  [[nodiscard]] std::size_t event_count() const { return events_.size(); }
  /// Retained events, oldest first.
  [[nodiscard]] std::vector<const Event*> chronological() const;
  [[nodiscard]] const std::vector<std::string>& track_names() const {
    return track_names_;
  }
  [[nodiscard]] sim::Kernel& kernel() const { return kernel_; }

  /// Serialize as Chrome trace-event JSON (docs/observability.md has the
  /// schema notes). Deterministic: byte-identical for identical runs.
  [[nodiscard]] std::string to_json() const;

  /// to_json + write to @p path; throws SimError when unwritable.
  void write_json(const std::string& path) const;

  // -- snapshot protocol: the ring a restored stack resumes with --------
  void save_state(snap::StateWriter& w) const;
  /// Capacity must match, and tracks already interned must agree with
  /// the image's order. Nothing changes unless the whole image is valid.
  void restore_state(snap::StateReader& r);

 private:
  /// Every emit path funnels through here: append until the capacity is
  /// reached, then overwrite the oldest event.
  void record(Event e);

  sim::Kernel& kernel_;
  std::size_t capacity_;
  std::vector<Event> events_;
  std::size_t next_ = 0;  ///< ring write cursor (oldest event once full)
  u64 dropped_ = 0;
  std::vector<std::string> track_names_;
  bool triggered_ = false;
  std::string reason_;
  Cycle trigger_cycle_ = 0;
};

}  // namespace ouessant::obs
