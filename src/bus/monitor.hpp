// Protocol monitor: validates a bus's transaction log, read back from
// the event tracer, against the single-layer bus invariants. Used by
// tests as an always-on assertion layer (the simulation analogue of an
// AHB protocol checker IP).
#pragma once

#include <string>
#include <vector>

#include "bus/interconnect.hpp"
#include "obs/tracer.hpp"

namespace ouessant::bus {

/// Rebuild @p bus's transaction log, in completion order, from the
/// "wr"/"rd"/"err" spans @p tracer holds on track "bus.<name>". Empty
/// when the tracer never saw that bus.
std::vector<TxnRecord> txn_log(const obs::EventTracer& tracer,
                               const InterconnectModel& bus);

struct MonitorReport {
  bool ok = true;
  std::vector<std::string> violations;
};

/// Check @p log for protocol violations:
///  * word-aligned addresses and non-zero burst lengths,
///  * each transaction's end cycle at/after its start cycle,
///  * minimum duration (address phase + one cycle per beat),
///  * no two transactions *complete* on the same cycle (one beat/cycle).
/// The last two hold for completed transactions only: an errored one
/// ends early, and an abort is not a bus cycle.
MonitorReport check_log(const std::vector<TxnRecord>& log,
                        const BusTimingConfig& timing);

/// Render a transaction log as a human-readable listing.
std::string render_log(const std::vector<TxnRecord>& log);

}  // namespace ouessant::bus
