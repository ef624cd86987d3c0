#include "platform/report.hpp"

#include <iomanip>
#include <sstream>

namespace ouessant::platform {

std::string UtilizationReport::render() const {
  std::ostringstream os;
  os << "cycles simulated: " << total_cycles << '\n';
  os << std::fixed << std::setprecision(1);
  os << "bus:  " << 100.0 * bus_utilization() << "% busy (" << bus_busy
     << " busy / " << bus_idle << " idle)\n";
  const u64 cpu_total = cpu_compute + cpu_bus + cpu_idle;
  if (cpu_total > 0) {
    os << "cpu:  " << 100.0 * static_cast<double>(cpu_compute) / cpu_total
       << "% compute, "
       << 100.0 * static_cast<double>(cpu_bus) / cpu_total << "% bus, "
       << 100.0 * static_cast<double>(cpu_idle) / cpu_total << "% idle\n";
  }
  for (const auto& o : ocps) {
    os << o.name << ": " << o.runs << " run(s), " << o.instructions
       << " instr, " << o.words_moved << " words moved, " << o.exec_wait
       << " exec-wait cycles, " << o.idle << " idle cycles\n";
  }
  return os.str();
}

UtilizationReport make_report(Soc& soc) {
  UtilizationReport r;
  r.total_cycles = soc.kernel().now();
  r.bus_busy = soc.bus().busy_cycles();
  r.bus_idle = soc.bus().idle_cycles();
  r.cpu_compute = soc.cpu().compute_cycles();
  r.cpu_bus = soc.cpu().bus_cycles();
  r.cpu_idle = soc.cpu().idle_cycles();
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    core::Ocp& ocp = soc.ocp(i);
    const auto& s = ocp.controller().stats();
    r.ocps.push_back({.name = ocp.name(),
                      .instructions = s.instructions,
                      .words_moved = s.words_to_rac + s.words_from_rac,
                      .runs = s.runs,
                      .exec_wait = s.exec_wait_cycles,
                      .idle = s.idle_cycles});
  }
  return r;
}

void attach_standard_probes(obs::MetricsSampler& sampler, Soc& soc,
                            core::Ocp& ocp) {
  sampler.add_gauge("bus_busy",
                    [&soc] { return soc.bus().granted_now() ? 1 : 0; });
  sampler.add_gauge("ctrl_pc", [&ocp] { return ocp.controller().pc(); });
  sampler.add_gauge("ctrl_state",
                    [&ocp] { return ocp.controller().state_id(); });
  sampler.add_gauge("rac_busy", [&ocp] { return ocp.rac().busy() ? 1 : 0; });
  sampler.add_gauge("irq", [&ocp] { return ocp.irq().raised() ? 1 : 0; });
  sampler.add_gauge("done", [&ocp] { return ocp.iface().done() ? 1 : 0; });
  for (std::size_t i = 0; i < ocp.input_fifos().size(); ++i) {
    sampler.add_gauge("fifo_in" + std::to_string(i) + "_level", [&ocp, i] {
      return ocp.input_fifos()[i]->level_bits();
    });
  }
  for (std::size_t i = 0; i < ocp.output_fifos().size(); ++i) {
    sampler.add_gauge("fifo_out" + std::to_string(i) + "_level", [&ocp, i] {
      return ocp.output_fifos()[i]->level_bits();
    });
  }
}

}  // namespace ouessant::platform
