#include "scenarios.hpp"

namespace ouessant::scenarios {

void register_all_scenarios(exp::Registry& r) {
  register_e1_table1(r);
  register_e2_resources(r);
  register_e3_linux_overhead(r);
  register_e4_transfer(r);
  register_e5_integration(r);
  register_e6_isa_ext(r);
  register_e7_dpr(r);
  register_e8_bus_portability(r);
  register_e9_jpeg(r);
  register_e10_coupled(r);
  register_e11_l3_validation(r);
  register_e12_contention(r);
  register_speed(r);
  register_serve(r);
  register_serve_faulty(r);
  register_fleet_warmboot(r);
  register_dpr_farm(r);
  register_chain(r);
}

}  // namespace ouessant::scenarios
