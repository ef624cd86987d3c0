#include "platform/soc.hpp"

namespace ouessant::platform {

Soc::Soc(SocConfig cfg) : cfg_(cfg) {
  // Reject configurations that would only fail later (and silently):
  // clock_mhz <= 0 turns us() into inf/NaN in every report, and an empty
  // SRAM maps a zero-length region no access can ever hit.
  if (!(cfg_.clock_mhz > 0.0)) {
    throw ConfigError("SocConfig: clock_mhz must be > 0 (got " +
                      std::to_string(cfg_.clock_mhz) + ")");
  }
  if (cfg_.sram_bytes == 0) {
    throw ConfigError("SocConfig: sram_bytes must be non-zero");
  }
  switch (cfg_.bus) {
    case BusKind::kAhb:
      bus_ = std::make_unique<bus::AhbBus>(kernel_, "ahb");
      break;
    case BusKind::kAxiLite:
      bus_ = std::make_unique<bus::AxiLiteBus>(kernel_, "axi");
      break;
    case BusKind::kAxi4:
      bus_ = std::make_unique<bus::Axi4Bus>(kernel_, "axi4");
      break;
  }
  sram_ = std::make_unique<mem::Sram>("sram", cfg_.sram_base, cfg_.sram_bytes,
                                      cfg_.sram_read_wait,
                                      cfg_.sram_write_wait);
  bus_->connect_slave(*sram_, cfg_.sram_base, cfg_.sram_bytes);
  // The CPU gets the highest fixed priority, like the Leon3 on its AHB.
  cpu_port_ = &bus_->connect_master("cpu", /*priority=*/0);
  cpu_ = std::make_unique<cpu::Gpp>(kernel_, *cpu_port_, cfg_.cpu_costs);
}

core::Ocp& Soc::add_ocp(core::Rac& rac, core::IsaLevel isa) {
  // The fixed map reserves [kOcpRegBase, kSlaveAccelBase) for OCP
  // register windows; the kMaxOcps-th window would land exactly on the
  // baseline SlaveAccel. Reject here, at attach time, with the map in the
  // message — the same class of overlap connect_slave rejects for slaves
  // that are actually mapped.
  if (ocps_.size() >= kMaxOcps) {
    throw ConfigError(
        "Soc::add_ocp: OCP #" + std::to_string(ocps_.size()) +
        " register window would overlap the fixed map at kSlaveAccelBase "
        "(max " +
        std::to_string(kMaxOcps) + " OCPs)");
  }
  core::OcpConfig ocp_cfg;
  ocp_cfg.reg_base =
      kOcpRegBase + static_cast<Addr>(ocps_.size()) * kOcpRegSpan;
  ocp_cfg.master_priority = 1 + static_cast<int>(ocps_.size());
  ocp_cfg.isa_level = isa;
  ocps_.push_back(std::make_unique<core::Ocp>(
      kernel_, "ocp" + std::to_string(ocps_.size()), *bus_, rac, ocp_cfg));
  return *ocps_.back();
}

snap::Snapshot Soc::snapshot() const {
  snap::Snapshot s;
  kernel_.save_to(s);

  snap::StateWriter w;
  w.write_u8("bus_kind", static_cast<u8>(cfg_.bus));
  w.write_u32("sram_bytes", cfg_.sram_bytes);
  w.write_u64("sram_base", cfg_.sram_base);
  w.write_u32("ocp_count", static_cast<u32>(ocps_.size()));
  sram_->save_state(w);
  cpu_->save_state(w);
  s.add("soc", 1, w.take());
  return s;
}

void Soc::restore(const snap::Snapshot& snap) {
  // Validate the fingerprint before any mutation — a mismatched image
  // must leave the target untouched.
  const snap::Section& sec = snap.section("soc");
  if (sec.version != 1) {
    throw snap::SnapshotError("soc: unsupported section version " +
                              std::to_string(sec.version));
  }
  snap::StateReader r(sec.bytes, "soc");
  const u8 bus_kind = r.read_u8("bus_kind");
  const u32 sram_bytes = r.read_u32("sram_bytes");
  const u64 sram_base = r.read_u64("sram_base");
  const u32 ocp_count = r.read_u32("ocp_count");
  if (bus_kind != static_cast<u8>(cfg_.bus) ||
      sram_bytes != cfg_.sram_bytes || sram_base != cfg_.sram_base ||
      ocp_count != ocps_.size()) {
    throw snap::SnapshotError(
        "soc: configuration fingerprint mismatch (image was taken on a "
        "differently shaped SoC)");
  }

  // The memory is decoded and checked first but installed last, so a
  // malformed image never leaves it half restored.
  mem::Sram::SavedState sram = sram_->read_state(r);
  kernel_.restore_from(snap);
  cpu_->restore_state(r);
  r.expect_end();
  sram_->adopt(std::move(sram));
}

}  // namespace ouessant::platform
