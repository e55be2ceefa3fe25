// The one list of configuration fields. Each visit_fields() names every leaf
// of a config struct once: its dotted path (a literal spelled as the member
// chain), a reference to the member and, for Tick fields, the unit of its
// text form (ns). config_fingerprint(), the fleet scenario's `set` and
// hostnet_fleet --json's config echo all walk these tables, and
// tools/hostnet_audit.py flags any member reachable from HostConfig, C2MSpec
// or P2MSpec without an entry. A visitor is called as v(path, field[, unit]):
//   [&](std::string_view path, auto& field, FieldUnit unit = FieldUnit::kNone)
// Optional specs are visited only when present; presence is the caller's.
#pragma once

#include <concepts>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "core/experiment.hpp"

namespace hostnet::core {

/// The unit of a field's text form: Tick fields read and print in ns.
enum class FieldUnit : std::uint8_t { kNone, kNs };

/// `T` is `Cfg` or `const Cfg`: one table serves readers and writers.
template <class T, class Cfg>
concept FieldsOf = std::same_as<std::remove_const_t<T>, Cfg>;

void visit_fields(FieldsOf<HostConfig> auto& c, auto&& v) {
  constexpr FieldUnit ns = FieldUnit::kNs;
  v("name", c.name);
  v("total_cores", c.total_cores);
  v("core_ghz", c.core_ghz);
  v("dram.channels", c.dram.channels);
  v("dram.banks_per_channel", c.dram.banks_per_channel);
  v("dram.row_bytes", c.dram.row_bytes);
  v("dram.channel_interleave_bytes", c.dram.channel_interleave_bytes);
  v("dram.bank_interleave_bytes", c.dram.bank_interleave_bytes);
  v("dram.hash", c.dram.hash);
  v("mc.rpq_capacity", c.mc.rpq_capacity);
  v("mc.wpq_capacity", c.mc.wpq_capacity);
  v("mc.wpq_high_wm", c.mc.wpq_high_wm);
  v("mc.wpq_low_wm", c.mc.wpq_low_wm);
  v("mc.max_write_age", c.mc.max_write_age, ns);
  v("mc.dwell_per_queued_read", c.mc.dwell_per_queued_read, ns);
  v("mc.read_dwell_cap", c.mc.read_dwell_cap, ns);
  v("mc.prep_window", c.mc.prep_window);
  v("mc.timing.t_trans", c.mc.timing.t_trans, ns);
  v("mc.timing.t_cas", c.mc.timing.t_cas, ns);
  v("mc.timing.t_rcd", c.mc.timing.t_rcd, ns);
  v("mc.timing.t_rp", c.mc.timing.t_rp, ns);
  v("mc.timing.t_wtr", c.mc.timing.t_wtr, ns);
  v("mc.timing.t_rtw", c.mc.timing.t_rtw, ns);
  v("mc.timing.t_ras", c.mc.timing.t_ras, ns);
  v("mc.timing.t_wr", c.mc.timing.t_wr, ns);
  v("mc.timing.t_page_close_idle", c.mc.timing.t_page_close_idle, ns);
  v("cha.read_tor", c.cha.read_tor);
  v("cha.write_tracker", c.cha.write_tracker);
  v("cha.read_fwd_window", c.cha.read_fwd_window);
  v("cha.write_fwd_window", c.cha.write_fwd_window);
  v("cha.t_read_proc", c.cha.t_read_proc, ns);
  v("cha.t_write_proc", c.cha.t_write_proc, ns);
  v("cha.t_read_fwd", c.cha.t_read_fwd, ns);
  v("cha.t_write_fwd", c.cha.t_write_fwd, ns);
  v("cha.t_write_ack", c.cha.t_write_ack, ns);
  v("cha.t_return_core", c.cha.t_return_core, ns);
  v("cha.t_return_iio", c.cha.t_return_iio, ns);
  v("cha.ddio", c.cha.ddio);
  v("cha.ddio_capacity_bytes", c.cha.ddio_capacity_bytes);
  v("cha.ddio_ways", c.cha.ddio_ways);
  v("cha.peripheral_write_priority", c.cha.peripheral_write_priority);
  v("cha.write_tracker_peripheral_reserve", c.cha.write_tracker_peripheral_reserve);
  v("core.lfb_entries", c.core.lfb_entries);
  v("core.prefetch_extra", c.core.prefetch_extra);
  v("core.t_core_to_cha", c.core.t_core_to_cha, ns);
  v("core.t_wb_to_cha", c.core.t_wb_to_cha, ns);
  v("iio.write_credits", c.iio.write_credits);
  v("iio.read_credits", c.iio.read_credits);
  v("iio.t_proc_write", c.iio.t_proc_write, ns);
  v("iio.t_proc_read", c.iio.t_proc_read, ns);
  v("iio.t_to_cha", c.iio.t_to_cha, ns);
  v("iio.t_complete_read", c.iio.t_complete_read, ns);
  v("pcie_write_gb_per_s", c.pcie_write_gb_per_s);
  v("pcie_read_gb_per_s", c.pcie_read_gb_per_s);
}

void visit_fields(FieldsOf<C2MSpec> auto& c, auto&& v) {
  constexpr FieldUnit ns = FieldUnit::kNs;
  v("name", c.name);
  v("workload.pattern", c.workload.pattern);
  v("workload.region.base", c.workload.region.base);
  v("workload.region.bytes", c.workload.region.bytes);
  v("workload.write_fraction", c.workload.write_fraction);
  v("workload.think", c.workload.think, ns);
  v("workload.episode_reads", c.workload.episode_reads);
  v("workload.episode_writes", c.workload.episode_writes);
  v("workload.episode_compute", c.workload.episode_compute, ns);
  v("workload.episodes_per_query", c.workload.episodes_per_query);
  v("cores", c.cores);
  v("per_core_region", c.per_core_region);
  v("region_stride", c.region_stride);
}

void visit_fields(FieldsOf<P2MSpec> auto& p, auto&& v) {
  constexpr FieldUnit ns = FieldUnit::kNs;
  v("name", p.name);
  if (p.storage) {
    v("storage.host_op", p.storage->host_op);
    v("storage.request_bytes", p.storage->request_bytes);
    v("storage.queue_depth", p.storage->queue_depth);
    v("storage.link_gb_per_s", p.storage->link_gb_per_s);
    v("storage.per_request_latency", p.storage->per_request_latency, ns);
    v("storage.region.base", p.storage->region.base);
    v("storage.region.bytes", p.storage->region.bytes);
    v("storage.mixed_fraction", p.storage->mixed_fraction);
  }
  if (p.tcp) {
    v("tcp.name", p.tcp->name);
    v("tcp.stack", p.tcp->stack);
    v("tcp.wire_gb_per_s", p.tcp->wire_gb_per_s);
    v("tcp.mtu_bytes", p.tcp->mtu_bytes);
    v("tcp.copy_cores", p.tcp->copy_cores);
    v("tcp.ring_packets", p.tcp->ring_packets);
    v("tcp.base_rtt", p.tcp->base_rtt, ns);
  }
}

}  // namespace hostnet::core
