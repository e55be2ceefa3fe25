// Loaded-latency curve (Intel MLC-style): idle memory latency measured by a
// dependent pointer chase (MLP = 1) as P2M load sweeps from 0 to PCIe line
// rate -- the classic host-memory characterization, reproduced on the
// simulator. This is the per-request view of the blue regime: the latency
// a latency-critical app sees grows with peripheral load long before
// bandwidth saturates.
#include <array>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

/// Dependent random loads: one outstanding miss at a time (episodes of one
/// read, no compute) -- a pointer chase.
cpu::CoreWorkload latency_probe(mem::Region r) {
  cpu::CoreWorkload w;
  w.pattern = cpu::CoreWorkload::Pattern::kRandom;
  w.region = r;
  w.episode_reads = 1;
  w.episodes_per_query = 1;
  w.episode_compute = 0;
  return w;
}

}  // namespace

int main() {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();

  banner("Loaded latency: pointer chase vs P2M-Write load (Cascade Lake)");
  Table t({"P2M load (GB/s)", "chase latency (ns)", "p99 (ns)", "mem util"});
  // Each load point owns its HostSystem, so the curve is embarrassingly
  // parallel: run the points on core::run_parallel and print in order.
  const std::array<double, 6> loads{0.0, 2.0, 4.0, 7.0, 10.0, 14.0};
  struct Row {
    double latency_ns, p99_ns, util;
  };
  std::vector<Row> rows(loads.size());
  core::run_parallel(loads.size(), [&](std::size_t i) {
    const double load = loads[i];
    core::HostSystem h(host);
    h.add_core(latency_probe(workloads::c2m_core_region(0)));
    if (load > 0) {
      auto dev = workloads::fio_p2m_write(host, workloads::p2m_region());
      dev.link_gb_per_s = load;
      h.add_storage(dev);
    }
    h.run(opt.warmup, opt.measure);
    auto m = h.collect();
    const auto& hist = h.cores().front()->lfb_station().histogram();
    rows[i] = {m.lfb_latency_ns, hist.p99(),
               m.total_mem_gbps() / host.dram_peak_gb_per_s() * 100};
  });
  for (std::size_t i = 0; i < loads.size(); ++i)
    t.row({Table::num(loads[i], 0), Table::num(rows[i].latency_ns, 1),
           Table::num(rows[i].p99_ns, 0), Table::pct(rows[i].util)});
  t.print();
  std::printf("\nA dependent chase has no credits to spare (MLP = 1), so every\n"
              "nanosecond of MC queueing lands on the application -- even at\n"
              "~30%% memory utilization the p99 roughly doubles.\n");
  return 0;
}
