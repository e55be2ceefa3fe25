// Tests for the checkpoint/fork engine (DESIGN.md section 4e): snapshot /
// restore replay identity, the same-host and external-hook contracts, and
// fork-from-checkpoint sweeps bit-identical to cold runs across presets.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "net/dctcp.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::core {
namespace {

/// Exact (bitwise) equality of everything a figure is built from. Doubles
/// compared with EXPECT_EQ deliberately: the checkpoint engine promises
/// bit-identical results, not approximately-equal ones.
void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.window_ns, b.window_ns);
  EXPECT_EQ(a.channels, b.channels);
  EXPECT_EQ(a.c2m_cores, b.c2m_cores);
  for (int c = 0; c < mem::kNumTrafficClasses; ++c) {
    EXPECT_EQ(a.mem_gbps[static_cast<size_t>(c)], b.mem_gbps[static_cast<size_t>(c)]);
    EXPECT_EQ(a.cha_admission_wait_ns[static_cast<size_t>(c)],
              b.cha_admission_wait_ns[static_cast<size_t>(c)]);
  }
  EXPECT_EQ(a.lfb_latency_ns, b.lfb_latency_ns);
  EXPECT_EQ(a.lfb_littles_latency_ns, b.lfb_littles_latency_ns);
  EXPECT_EQ(a.lfb_avg_occupancy, b.lfb_avg_occupancy);
  EXPECT_EQ(a.lfb_max_occupancy, b.lfb_max_occupancy);
  EXPECT_EQ(a.cha_dram_read_latency_c2m_ns, b.cha_dram_read_latency_c2m_ns);
  EXPECT_EQ(a.cha_dram_read_latency_p2m_ns, b.cha_dram_read_latency_p2m_ns);
  EXPECT_EQ(a.cha_mc_write_latency_ns, b.cha_mc_write_latency_ns);
  EXPECT_EQ(a.p2m_reads_in_flight_at_cha, b.p2m_reads_in_flight_at_cha);
  EXPECT_EQ(a.p2m_reads_in_flight_at_cha_max, b.p2m_reads_in_flight_at_cha_max);
  EXPECT_EQ(a.n_waiting, b.n_waiting);
  EXPECT_EQ(a.avg_rpq_occupancy, b.avg_rpq_occupancy);
  EXPECT_EQ(a.avg_wpq_occupancy, b.avg_wpq_occupancy);
  EXPECT_EQ(a.wpq_full_fraction, b.wpq_full_fraction);
  EXPECT_EQ(a.row_miss_ratio_read, b.row_miss_ratio_read);
  EXPECT_EQ(a.row_miss_ratio_write, b.row_miss_ratio_write);
  EXPECT_EQ(a.mc_lines_read, b.mc_lines_read);
  EXPECT_EQ(a.mc_lines_written, b.mc_lines_written);
  EXPECT_EQ(a.mc_switch_cycles, b.mc_switch_cycles);
  EXPECT_EQ(a.mc_act_read, b.mc_act_read);
  EXPECT_EQ(a.mc_act_write, b.mc_act_write);
  EXPECT_EQ(a.mc_pre_conflict_read, b.mc_pre_conflict_read);
  EXPECT_EQ(a.mc_pre_conflict_write, b.mc_pre_conflict_write);
  EXPECT_EQ(a.c2m_lines_read, b.c2m_lines_read);
  EXPECT_EQ(a.c2m_lines_written, b.c2m_lines_written);
  EXPECT_EQ(a.c2m_app_gbps, b.c2m_app_gbps);
  EXPECT_EQ(a.queries_per_sec, b.queries_per_sec);
  EXPECT_EQ(a.p2m_dev_gbps, b.p2m_dev_gbps);
  EXPECT_EQ(a.p2m_iops, b.p2m_iops);
}

void expect_identical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.c2m_score, b.c2m_score);
  EXPECT_EQ(a.p2m_score, b.p2m_score);
  expect_identical(a.metrics, b.metrics);
}

/// The credit-ledger balances of every registered flow-control pool.
std::vector<std::uint32_t> ledger_balances(HostSystem& host) {
  std::vector<std::uint32_t> v;
  for (const auto& e : host.domains().entries()) v.push_back(e.pool->in_use());
  return v;
}

/// One replay of `extra` past a checkpoint: metrics, event trace summary
/// (event count + final clock), and credit balances at the end.
struct Replay {
  Metrics metrics;
  std::uint64_t executed = 0;
  Tick end = 0;
  std::vector<std::uint32_t> balances;
  HostSnapshot end_state;
};

Replay replay(HostSystem& host, Tick extra) {
  Replay r;
  host.run_more(extra);
  r.metrics = host.collect();
  r.executed = host.sim().events_executed();
  r.end = host.sim().now();
  r.balances = ledger_balances(host);
  host.save_state(r.end_state);
  return r;
}

// -- snapshot / restore ------------------------------------------------------

TEST(Checkpoint, RestoreReplaysIdenticalWindow) {
  // Randomized property: snapshot at the quiesce point, run N ticks, then
  // restore and re-run the same N ticks twice. Every replay must produce
  // the identical event trace (count + clock + full end-state snapshot),
  // metrics, and credit-ledger balances. Under HOSTNET_CHECKED, restore()
  // additionally audits the restored event queue event-by-event and
  // re-verifies host invariants.
  Rng rng(20240808);
  for (int trial = 0; trial < 4; ++trial) {
    const HostConfig hc = cascade_lake();
    HostSystem host(hc, /*seed=*/rng.next() % 1024 + 1);
    const auto n_cores = static_cast<std::uint32_t>(rng.next() % 3 + 1);
    for (std::uint32_t i = 0; i < n_cores; ++i) {
      host.add_core(rng.chance(0.5)
                        ? workloads::c2m_read(workloads::c2m_core_region(i))
                        : workloads::c2m_read_write(workloads::c2m_core_region(i)));
    }
    if (rng.chance(0.7))
      host.add_storage(rng.chance(0.5) ? workloads::fio_p2m_write(hc, workloads::p2m_region())
                                       : workloads::fio_p2m_read(hc, workloads::p2m_region()));

    const Tick warmup = us(10 + rng.next() % 40);
    const Tick extra = us(20 + rng.next() % 80);
    host.run(warmup, 0);  // run_until drains every event at ticks <= warmup
    const HostSnapshot checkpoint = host.snapshot();

    const Replay a = replay(host, extra);
    host.restore(checkpoint);
    const Replay b = replay(host, extra);
    host.restore(checkpoint);
    const Replay c = replay(host, extra);

    for (const Replay* r : {&b, &c}) {
      EXPECT_EQ(a.executed, r->executed) << "trial " << trial;
      EXPECT_EQ(a.end, r->end) << "trial " << trial;
      EXPECT_EQ(a.balances, r->balances) << "trial " << trial;
      EXPECT_TRUE(sim::Simulator::audit_identical(a.end_state.sim, r->end_state.sim))
          << "trial " << trial;
      expect_identical(a.metrics, r->metrics);
    }
  }
}

TEST(Checkpoint, RestoreIntoDifferentHostThrows) {
  // Snapshots carry raw pointers into the producing host (event closures'
  // `this` captures, CreditWaiter*), so cross-host restore must be refused
  // even between identically-built hosts.
  const HostConfig hc = cascade_lake();
  HostSystem a(hc, 7);
  HostSystem b(hc, 7);
  a.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  b.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  a.run(us(20), 0);
  b.run(us(20), 0);
  const HostSnapshot snap = a.snapshot();
  EXPECT_THROW(b.restore(snap), std::logic_error);
  a.restore(snap);  // same host: fine
}

TEST(Checkpoint, ExternalWithoutSaveHookRefusesSnapshot) {
  // The legacy attach(start, reset) overload registers no save/load hooks;
  // a silent partial checkpoint would fork diverging simulations, so
  // snapshot() must throw instead.
  HostSystem host(cascade_lake());
  host.attach([] {}, [](Tick) {});
  host.run(us(5), 0);
  EXPECT_THROW(host.snapshot(), std::logic_error);
}

TEST(Checkpoint, DctcpReceiverRoundTrips) {
  // TcpReceiver attaches full ExternalHooks: the NIC, copy cores, and
  // congestion state must all replay identically from a checkpoint.
  const HostConfig hc = cascade_lake();
  HostSystem host(hc, 3);
  net::DctcpConfig cfg;
  net::TcpReceiver rx(host, cfg);
  host.run(us(200), 0);
  const HostSnapshot checkpoint = host.snapshot();

  host.run_more(us(400));
  const Metrics m1 = host.collect();
  const double goodput1 = rx.goodput_gbps(host.sim().now());
  const std::uint64_t executed1 = host.sim().events_executed();

  host.restore(checkpoint);
  host.run_more(us(400));
  const Metrics m2 = host.collect();
  EXPECT_EQ(goodput1, rx.goodput_gbps(host.sim().now()));
  EXPECT_EQ(executed1, host.sim().events_executed());
  expect_identical(m1, m2);
  EXPECT_GT(goodput1, 0.0);
}

// -- fork-from-checkpoint sweeps ---------------------------------------------

RunOptions fast_options() {
  RunOptions o;
  o.warmup = us(30);
  o.measure = us(100);
  o.seed = 7;
  return o;
}

struct Preset {
  const char* label = "";
  HostConfig host;
  std::optional<C2MSpec> c2m;
  std::optional<P2MSpec> p2m;
};

/// Host presets x the component mixes the figure, extension and ablation
/// benches run: the differential matrix. Every row must fork bit-identically
/// to its cold run.
std::vector<Preset> differential_presets() {
  std::vector<Preset> presets;

  {  // Cascade Lake, C2M-Read vs P2M-Write (the paper's Figure 2 quadrant).
    Preset p;
    p.label = "clx c2m-read + p2m-write";
    p.host = cascade_lake();
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
    c2m.cores = 2;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // Ice Lake, read-write cores vs P2M-Read.
    Preset p;
    p.label = "icx c2m-rw + p2m-read";
    p.host = ice_lake();
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
    c2m.cores = 2;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_read(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // Single-channel Cascade Lake variant, C2M only.
    Preset p;
    p.label = "clx-1ch c2m-read";
    p.host = cascade_lake();
    p.host.name = "cascade-lake-1ch";
    p.host.dram.channels = 1;
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
    c2m.cores = 3;
    p.c2m = c2m;
    presets.push_back(p);
  }
  {  // DDIO on, episodic Redis-Read vs P2M-Write (Fig 2(a,c)).
    Preset p;
    p.label = "clx ddio redis-read + p2m-write";
    p.host = cascade_lake();
    p.host.cha.ddio = true;
    C2MSpec c2m;
    c2m.workload = workloads::redis_read(workloads::c2m_core_region(0));
    c2m.cores = 2;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // DDIO on, episodic Redis-Write vs P2M-Read (Figs 15/17).
    Preset p;
    p.label = "clx ddio redis-write + p2m-read";
    p.host = cascade_lake();
    p.host.cha.ddio = true;
    C2MSpec c2m;
    c2m.workload = workloads::redis_write(workloads::c2m_core_region(0));
    c2m.cores = 2;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_read(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // Ice Lake, DDIO on, GAPBS-PR on one shared graph vs P2M-Write (Fig 1(b,d)).
    Preset p;
    p.label = "icx ddio gapbs-pr shared + p2m-write";
    p.host = ice_lake();
    p.host.cha.ddio = true;
    C2MSpec c2m;
    c2m.workload = workloads::gapbs_pr(workloads::c2m_shared_region());
    c2m.per_core_region = false;
    c2m.cores = 3;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // C2M-Read vs fio 4 KiB QD1 (Fig 6, Fig 11, Table 1 latency probes).
    Preset p;
    p.label = "clx c2m-read + fio 4k qd1";
    p.host = cascade_lake();
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
    c2m.cores = 2;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_4k_qd1(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // CHA peripheral write priority + tracker reserve (isolation extension).
    Preset p;
    p.label = "clx cha priority+reserve c2m-rw + p2m-write";
    p.host = cascade_lake();
    p.host.cha.peripheral_write_priority = true;
    p.host.cha.write_tracker_peripheral_reserve = 48;
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
    c2m.cores = 4;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // MC policy and bank-mapping ablations: no read dwell, deep drains,
     // linear bank hash.
    Preset p;
    p.label = "clx mc ablation c2m-rw + p2m-write";
    p.host = cascade_lake();
    p.host.mc.dwell_per_queued_read = 0;
    p.host.mc.wpq_low_wm = 2;
    p.host.dram.hash = dram::BankHash::kLinear;
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
    c2m.cores = 4;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  return presets;
}

TEST(ForkSweep, DifferentialBitIdenticalToColdAcrossPresets) {
  const RunOptions opt = fast_options();
  for (const Preset& p : differential_presets()) {
    SCOPED_TRACE(p.label);
    SweepCache cache;
    const RunOutcome cold = run_workloads(p.host, p.c2m, p.p2m, opt, nullptr, SweepMode::kCold);
    // First forked run warms the checkpoint; the second restores from it.
    // Both must match the cold reference bit-for-bit.
    const RunOutcome fork1 = run_workloads(p.host, p.c2m, p.p2m, opt, &cache, SweepMode::kFork);
    RunOptions longer = opt;
    longer.measure = opt.measure * 2;
    const RunOutcome cold_long =
        run_workloads(p.host, p.c2m, p.p2m, longer, nullptr, SweepMode::kCold);
    const RunOutcome fork_long =
        run_workloads(p.host, p.c2m, p.p2m, longer, &cache, SweepMode::kFork);
    expect_identical(cold, fork1);
    expect_identical(cold_long, fork_long);
    EXPECT_EQ(cache.stats().checkpoint_misses, 1u);
    EXPECT_EQ(cache.stats().checkpoint_hits, 1u);
  }
}

TEST(ForkSweep, OutcomeMemoizationAndStats) {
  const RunOptions opt = fast_options();
  const Preset p = differential_presets().front();
  SweepCache cache;

  const RunOutcome first = run_workloads(p.host, p.c2m, p.p2m, opt, &cache);
  EXPECT_EQ(cache.stats().checkpoint_misses, 1u);
  EXPECT_EQ(cache.stats().outcome_misses, 1u);
  EXPECT_EQ(cache.checkpoints(), 1u);

  // Identical (fingerprint, measure) rerun: memoized, no simulation at all.
  const RunOutcome again = run_workloads(p.host, p.c2m, p.p2m, opt, &cache);
  EXPECT_EQ(cache.stats().outcome_hits, 1u);
  expect_identical(first, again);

  // A different seed is a different fingerprint: it must warm its own
  // checkpoint, never share (the warmup-sharing caveat in experiment.hpp).
  RunOptions reseeded = opt;
  reseeded.seed = opt.seed + 1;
  run_workloads(p.host, p.c2m, p.p2m, reseeded, &cache);
  EXPECT_EQ(cache.stats().checkpoint_misses, 2u);
  EXPECT_EQ(cache.checkpoints(), 2u);

  cache.clear();
  EXPECT_EQ(cache.checkpoints(), 0u);
}

TEST(ForkSweep, CoreSweepBitIdenticalToCold) {
  // The headline use: a core sweep's windows forked through one SweepCache
  // must reproduce the cold sweep_c2m_cores exactly -- every isolated and
  // colocated window.
  const HostConfig host = cascade_lake();
  const RunOptions opt = fast_options();
  C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  const std::vector<std::uint32_t> cores{1, 2, 3};

  const auto cold = sweep_c2m_cores(host, c2m, p2m, cores, opt);
  SweepCache cache;
  const RunOutcome iso_p2m =
      run_workloads(host, std::nullopt, p2m, opt, &cache, SweepMode::kFork);
  ASSERT_EQ(cold.size(), cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    c2m.cores = cores[i];
    expect_identical(run_workloads(host, c2m, std::nullopt, opt, &cache, SweepMode::kFork),
                     cold[i].iso_c2m);
    expect_identical(iso_p2m, cold[i].iso_p2m);
    expect_identical(run_workloads(host, c2m, p2m, opt, &cache, SweepMode::kFork), cold[i].colo);
  }
  // Every window of the sweep has its own prefix (the iso-P2M window plus
  // one iso-C2M and one colocated prefix per core count), so each warms
  // its own checkpoint once.
  EXPECT_EQ(cache.stats().checkpoint_misses, 2 * cores.size() + 1);
  EXPECT_EQ(cache.stats().checkpoint_hits, 0u);
}

TEST(ForkSweep, FingerprintSeparatesEveryInput) {
  const Preset p = differential_presets().front();
  const RunOptions opt = fast_options();
  const std::string base =
      config_fingerprint(p.host, p.c2m, p.p2m, opt.seed, opt.warmup);
  EXPECT_EQ(base, config_fingerprint(p.host, p.c2m, p.p2m, opt.seed, opt.warmup));

  EXPECT_NE(base, config_fingerprint(p.host, p.c2m, p.p2m, opt.seed + 1, opt.warmup));
  EXPECT_NE(base, config_fingerprint(p.host, p.c2m, p.p2m, opt.seed, opt.warmup + 1));
  EXPECT_NE(base, config_fingerprint(p.host, p.c2m, std::nullopt, opt.seed, opt.warmup));
  EXPECT_NE(base, config_fingerprint(p.host, std::nullopt, p.p2m, opt.seed, opt.warmup));

  HostConfig other = p.host;
  other.dram.channels += 1;
  EXPECT_NE(base, config_fingerprint(other, p.c2m, p.p2m, opt.seed, opt.warmup));

  C2MSpec more_cores = *p.c2m;
  more_cores.cores += 1;
  EXPECT_NE(base, config_fingerprint(p.host, more_cores, p.p2m, opt.seed, opt.warmup));
}

}  // namespace
}  // namespace hostnet::core
