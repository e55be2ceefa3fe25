// fleet_fork: a generated fleet scenario through fleet::run_fleet in its
// default fork mode on two worker threads.
//
// The scenario follows scenarios/demo.fleet -- Cascade Lake + DDIO Redis
// next to fio_write, GAPBS-PR next to fio_read, Ice Lake Redis -- with 25 %
// measure jitter so replicas fork from warm checkpoints instead of hitting
// the outcome memo. The seed sets the scenario's seed (every RNG stream and
// the per-host jitter); the fleet's shape, and so its cost, is fixed.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"
#include "golden.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace hostbench {

namespace {

namespace fleet = hostnet::fleet;

constexpr unsigned kThreads = 2;
constexpr int kParsesPerPass = 100;  ///< parses timed after each pass for setup_s
constexpr int kProbesPerPass = 5;    ///< SpeedProbe samples among those parses

/// How the fork engine will execute each window of the scenario, derived
/// from the scenario alone by replaying run_fleet's sharding and
/// SweepCache keys: a window whose (fingerprint, measure) was already run
/// in its shard is a memo hit (0 simulated time), one whose fingerprint was
/// already warmed is a fork (measure only), the rest are cold (warmup +
/// measure).
struct WindowPlan {
  std::uint64_t cold = 0, fork = 0, memo = 0;
  double sim_us = 0;  ///< simulated time the kernel actually executes
};

WindowPlan plan_windows(const fleet::Scenario& sc) {
  WindowPlan plan;
  const std::vector<fleet::HostInstance> hosts = sc.expand();
  const std::vector<fleet::HostTemplate>& tmpl = sc.templates();
  struct Shard {
    std::string fp;
    std::vector<std::string> warmed, measured;
  };
  std::vector<Shard> shards;
  const auto seen = [](std::vector<std::string>& keys, const std::string& k) {
    for (const std::string& s : keys)
      if (s == k) return true;
    keys.push_back(k);
    return false;
  };
  for (const fleet::HostInstance& h : hosts) {
    const fleet::HostTemplate& t = tmpl[h.tmpl];
    const std::string fp =
        core::config_fingerprint(t.host, t.c2m, t.p2m, t.seed, sc.base_options().warmup);
    std::size_t s = 0;
    while (s < shards.size() && shards[s].fp != fp) ++s;
    if (s == shards.size()) shards.push_back(Shard{fp, {}, {}});

    // run_host's windows: iso C2M, iso P2M, colocated (one when single-sided).
    std::vector<std::pair<std::optional<core::C2MSpec>, std::optional<core::P2MSpec>>> wins;
    if (t.c2m && t.p2m) {
      wins = {{t.c2m, std::nullopt}, {std::nullopt, t.p2m}, {t.c2m, t.p2m}};
    } else {
      wins = {{t.c2m, t.p2m}};
    }
    for (const auto& [c2m, p2m] : wins) {
      const std::string key = core::config_fingerprint(t.host, c2m, p2m, h.opt.seed, h.opt.warmup);
      std::string okey = key;
      okey.append(reinterpret_cast<const char*>(&h.opt.measure), sizeof(h.opt.measure));
      if (seen(shards[s].measured, okey)) {
        ++plan.memo;
      } else if (seen(shards[s].warmed, key)) {
        ++plan.fork;
        plan.sim_us += hostnet::to_us(h.opt.measure);
      } else {
        ++plan.cold;
        plan.sim_us += hostnet::to_us(h.opt.warmup + h.opt.measure);
      }
    }
  }
  return plan;
}

/// Exact encoding of the report's aggregate (the rendered table rounds).
std::string aggregate_signature(const fleet::FleetReport& r) {
  std::string s = "hosts " + std::to_string(r.agg.hosts) + " regimes";
  for (std::uint64_t n : r.agg.regimes) s += " " + std::to_string(n);
  s += " mem ";
  append_exact(s, r.agg.total_mem_gbps_sum);
  for (const fleet::TenantAggregate& t : r.agg.tenants) {
    s += " | " + std::to_string(t.placements) + " ";
    append_exact(s, t.colo_score_sum);
    append_exact(s, t.iso_score_sum);
    append_exact(s, t.degradation_sum);
    append_exact(s, t.latency.p50());
    append_exact(s, t.latency.p99());
    append_exact(s, t.latency.p999());
  }
  return s;
}

/// The report as pinned and compared: format_report's table and summary,
/// without the sweep-cache line (zero in cold mode by design), plus the
/// exact aggregate.
std::string comparable(const fleet::Scenario& sc, const fleet::FleetReport& r) {
  std::string text = fleet::format_report(sc, r);
  const std::size_t cache_line = text.find("sweep-cache:");
  if (cache_line != std::string::npos) text.erase(cache_line);
  return text + "aggregate " + aggregate_signature(r) + "\n";
}

}  // namespace

std::string fleet_scenario_text(std::uint64_t seed) {
  const std::string sd = std::to_string(seed);
  return "fleet bench-" + sd +
         "\n"
         "seed " + sd +
         "\n"
         "warmup_us 100\n"
         "measure_us 300\n"
         "measure_jitter_pct 25\n"
         "template cache-clx\n"
         "  preset cascade-lake\n"
         "  set cha.ddio 1\n"
         "  c2m tenant-redis redis_read cores=4\n"
         "  p2m tenant-fio fio_write\n"
         "end\n"
         "template analytics-clx\n"
         "  preset cascade-lake\n"
         "  c2m tenant-gapbs gapbs_pr cores=8\n"
         "  p2m tenant-fio fio_read\n"
         "end\n"
         "template cache-icx\n"
         "  preset ice-lake\n"
         "  c2m tenant-redis redis_read cores=4\n"
         "  p2m tenant-fio fio_write\n"
         "end\n"
         "hosts 6 cache-clx\n"
         "hosts 4 analytics-clx\n"
         "hosts 6 cache-icx\n";
}

void run_fleet_fork(const RunArgs& a, Tracer& tr, Report& rep) {
  const std::string text = fleet_scenario_text(a.seed);

  const fleet::Scenario sc = fleet::Scenario::parse(text);
  const WindowPlan plan = plan_windows(sc);
  const std::uint64_t windows = plan.cold + plan.fork + plan.memo;

  fleet::RunnerOptions ropt;
  ropt.threads = kThreads;
  ropt.mode = core::SweepMode::kFork;

  std::vector<double> pass_s, parse_ms, run_s, report_ms, rate, traced_s, untraced_s, parse_s;
  std::vector<std::string> reports;
  std::vector<hostnet::core::SweepCache::Stats> caches;
  std::optional<fleet::FleetReport> first;
  SpeedProbe probe;
  Tracer untraced(false);
  const auto start = Clock::now();
  while (another_pass(ms_since(start) / 1000.0, reports.size(), a.seconds, tr.enabled())) {
    const bool traced = tr.enabled() && reports.size() % 2 == 0;
    Tracer& t = traced ? tr : untraced;
    const auto pass_start = Clock::now();
    try {
      SpanScope pass(t, "pass");
      SpanScope parse(t, "fleet.parse");
      const fleet::Scenario s = fleet::Scenario::parse(text);
      parse_ms.push_back(parse.close());
      SpanScope run(t, "fleet.run");
      const fleet::FleetReport r = fleet::run_fleet(s, ropt);
      run_s.push_back(run.close() / 1000.0);
      SpanScope format(t, "fleet.report");
      reports.push_back(comparable(s, r));
      report_ms.push_back(format.close());
      caches.push_back(r.cache);
      if (!first) first = r;
    } catch (const std::exception& e) {
      reports.emplace_back();
      caches.emplace_back();
      rep.mismatch(std::string("fleet_fork: run_fleet threw: ") + e.what());
    }
    pass_s.push_back(ms_since(pass_start) / 1000.0);
    std::fprintf(stderr, "hostbench: pass %zu: %.3f s\n", pass_s.size() - 1, pass_s.back());
    rate.push_back(plan.sim_us / pass_s.back());
    (traced ? traced_s : untraced_s).push_back(pass_s.back());
    // setup_s: one parse is microseconds, so it is sampled between passes
    // (outside their timing) and reported as the median. The speed probe is
    // sampled among the parses, on the same core at the same time: one
    // core's speed can differ from another's by 2x on a shared VM.
    for (int i = 0; i < kParsesPerPass; ++i) {
      if (i % (kParsesPerPass / kProbesPerPass) == 0) probe.sample();
      const auto t0 = Clock::now();
      const fleet::Scenario parsed = fleet::Scenario::parse(text);
      parse_s.push_back(ms_since(t0) / 1000.0);
    }
  }
  const double rss = peak_rss_mb();

  // -- correctness (outside the timed passes) ---------------------------------------
  rep.add_attempted(windows * reports.size());
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const hostnet::core::SweepCache::Stats& c = caches[k];
    if (reports[k].empty()) {
      rep.add_failed(windows);
    } else if (k > 0 && reports[k] != reports[0]) {
      rep.add_failed(windows);
      rep.mismatch("fleet_fork: pass " + std::to_string(k) + " report differs from pass 0");
    } else if (c.checkpoint_misses != plan.cold || c.checkpoint_hits != plan.fork ||
               c.outcome_hits != plan.memo) {
      // sim_us_per_s rests on this plan; a disagreement voids the pass.
      rep.add_failed(windows);
      rep.mismatch("fleet_fork: SweepCache counts (" + std::to_string(c.checkpoint_misses) +
                   " cold, " + std::to_string(c.checkpoint_hits) + " fork, " +
                   std::to_string(c.outcome_hits) + " memo) differ from the scenario plan");
    }
  }
  if (!reports[0].empty()) {
    if (a.tables) std::printf("%s", reports[0].c_str());
    std::string want, source;
    if (a.seed == kGoldenSeed) {
      // The pinned file's leading '#' lines are its header, not the report.
      want = read_file("hostbench/pinned/fleet_fork.txt");
      while (want.rfind('#', 0) == 0) want.erase(0, want.find('\n') + 1);
      source = "hostbench/pinned/fleet_fork.txt";
    } else {
      // A held-out seed: the same scenario, every window cold.
      fleet::RunnerOptions cold = ropt;
      cold.mode = core::SweepMode::kCold;
      want = comparable(sc, fleet::run_fleet(sc, cold));
      source = "a cold-mode run of the same scenario";
    }
    if (reports[0] != want) {
      rep.add_failed(windows);
      rep.mismatch("fleet_fork: fork-mode report differs from " + source);
    }
  }

  // -- end to end ------------------------------------------------------------------
  // Host times at the probe's reference speed (see SpeedProbe).
  const double scale = probe.scale();
  std::fprintf(stderr, "hostbench: speed probe %.3f ns/step, host times scaled by %.4f\n",
               probe.step_ns(), scale);
  rep.e2e("sim_us_per_s", median(rate) / scale);
  rep.e2e("wall_s", median(pass_s) * scale);
  rep.e2e("setup_s", median(parse_s) * scale);
  rep.e2e("peak_rss_mb", rss);

  // -- per layer -------------------------------------------------------------------
  const double nwin = static_cast<double>(windows);
  if (!traced_s.empty() && !untraced_s.empty())
    rep.layer("trace.overhead_pct", (median(traced_s) / median(untraced_s) - 1.0) * 100.0);
  rep.layer("host.probe_ns", probe.step_ns());
  rep.layer("sim.sim_us", plan.sim_us);
  rep.layer("harness.windows", nwin);
  rep.layer("core.windows", nwin);
  rep.layer("core.cold_frac", static_cast<double>(plan.cold) / nwin);
  rep.layer("core.fork_frac", static_cast<double>(plan.fork) / nwin);
  rep.layer("core.memo_hit_frac", static_cast<double>(plan.memo) / nwin);
  rep.layer("fleet.parse_ms", median(parse_ms));
  rep.layer("fleet.run_s", median(run_s));
  rep.layer("fleet.report_ms", median(report_ms));
  rep.layer("fleet.hosts", static_cast<double>(sc.total_hosts()));
  rep.layer("fleet.host_ms", median(run_s) * 1000.0 / static_cast<double>(sc.total_hosts()));
  if (first) {
    rep.layer("fleet.fingerprints", static_cast<double>(first->fingerprints));
    // iio: mean colocated device GB/s of the fleet's P2M tenants.
    std::vector<bool> p2m(sc.tenants().size(), false);
    for (const fleet::HostTemplate& t : sc.templates())
      if (t.p2m_tenant != fleet::kNoTenant) p2m[t.p2m_tenant] = true;
    double score = 0, placements = 0;
    for (std::size_t i = 0; i < p2m.size(); ++i) {
      if (!p2m[i]) continue;
      score += first->agg.tenants[i].colo_score_sum;
      placements += static_cast<double>(first->agg.tenants[i].placements);
    }
    if (placements > 0) rep.layer("iio.p2m_dev_gbps", score / placements);
  }
}

}  // namespace hostbench
