#include "fleet/runner.hpp"

#include <algorithm>
#include <sstream>

#include "common/table.hpp"
#include "core/parallel.hpp"

namespace hostnet::fleet {

namespace {

/// Hosts of one config fingerprint, in fleet host-index order.
struct Shard {
  std::vector<std::size_t> hosts;
};

/// The colocation protocol for one host. Single-sided hosts (only one
/// tenant placed) run their lone window once and reuse it as both the
/// isolated and "colocated" outcome -- degradation 1.0, regime kNone.
core::ColocationOutcome run_host(const HostTemplate& t, const core::RunOptions& opt,
                                 core::SweepCache* cache) {
  core::ColocationOutcome o;
  if (t.c2m && t.p2m) {
    o.iso_c2m = core::run_workloads(t.host, t.c2m, std::nullopt, opt, cache);
    o.iso_p2m = core::run_workloads(t.host, std::nullopt, t.p2m, opt, cache);
    o.colo = core::run_workloads(t.host, t.c2m, t.p2m, opt, cache);
  } else if (t.c2m) {
    o.iso_c2m = core::run_workloads(t.host, t.c2m, std::nullopt, opt, cache);
    o.colo = o.iso_c2m;
  } else {
    o.iso_p2m = core::run_workloads(t.host, std::nullopt, t.p2m, opt, cache);
    o.colo = o.iso_p2m;
  }
  return o;
}

}  // namespace

FleetReport run_fleet(const Scenario& sc, const RunnerOptions& opt) {
  const std::vector<HostInstance> hosts = sc.expand();
  const std::vector<HostTemplate>& templates = sc.templates();

  // The fingerprint is a pure function of the template (measurement jitter
  // changes only the window length, never construction or warmup), so it is
  // computed once per template, not once per host.
  std::vector<std::string> tmpl_fp(templates.size());
  for (std::size_t i = 0; i < templates.size(); ++i)
    tmpl_fp[i] = core::config_fingerprint(templates[i].host, templates[i].c2m, templates[i].p2m,
                                          templates[i].seed, sc.base_options().warmup);

  // Shard by fingerprint, first-appearance order: every host that can share
  // a warm checkpoint lands on the shard that owns it, so each fingerprint
  // is warmed exactly once fleet-wide. Shard structure depends only on the
  // scenario -- never on the thread count -- which is what keeps reports
  // bit-identical for any HOSTNET_THREADS.
  std::vector<std::string> shard_fp;
  std::vector<Shard> shards;
  for (std::size_t hi = 0; hi < hosts.size(); ++hi) {
    const std::string& fp = tmpl_fp[hosts[hi].tmpl];
    std::size_t s = 0;
    while (s < shard_fp.size() && shard_fp[s] != fp) ++s;
    if (s == shard_fp.size()) {
      shard_fp.push_back(fp);
      shards.push_back(Shard{});
    }
    shards[s].hosts.push_back(hi);
  }

  // run_parallel runs at most one worker per shard.
  const unsigned requested = opt.threads ? opt.threads : core::parallel_threads();
  const auto threads = static_cast<unsigned>(std::min<std::size_t>(requested, shards.size()));
  std::vector<FleetAggregate> aggs(shards.size(), FleetAggregate(sc.tenants().size()));
  std::vector<core::SweepCache::Stats> cache_stats(shards.size());
  core::run_parallel(
      shards.size(),
      [&](std::size_t s) {
        // The shard's SweepCache owns its warmed prototype hosts; replicas
        // of its fingerprint fork from (or memo-hit) those checkpoints. A
        // null cache (cold mode) builds and warms every window.
        core::SweepCache cache;
        core::SweepCache* cptr = opt.mode == core::SweepMode::kFork ? &cache : nullptr;
        for (std::size_t hi : shards[s].hosts) {
          const HostInstance& h = hosts[hi];
          aggs[s].add_host(templates[h.tmpl], run_host(templates[h.tmpl], h.opt, cptr));
        }
        cache_stats[s] = cache.stats();
      },
      threads);

  FleetReport r;
  r.scenario = sc.name();
  r.hosts = hosts.size();
  r.fingerprints = shards.size();
  r.shards = shards.size();
  r.threads = std::max(1u, threads);
  r.agg = FleetAggregate(sc.tenants().size());
  for (const FleetAggregate& a : aggs) r.agg.merge(a);
  for (const core::SweepCache::Stats& s : cache_stats) r.cache.add(s);
  return r;
}

std::string format_report(const Scenario& sc, const FleetReport& r) {
  std::ostringstream os;
  os << "fleet " << r.scenario << ": " << r.hosts << " hosts, " << sc.templates().size()
     << " templates, " << r.fingerprints << " fingerprints, " << r.shards << " shards\n";
  Table t({"tenant", "placements", "mean score", "mean degr.", "lat p50 ns", "lat p99 ns",
           "lat p999 ns"});
  for (std::size_t i = 0; i < sc.tenants().size(); ++i) {
    const TenantAggregate& a = r.agg.tenants[i];
    const double n = a.placements ? static_cast<double>(a.placements) : 1.0;
    t.row({sc.tenants()[i], std::to_string(a.placements), Table::num(a.colo_score_sum / n, 2),
           Table::num(a.mean_degradation(), 2), Table::num(a.latency.p50(), 0),
           Table::num(a.latency.p99(), 0), Table::num(a.latency.p999(), 0)});
  }
  t.print(os);
  os << "regimes: none " << r.agg.regime_count(core::Regime::kNone) << ", blue "
     << r.agg.regime_count(core::Regime::kBlue) << ", red "
     << r.agg.regime_count(core::Regime::kRed) << " (of " << r.hosts << " hosts)\n";
  os << "sweep-cache: checkpoint hits " << r.cache.checkpoint_hits << ", misses "
     << r.cache.checkpoint_misses << "; outcome memo hits " << r.cache.outcome_hits
     << ", misses " << r.cache.outcome_misses << "\n";
  return os.str();
}

}  // namespace hostnet::fleet
