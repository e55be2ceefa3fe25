// Fleet engine tests (ctest label `fleet`): scenario parsing (positive and
// line-tagged negative cases), expansion determinism, and the runner's two
// determinism contracts -- bit-identical aggregates serial vs parallel, and
// fork vs cold -- plus the structural cache-counter guarantees that prove
// the fingerprint dedup actually happens.
#include <gtest/gtest.h>

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "core/config_fields.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"

namespace hostnet {
namespace {

// Short windows: every runner test below simulates tens of microseconds per
// window, keeping the whole suite in seconds.
constexpr const char* kMixedScenario = R"(
fleet mixed
seed 11
warmup_us 20
measure_us 60

template cache
  preset cascade-lake
  c2m tenant-redis redis_read cores=2
  p2m tenant-fio fio_write
end

template analytics
  preset cascade-lake
  set cha.ddio 1
  c2m tenant-gapbs gapbs_pr cores=4
  p2m tenant-fio fio_read
end

hosts 3 cache
hosts 2 analytics
hosts 2 cache
)";

std::size_t error_line(const std::string& text) {
  try {
    fleet::Scenario::parse(text);
  } catch (const fleet::ScenarioError& e) {
    return e.line();
  }
  ADD_FAILURE() << "expected ScenarioError for:\n" << text;
  return 0;
}

TEST(FleetScenario, ParsesMixedScenario) {
  const fleet::Scenario sc = fleet::Scenario::parse(kMixedScenario);
  EXPECT_EQ(sc.name(), "mixed");
  ASSERT_EQ(sc.templates().size(), 2u);
  EXPECT_EQ(sc.templates()[0].name, "cache");
  EXPECT_EQ(sc.templates()[1].name, "analytics");
  EXPECT_TRUE(sc.templates()[1].host.cha.ddio);   // set override applied
  EXPECT_FALSE(sc.templates()[0].host.cha.ddio);  // preset default untouched
  ASSERT_TRUE(sc.templates()[0].c2m.has_value());
  EXPECT_EQ(sc.templates()[0].c2m->cores, 2u);
  EXPECT_TRUE(sc.templates()[0].c2m->per_core_region);
  EXPECT_FALSE(sc.templates()[1].c2m->per_core_region);  // gapbs: shared graph
  // Tenant ids in first-appearance order.
  ASSERT_EQ(sc.tenants().size(), 3u);
  EXPECT_EQ(sc.tenants()[0], "tenant-redis");
  EXPECT_EQ(sc.tenants()[1], "tenant-fio");
  EXPECT_EQ(sc.tenants()[2], "tenant-gapbs");
  EXPECT_EQ(sc.templates()[1].c2m_tenant, 2u);
  EXPECT_EQ(sc.templates()[1].p2m_tenant, 1u);
  EXPECT_EQ(sc.total_hosts(), 7u);
  EXPECT_EQ(sc.base_options().seed, 11u);
  EXPECT_EQ(sc.base_options().warmup, us(20));
  EXPECT_EQ(sc.base_options().measure, us(60));
}

TEST(FleetScenario, ExpansionIsDeterministicAndOrdered) {
  const fleet::Scenario sc = fleet::Scenario::parse(kMixedScenario);
  const auto a = sc.expand();
  const auto b = sc.expand();
  ASSERT_EQ(a.size(), 7u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].tmpl, b[i].tmpl);
    EXPECT_EQ(a[i].opt.measure, b[i].opt.measure);
    EXPECT_EQ(a[i].opt.seed, b[i].opt.seed);
  }
  // Group order: 3x cache, 2x analytics, 2x cache.
  EXPECT_EQ(a[0].tmpl, 0u);
  EXPECT_EQ(a[3].tmpl, 1u);
  EXPECT_EQ(a[5].tmpl, 0u);
  // No jitter directive -> identical windows everywhere.
  for (const auto& h : a) EXPECT_EQ(h.opt.measure, us(60));
}

TEST(FleetScenario, MeasureJitterPreservesWarmupAndStaggersWindows) {
  std::string text(kMixedScenario);
  text.insert(text.find("template cache"), "measure_jitter_pct 25\n");
  const fleet::Scenario sc = fleet::Scenario::parse(text);
  const auto hosts = sc.expand();
  bool any_different = false;
  for (const auto& h : hosts) {
    EXPECT_GE(h.opt.measure, us(60));
    EXPECT_LE(h.opt.measure, us(75));
    if (h.opt.measure != hosts[0].opt.measure) any_different = true;
  }
  EXPECT_TRUE(any_different) << "25% jitter over 7 hosts should stagger some windows";
  // Same fingerprint before and after jitter: warmup and seed untouched.
  EXPECT_EQ(sc.base_options().warmup, us(20));
}

TEST(FleetScenario, NegativeCasesCarryLineNumbers) {
  EXPECT_EQ(error_line("template t\nend\n"), 1u);  // first directive must be fleet
  EXPECT_EQ(error_line("fleet f\nbogus 1\n"), 2u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  set no.such.key 1\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a no_such_workload\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  p2m a no_such_fio\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\nhosts 1 nope\n"), 2u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read\n"), 2u);  // missing end
  EXPECT_EQ(error_line("fleet f\nend\n"), 2u);                          // end outside template
  EXPECT_EQ(error_line("fleet f\ntemplate t\nend\nhosts 1 t\n"), 3u);   // no workload placed
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read cores=999\nend\nhosts 1 t\n"), 4u);
  EXPECT_EQ(error_line("fleet f\nmeasure_jitter_pct 101\n"), 2u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read\nend\nhosts 0 t\n"), 5u);
  EXPECT_EQ(error_line("fleet f\n"), 1u);  // places no hosts
  // Duplicate template name.
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read\nend\ntemplate t\n"), 5u);
  // tcp.stack: bad value, and override without a tcp_* placement to rewrite.
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  set tcp.stack reno\n  p2m a tcp_dctcp\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  set tcp.stack bbr\n  c2m a c2m_read\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  set tcp.stack bbr\n  p2m a fio_write\nend\nhosts 1 t\n"), 3u);
}

TEST(FleetScenario, NumericInputIsWholeAndInRange) {
  const std::string tmpl = "template t\n  c2m a c2m_read\nend\n";
  // Window lengths follow the HOSTNET_*_US rule: finite, warmup >= 0,
  // measure > 0, fits a Tick.
  EXPECT_EQ(error_line("fleet f\nwarmup_us -5\n"), 2u);
  EXPECT_EQ(error_line("fleet f\nmeasure_us 0\n"), 2u);
  EXPECT_EQ(error_line("fleet f\nmeasure_us nan\n"), 2u);
  EXPECT_EQ(error_line("fleet f\nwarmup_us 1e30\n"), 2u);
  EXPECT_EQ(error_line("fleet f\nmeasure_jitter_pct nan\n"), 2u);
  // Unsigned values take no sign and must fit: `hosts -1` once asked for
  // 2^64 - 1 hosts (parsed only, never run).
  EXPECT_EQ(error_line("fleet f\n" + tmpl + "hosts -1 t\n"), 5u);
  EXPECT_EQ(error_line("fleet f\n" + tmpl + "hosts 18446744073709551616 t\n"), 5u);
  EXPECT_EQ(error_line("fleet f\nseed -3\n"), 2u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read cores=-1\nend\n"), 3u);
  // `set` values are checked against the field's own type and width.
  const auto set_line = [](const std::string& set) {
    return error_line("fleet f\ntemplate t\n  " + set + "\n  c2m a c2m_read\nend\nhosts 1 t\n");
  };
  EXPECT_EQ(set_line("set mc.rpq_capacity 4294967344"), 3u);  // once wrapped to 48
  EXPECT_EQ(set_line("set core.lfb_entries -1"), 3u);         // once std::bad_alloc
  EXPECT_EQ(set_line("set cha.ddio 2"), 3u);
  EXPECT_EQ(set_line("set core_ghz inf"), 3u);
  EXPECT_EQ(set_line("set mc.timing.t_wtr -1"), 3u);
  EXPECT_EQ(set_line("set cha.ddio_capacity_bytes 18446744073709551616"), 3u);
  EXPECT_EQ(set_line("set mc.rpq_capacity +4"), 3u);
  EXPECT_EQ(set_line("set mc.rpq_capacity 4x"), 3u);
  EXPECT_EQ(set_line("set cha.ddio yes"), 3u);
  EXPECT_EQ(set_line("set core_ghz nan"), 3u);
  EXPECT_EQ(set_line("set mc.timing.t_wtr 1e30"), 3u);
  EXPECT_EQ(set_line("set mc.timing.t_wtr 10ns"), 3u);
  EXPECT_EQ(set_line("set mc 1"), 3u);        // a struct, not a leaf
  EXPECT_EQ(set_line("set name other"), 3u);  // strings and enums are not settable
  EXPECT_EQ(set_line("set dram.hash 0"), 3u);
  // A set that parses but breaks the config fails at `end`, naming the field
  // by the same path.
  try {
    fleet::Scenario::parse("fleet f\ntemplate t\n  set mc.wpq_high_wm 24\n  c2m a c2m_read\n"
                           "end\nhosts 1 t\n");
    ADD_FAILURE() << "accepted mc.wpq_high_wm == mc.wpq_capacity";
  } catch (const fleet::ScenarioError& e) {
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("mc.wpq_high_wm must be below mc.wpq_capacity"),
              std::string::npos)
        << e.what();
  }
}

/// New values for a HostConfig leaf as `set` text, each with the value it
/// must parse to; none for strings and enums (not settable).
template <class F>
std::vector<std::pair<std::string, F>> set_candidates(const F& f) {
  if constexpr (std::is_same_v<F, bool>) {
    return {{f ? "0" : "1", !f}};
  } else if constexpr (std::is_unsigned_v<F>) {
    return {{std::to_string(f + 1), static_cast<F>(f + 1)},
            {std::to_string(f * 2), static_cast<F>(f * 2)},
            {std::to_string(f / 2), static_cast<F>(f / 2)}};
  } else if constexpr (std::is_same_v<F, Tick>) {
    const Tick whole_ns = f / kNanosecond + 1;  // Tick fields take ns
    return {{std::to_string(whole_ns), whole_ns * kNanosecond}};
  } else if constexpr (std::is_floating_point_v<F>) {
    const F v = f * 1.5 + 1;
    char buf[32];
    return {{std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr), v}};
  } else {
    return {};
  }
}

TEST(FleetScenario, SetRoundTripsEveryNumberAndBoolLeaf) {
  // For every HostConfig leaf of the field table: `set <path> <value>` with
  // a new value that keeps the config valid must yield exactly the config
  // with that one leaf changed.
  const core::HostConfig base = core::cascade_lake();
  const auto fp = [](const core::HostConfig& h) {
    return core::config_fingerprint(h, std::nullopt, std::nullopt, 1, 0);
  };
  std::size_t leaves = 0, settable = 0;
  core::visit_fields(base, [&](std::string_view, const auto&, core::FieldUnit = {}) { ++leaves; });
  for (std::size_t i = 0; i < leaves; ++i) {
    core::HostConfig expected = base;
    std::string path, text;
    bool can_set = false;
    std::size_t k = 0;
    core::visit_fields(expected, [&](std::string_view p, auto& f, core::FieldUnit = {}) {
      if (k++ != i) return;
      path = p;
      const auto original = f;
      for (const auto& [t, v] : set_candidates(f)) {
        can_set = true;
        f = v;
        text = t;
        if (expected.validate().empty()) return;
      }
      f = original;
      text.clear();
    });
    const std::string scenario = "fleet f\ntemplate t\n  set " + path + " " +
                                 (can_set ? text : "1") + "\n  c2m a c2m_read\nend\nhosts 1 t\n";
    SCOPED_TRACE(scenario);
    if (!can_set) {
      EXPECT_EQ(error_line(scenario), 3u);
      continue;
    }
    ASSERT_FALSE(text.empty()) << "no valid new value for " << path;
    ++settable;
    const fleet::Scenario sc = fleet::Scenario::parse(scenario);
    EXPECT_EQ(fp(sc.templates()[0].host), fp(expected));
    EXPECT_NE(fp(expected), fp(base));
  }
  EXPECT_EQ(settable, leaves - 2);  // all but `name` and `dram.hash`
}

TEST(FleetScenario, SetReachesEveryNumericLeafByPath) {
  const fleet::Scenario sc = fleet::Scenario::parse(
      "fleet f\ntemplate t\n  set mc.timing.t_wtr 7.5\n  set cha.t_return_iio 0\n"
      "  set iio.t_to_cha 41\n  set pcie_read_gb_per_s 9.25\n  set cha.ddio 1\n"
      "  c2m a c2m_read\nend\nhosts 1 t\n");
  const core::HostConfig& h = sc.templates()[0].host;
  EXPECT_EQ(h.mc.timing.t_wtr, ns(7.5));  // Tick fields take nanoseconds
  EXPECT_EQ(h.cha.t_return_iio, 0);
  EXPECT_EQ(h.iio.t_to_cha, ns(41));
  EXPECT_EQ(h.pcie_read_gb_per_s, 9.25);
  EXPECT_TRUE(h.cha.ddio);
}

// Three receiver templates that differ only in congestion-control stack --
// one via the workload name, one via the `set tcp.stack` override.
constexpr const char* kStacksScenario = R"(
fleet stacks
seed 5
warmup_us 20
measure_us 60

template rx-dctcp
  c2m tenant-app c2m_read cores=2
  p2m tenant-tcp tcp_dctcp
end

template rx-bbr
  c2m tenant-app c2m_read cores=2
  p2m tenant-tcp tcp_bbr
end

template rx-davis
  set tcp.stack davis
  c2m tenant-app c2m_read cores=2
  p2m tenant-tcp tcp_dctcp
end

hosts 2 rx-dctcp
hosts 2 rx-bbr
hosts 2 rx-davis
)";

TEST(FleetScenario, ParsesTcpStackPlacements) {
  const fleet::Scenario sc = fleet::Scenario::parse(kStacksScenario);
  ASSERT_EQ(sc.templates().size(), 3u);
  for (const fleet::HostTemplate& t : sc.templates()) {
    ASSERT_TRUE(t.p2m.has_value());
    ASSERT_TRUE(t.p2m->tcp.has_value());
    EXPECT_FALSE(t.p2m->storage.has_value());
  }
  EXPECT_EQ(sc.templates()[0].p2m->tcp->stack, core::TcpStackKind::kDctcp);
  EXPECT_EQ(sc.templates()[1].p2m->tcp->stack, core::TcpStackKind::kBbr);
  // The override rewrites both the stack and the placement's reported name.
  EXPECT_EQ(sc.templates()[2].p2m->tcp->stack, core::TcpStackKind::kDavis);
  EXPECT_EQ(sc.templates()[2].p2m->name, "tcp_davis");
}

TEST(FleetHistogram, MergeMatchesCombinedStream) {
  LatencyHistogram a, b, both;
  for (int i = 1; i <= 1000; ++i) {
    (i % 2 ? a : b).add(static_cast<double>(i));
    both.add(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.p50(), both.p50());
  EXPECT_EQ(a.p99(), both.p99());
  EXPECT_EQ(a.p999(), both.p999());
}

// ---- runner determinism ----------------------------------------------------

fleet::FleetReport run(const fleet::Scenario& sc, unsigned threads, core::SweepMode mode) {
  fleet::RunnerOptions opt;
  opt.threads = threads;
  opt.mode = mode;
  return fleet::run_fleet(sc, opt);
}

/// Everything except the cache counters (which legitimately differ between
/// fork and cold runs) must match bit-for-bit.
void expect_same_results(const fleet::Scenario& sc, const fleet::FleetReport& x,
                         const fleet::FleetReport& y) {
  EXPECT_EQ(x.hosts, y.hosts);
  EXPECT_EQ(x.agg.hosts, y.agg.hosts);
  EXPECT_EQ(x.agg.regimes, y.agg.regimes);
  EXPECT_EQ(x.agg.total_mem_gbps_sum, y.agg.total_mem_gbps_sum);  // bit-identical, not Near
  ASSERT_EQ(x.agg.tenants.size(), sc.tenants().size());
  ASSERT_EQ(y.agg.tenants.size(), sc.tenants().size());
  for (std::size_t i = 0; i < sc.tenants().size(); ++i) {
    const fleet::TenantAggregate& a = x.agg.tenants[i];
    const fleet::TenantAggregate& b = y.agg.tenants[i];
    EXPECT_EQ(a.placements, b.placements) << sc.tenants()[i];
    EXPECT_EQ(a.colo_score_sum, b.colo_score_sum) << sc.tenants()[i];
    EXPECT_EQ(a.iso_score_sum, b.iso_score_sum) << sc.tenants()[i];
    EXPECT_EQ(a.degradation_sum, b.degradation_sum) << sc.tenants()[i];
    EXPECT_EQ(a.latency.count(), b.latency.count()) << sc.tenants()[i];
    EXPECT_EQ(a.latency.p50(), b.latency.p50()) << sc.tenants()[i];
    EXPECT_EQ(a.latency.p99(), b.latency.p99()) << sc.tenants()[i];
  }
}

TEST(FleetRunner, SerialAndParallelAggregatesAreBitIdentical) {
  const fleet::Scenario sc = fleet::Scenario::parse(kMixedScenario);
  const fleet::FleetReport serial = run(sc, 1, core::SweepMode::kFork);
  const fleet::FleetReport parallel = run(sc, 4, core::SweepMode::kFork);
  expect_same_results(sc, serial, parallel);
  // The cache counters are deterministic too (sharding is by fingerprint,
  // not by thread), so even the full formatted reports match.
  EXPECT_EQ(fleet::format_report(sc, serial), fleet::format_report(sc, parallel));
}

TEST(FleetRunner, ForkMatchesColdOnJitteredMixedFleet) {
  // Jitter forces distinct measurement windows per replica: the fork run
  // must take the checkpoint-restore path (not the outcome memo) and still
  // reproduce the cold reference bit-for-bit.
  std::string text(kMixedScenario);
  text.insert(text.find("template cache"), "measure_jitter_pct 25\n");
  const fleet::Scenario sc = fleet::Scenario::parse(text);
  const fleet::FleetReport fork = run(sc, 2, core::SweepMode::kFork);
  const fleet::FleetReport cold = run(sc, 2, core::SweepMode::kCold);
  expect_same_results(sc, fork, cold);
  EXPECT_GT(fork.cache.checkpoint_hits, 0u) << "jittered replicas must fork, not re-warm";
  EXPECT_EQ(cold.cache.checkpoint_hits + cold.cache.checkpoint_misses, 0u)
      << "cold mode must not touch any cache";
}

TEST(FleetRunner, FingerprintDedupIsStructural) {
  // Two templates with distinct host configs -> 2 fingerprints. No jitter
  // -> replicas are bit-identical, so per fingerprint exactly the 3
  // colocation windows warm cold and every replica window is a memo hit.
  const fleet::Scenario sc = fleet::Scenario::parse(kMixedScenario);
  const fleet::FleetReport r = run(sc, 0, core::SweepMode::kFork);
  EXPECT_EQ(r.fingerprints, 2u);
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.hosts, 7u);
  EXPECT_EQ(r.cache.checkpoint_misses, 3u * 2u);
  EXPECT_EQ(r.cache.outcome_hits, 3u * (7u - 2u));
  EXPECT_EQ(r.cache.outcome_misses, 3u * 2u);
  EXPECT_EQ(r.cache.checkpoint_hits, 0u) << "identical replicas memoize; nothing re-runs";
}

TEST(FleetRunner, MixedStacksShardAndForkBitIdentically) {
  // Templates identical except for TcpSpec::stack: the stack kind must
  // reach the fingerprint (3 shards, no cross-stack aliasing) and every
  // stack's replicas must fork bit-identically to a cold run.
  const fleet::Scenario sc = fleet::Scenario::parse(kStacksScenario);
  const fleet::FleetReport fork = run(sc, 2, core::SweepMode::kFork);
  const fleet::FleetReport cold = run(sc, 2, core::SweepMode::kCold);
  expect_same_results(sc, fork, cold);
  EXPECT_EQ(fork.fingerprints, 3u);
  EXPECT_EQ(fork.shards, 3u);
  EXPECT_EQ(fork.hosts, 6u);
  // Per fingerprint: 3 colocation windows warm cold, the identical replica
  // memoizes.
  EXPECT_EQ(fork.cache.checkpoint_misses, 3u * 3u);
  EXPECT_EQ(fork.cache.outcome_hits, 3u * 3u);
}

TEST(FleetRunner, ReportsTheWorkersThatRan) {
  // run_parallel never runs more workers than jobs (shards), so neither
  // does the report: 8 requested on a 1- and a 2-shard fleet.
  const fleet::Scenario one = fleet::Scenario::parse(
      "fleet one\nwarmup_us 5\nmeasure_us 10\ntemplate c\n  c2m a c2m_read\nend\nhosts 2 c\n");
  EXPECT_EQ(run(one, 8, core::SweepMode::kFork).threads, 1u);
  const fleet::Scenario two = fleet::Scenario::parse(
      "fleet two\nwarmup_us 5\nmeasure_us 10\ntemplate c\n  c2m a c2m_read\nend\n"
      "template d\n  set cha.ddio 1\n  c2m a c2m_read\nend\nhosts 1 c\nhosts 1 d\n");
  const fleet::FleetReport r = run(two, 8, core::SweepMode::kFork);
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.threads, 2u);
  EXPECT_EQ(run(two, 1, core::SweepMode::kFork).threads, 1u);
}

TEST(FleetRunner, SingleSidedHostsAreRegimeNone) {
  const fleet::Scenario sc = fleet::Scenario::parse(
      "fleet solo\nwarmup_us 20\nmeasure_us 60\n"
      "template c\n  c2m a c2m_read cores=2\nend\n"
      "template p\n  p2m b fio_write\nend\n"
      "hosts 2 c\nhosts 2 p\n");
  const fleet::FleetReport r = run(sc, 0, core::SweepMode::kFork);
  EXPECT_EQ(r.hosts, 4u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kNone), 4u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kBlue), 0u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kRed), 0u);
  // One placement per host side.
  EXPECT_EQ(r.agg.tenants[0].placements, 2u);
  EXPECT_EQ(r.agg.tenants[1].placements, 2u);
  // Single-sided hosts run one window each: degradation is exactly 1.
  EXPECT_EQ(r.agg.tenants[0].mean_degradation(), 1.0);
  EXPECT_EQ(r.agg.tenants[1].mean_degradation(), 1.0);
}

}  // namespace
}  // namespace hostnet
