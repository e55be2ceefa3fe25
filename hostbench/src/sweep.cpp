#include "sweep.hpp"

#include <cstdio>
#include <string>

#include "common/table.hpp"

namespace hostbench {

SweepRun run_sweep(const std::vector<WindowSpec>& windows, const RunArgs& a, Tracer& tr) {
  SweepRun run;
  Tracer untraced(false);
  const auto start = Clock::now();
  while (another_pass(ms_since(start) / 1000.0, run.passes.size(), a.seconds, tr.enabled())) {
    // A traced run alternates: even passes record spans, odd ones do not.
    const bool traced = tr.enabled() && run.passes.size() % 2 == 0;
    Tracer& t = traced ? tr : untraced;
    std::vector<WindowResult> results;
    results.reserve(windows.size());
    LayerTotals layers;
    const auto pass_start = Clock::now();
    double probe_ms = 0;
    {
      SpanScope pass(t, "pass");
      for (const WindowSpec& w : windows) {
        const auto probe_start = Clock::now();
        run.probe.sample();
        probe_ms += ms_since(probe_start);
        results.push_back(run_window(w, t));
        layers.add(w, results.back());
      }
    }
    run.pass_s.push_back((ms_since(pass_start) - probe_ms) / 1000.0);
    std::fprintf(stderr, "hostbench: pass %zu: %.3f s (%llu events)\n", run.passes.size(),
                 run.pass_s.back(), static_cast<unsigned long long>(layers.events));
    run.passes.push_back(std::move(results));
    run.layers.push_back(layers);
    run.traced.push_back(traced);
    // Set-up is sampled between passes, outside their timing, so its median
    // spans the run's machine state instead of one moment of it.
    for (int i = 0; i < kSetupRepsPerPass; ++i) run.setup_s.push_back(build_seconds(windows));
  }
  run.peak_rss_mb = peak_rss_mb();
  return run;
}

void print_table(const std::string& title, const std::vector<std::string>& headers,
                 const std::vector<std::vector<std::string>>& rows) {
  hostnet::Table t(headers);
  for (const auto& r : rows) t.row(r);
  hostnet::banner(title);
  t.print();
}

void report_sweep(const std::vector<WindowSpec>& windows, const SweepRun& run, Report& rep) {
  const std::size_t npass = run.passes.size();
  rep.add_attempted(windows.size() * npass);
  for (std::size_t k = 0; k < npass; ++k) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const WindowResult& r = run.passes[k][i];
      if (!r.ok) {
        rep.add_failed(1);
        rep.mismatch("pass " + std::to_string(k) + " window " + std::to_string(i) +
                     " threw: " + r.error);
      } else if (k > 0 && run.passes[0][i].ok &&
                 r.signature() != run.passes[0][i].signature()) {
        rep.add_failed(1);
        rep.mismatch("pass " + std::to_string(k) + " window " + std::to_string(i) +
                     " differs from pass 0 (non-deterministic)");
      }
    }
  }

  // -- end to end: medians over passes ----------------------------------------
  std::vector<double> rate, host_ns_per_event, warmup_share;
  std::vector<double> build, warm, measure, collect, self, window_ms;
  std::vector<double> traced_s, untraced_s;
  for (std::size_t k = 0; k < npass; ++k) {
    const LayerTotals& l = run.layers[k];
    rate.push_back(l.sim_us / run.pass_s[k]);
    if (l.events) host_ns_per_event.push_back((l.warmup_ms + l.measure_ms) * 1e6 /
                                              static_cast<double>(l.events));
    warmup_share.push_back(l.warmup_ms / (l.warmup_ms + l.measure_ms));
    build.push_back(l.build_ms);
    warm.push_back(l.warmup_ms);
    measure.push_back(l.measure_ms);
    collect.push_back(l.collect_ms);
    self.push_back(l.window_ms - l.build_ms - l.warmup_ms - l.measure_ms - l.collect_ms);
    for (const WindowResult& r : run.passes[k]) window_ms.push_back(r.window_ms);
    (run.traced[k] ? traced_s : untraced_s).push_back(run.pass_s[k]);
  }
  // Host times at the probe's reference speed (see SpeedProbe).
  const double scale = run.probe.scale();
  std::fprintf(stderr, "hostbench: speed probe %.3f ns/step, host times scaled by %.4f\n",
               run.probe.step_ns(), scale);
  rep.e2e("sim_us_per_s", median(rate) / scale);
  rep.e2e("wall_s", median(run.pass_s) * scale);
  rep.e2e("setup_s", median(run.setup_s) * scale);
  rep.e2e("peak_rss_mb", run.peak_rss_mb);

  // -- per layer ---------------------------------------------------------------
  // Modelled counts come from the first pass (every pass repeats them
  // exactly, checked above); host times are medians over passes.
  const LayerTotals& l = run.layers[0];
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  if (!traced_s.empty() && !untraced_s.empty())
    rep.layer("trace.overhead_pct", (median(traced_s) / median(untraced_s) - 1.0) * 100.0);

  rep.layer("host.probe_ns", run.probe.step_ns());
  rep.layer("sim.sim_us", l.sim_us);
  rep.layer("sim.events", static_cast<double>(l.events));
  rep.layer("sim.events_per_sim_us", ratio(static_cast<double>(l.events), l.sim_us));
  rep.layer("sim.host_ns_per_event", median(host_ns_per_event));

  rep.layer("span.build_ms", median(build));
  rep.layer("span.warmup_ms", median(warm));
  rep.layer("span.measure_ms", median(measure));
  rep.layer("span.collect_ms", median(collect));
  rep.layer("span.window_self_ms", median(self));
  rep.layer("harness.windows", static_cast<double>(windows.size()));
  rep.layer("harness.window_ms.p50", percentile(window_ms, 50));
  rep.layer("harness.window_ms.p90", percentile(window_ms, 90));
  rep.layer("harness.window_ms.samples", static_cast<double>(window_ms.size()));
  rep.layer("harness.warmup_share", median(warmup_share));

  // Every window is built and warmed from scratch: no SweepCache involved.
  rep.layer("core.windows", static_cast<double>(windows.size()));
  rep.layer("core.cold_frac", 1.0);
  rep.layer("core.fork_frac", 0.0);
  rep.layer("core.memo_hit_frac", 0.0);

  const double lines = static_cast<double>(l.mc_lines_read + l.mc_lines_written);
  rep.layer("mc.lines_read", static_cast<double>(l.mc_lines_read));
  rep.layer("mc.lines_written", static_cast<double>(l.mc_lines_written));
  rep.layer("mc.kicks_per_line", ratio(static_cast<double>(l.kicks_scheduled), lines));
  rep.layer("mc.dead_kick_ratio", ratio(static_cast<double>(l.kicks_cancelled),
                                        static_cast<double>(l.kicks_scheduled)));
  rep.layer("mc.rpq_occupancy", l.rpq_occupancy.get());
  rep.layer("mc.wpq_occupancy", l.wpq_occupancy.get());
  rep.layer("mc.wpq_full_frac", l.wpq_full_frac.get());
  rep.layer("mc.switch_cycles", static_cast<double>(l.switch_cycles));
  rep.layer("dram.row_miss_ratio_read", l.row_miss_read.get());
  rep.layer("dram.row_miss_ratio_write", l.row_miss_write.get());
  rep.layer("dram.act_read", static_cast<double>(l.act_read));
  rep.layer("dram.act_write", static_cast<double>(l.act_write));

  rep.layer("cha.read_latency_c2m_ns", l.cha_lat_c2m.get());
  rep.layer("cha.read_latency_p2m_ns", l.cha_lat_p2m.get());
  rep.layer("cha.write_latency_ns", l.cha_write_lat.get());
  static const char* const kClasses[4] = {"c2m_read", "c2m_write", "p2m_read", "p2m_write"};
  for (std::size_t c = 0; c < 4; ++c)
    rep.layer(std::string("cha.admission_wait_ns.") + kClasses[c], l.admission_wait[c].get());
  rep.layer("cha.p2m_reads_in_flight", l.p2m_reads_in_flight.get());

  rep.layer("cpu.lfb_latency_ns", l.lfb_latency.get());
  rep.layer("cpu.lfb_occupancy", l.lfb_occupancy.get());
  rep.layer("cpu.c2m_lines_read", static_cast<double>(l.c2m_lines_read));
  rep.layer("cpu.c2m_lines_written", static_cast<double>(l.c2m_lines_written));

  rep.layer("iio.p2m_dev_gbps", l.p2m_dev_gbps.get());
  rep.layer("iio.p2m_iops", l.p2m_iops.get());
  rep.layer("iio.p2m_write_occupancy", l.p2m_write_occupancy.get());
  rep.layer("iio.p2m_read_occupancy", l.p2m_read_occupancy.get());
}

}  // namespace hostbench
