#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <numeric>
#include <random>

#include "net/dctcp.hpp"
#include "net/tcp_stack.hpp"

namespace hostbench {

namespace {

void put(std::string& s, double v) { append_exact(s, v); }

void put(std::string& s, std::uint64_t v) {
  s += std::to_string(v);
  s += ',';
}

void put(std::string& s, const core::DomainObservation& d) {
  put(s, d.credits_in_use);
  put(s, d.max_credits_used);
  put(s, d.latency_ns);
  put(s, d.throughput_gbps);
}

/// Every modelled output of a window that run_workloads also returns.
std::string outcome_signature(const core::Metrics& m, double c2m_score, double p2m_score) {
  std::string s;
  s.reserve(1024);
  for (double g : m.mem_gbps) put(s, g);
  put(s, m.c2m_read);
  put(s, m.c2m_write);
  put(s, m.p2m_read);
  put(s, m.p2m_write);
  put(s, m.lfb_latency_ns);
  put(s, m.lfb_littles_latency_ns);
  put(s, m.lfb_avg_occupancy);
  put(s, m.cha_dram_read_latency_c2m_ns);
  put(s, m.cha_dram_read_latency_p2m_ns);
  put(s, m.cha_mc_write_latency_ns);
  put(s, m.p2m_reads_in_flight_at_cha);
  put(s, m.n_waiting);
  for (double w : m.cha_admission_wait_ns) put(s, w);
  put(s, m.avg_rpq_occupancy);
  put(s, m.avg_wpq_occupancy);
  put(s, m.wpq_full_fraction);
  put(s, m.row_miss_ratio_read);
  put(s, m.row_miss_ratio_write);
  put(s, m.mc_lines_read);
  put(s, m.mc_lines_written);
  put(s, m.mc_switch_cycles);
  put(s, m.mc_act_read);
  put(s, m.mc_act_write);
  put(s, m.mc_pre_conflict_read);
  put(s, m.mc_pre_conflict_write);
  put(s, m.c2m_lines_read);
  put(s, m.c2m_lines_written);
  put(s, m.c2m_app_gbps);
  put(s, m.queries_per_sec);
  put(s, m.p2m_dev_gbps);
  put(s, m.p2m_iops);
  put(s, c2m_score);
  put(s, p2m_score);
  return s;
}

bool episodic(const core::C2MSpec& spec) {
  return spec.workload.episode_reads + spec.workload.episode_writes > 0;
}

void kick_totals(core::HostSystem& host, std::uint64_t& scheduled, std::uint64_t& cancelled) {
  scheduled = cancelled = 0;
  for (std::uint32_t c = 0; c < host.mc().num_channels(); ++c) {
    scheduled += host.mc().channel(c).kick_stats().scheduled;
    cancelled += host.mc().channel(c).kick_stats().cancelled;
  }
}

}  // namespace

void append_exact(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a,", v);
  s += buf;
}

std::string WindowResult::signature() const {
  std::string s = outcome_signature(m, c2m_score, p2m_score);
  put(s, tcp.goodput_gbps);
  put(s, tcp.loss_rate);
  put(s, tcp.mark_fraction);
  put(s, tcp.avg_cwnd);
  put(s, events);
  put(s, kicks_scheduled);
  put(s, kicks_cancelled);
  return s;
}

namespace {

/// A window's host with its workloads attached. Construction order matches
/// core::run_workloads: cores, storage, then the TCP receiver (component
/// seeds and hook order depend on it). The receiver is declared after the
/// host, so it detaches first.
struct BuiltHost {
  core::HostSystem host;
  std::optional<hostnet::net::TcpReceiver> rx;

  explicit BuiltHost(const WindowSpec& w) : host(w.host, w.opt.seed) {
    if (w.c2m) {
      for (std::uint32_t i = 0; i < w.c2m->cores; ++i) {
        hostnet::cpu::CoreWorkload wl = w.c2m->workload;
        if (w.c2m->per_core_region)
          wl.region.base += static_cast<std::uint64_t>(i) * w.c2m->region_stride;
        host.add_core(wl);
      }
    }
    if (w.storage) host.add_storage(*w.storage);
    if (w.tcp) rx.emplace(host, hostnet::net::tcp_config(*w.tcp));
  }
};

}  // namespace

WindowResult run_window(const WindowSpec& w, Tracer& tr) {
  WindowResult r;
  SpanScope window(tr, "window");
  try {
    SpanScope build(tr, "build");
    BuiltHost b(w);
    core::HostSystem& host = b.host;
    r.build_ms = build.close();

    {
      SpanScope warm(tr, "warmup");
      host.run(w.opt.warmup, 0);
      r.warmup_ms = warm.close();
    }
    std::uint64_t k0 = 0, c0 = 0;
    kick_totals(host, k0, c0);
    {
      SpanScope measure(tr, "measure");
      host.run_more(w.opt.measure);
      r.measure_ms = measure.close();
    }

    SpanScope collect(tr, "collect");
    r.m = host.collect();
    const hostnet::Tick now = host.sim().now();
    if (w.c2m) r.c2m_score = episodic(*w.c2m) ? r.m.queries_per_sec : r.m.c2m_app_gbps;
    if (b.rx) {
      r.tcp = TcpFigures{b.rx->goodput_gbps(now), b.rx->loss_rate(), b.rx->mark_fraction(),
                         b.rx->avg_cwnd()};
      r.p2m_score = r.tcp.goodput_gbps;
    } else if (w.storage) {
      r.p2m_score = r.m.p2m_dev_gbps;
    }
    r.events = host.sim().events_executed();
    std::uint64_t k1 = 0, c1 = 0;
    kick_totals(host, k1, c1);
    r.kicks_scheduled = k1 - k0;
    r.kicks_cancelled = c1 - c0;
    r.collect_ms = collect.close();
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.window_ms = window.close();
  return r;
}

double build_seconds(const std::vector<WindowSpec>& windows) {
  double ms = 0;
  for (const WindowSpec& w : windows) {
    std::optional<BuiltHost> b;
    const auto t0 = Clock::now();
    b.emplace(w);
    ms += ms_since(t0);
  }  // teardown is not set-up: it runs outside the timed region
  return ms / 1000.0;
}

bool matches_cold_reference(const WindowSpec& w, const WindowResult& r) {
  if (!r.ok) return false;
  std::optional<core::P2MSpec> p2m;
  if (w.storage || w.tcp) {
    p2m.emplace();
    p2m->storage = w.storage;
    p2m->tcp = w.tcp;
  }
  try {
    const core::RunOutcome ref =
        core::run_workloads(w.host, w.c2m, p2m, w.opt, nullptr, core::SweepMode::kCold);
    return outcome_signature(ref.metrics, ref.c2m_score, ref.p2m_score) ==
           outcome_signature(r.m, r.c2m_score, r.p2m_score);
  } catch (const std::exception&) {
    return false;
  }
}

void LayerTotals::add(const WindowSpec& w, const WindowResult& r) {
  ++windows;
  build_ms += r.build_ms;
  warmup_ms += r.warmup_ms;
  measure_ms += r.measure_ms;
  collect_ms += r.collect_ms;
  window_ms += r.window_ms;
  if (!r.ok) return;
  const core::Metrics& m = r.m;
  events += r.events;
  sim_us += hostnet::to_us(w.opt.warmup + w.opt.measure);

  mc_lines_read += m.mc_lines_read;
  mc_lines_written += m.mc_lines_written;
  kicks_scheduled += r.kicks_scheduled;
  kicks_cancelled += r.kicks_cancelled;
  switch_cycles += m.mc_switch_cycles;
  act_read += m.mc_act_read;
  act_write += m.mc_act_write;
  rpq_occupancy.add(m.avg_rpq_occupancy);
  wpq_occupancy.add(m.avg_wpq_occupancy);
  wpq_full_frac.add(m.wpq_full_fraction);
  if (m.mc_lines_read) row_miss_read.add(m.row_miss_ratio_read);
  if (m.mc_lines_written) row_miss_write.add(m.row_miss_ratio_write);

  if (m.cha_dram_read_latency_c2m_ns > 0) cha_lat_c2m.add(m.cha_dram_read_latency_c2m_ns);
  if (m.cha_dram_read_latency_p2m_ns > 0) cha_lat_p2m.add(m.cha_dram_read_latency_p2m_ns);
  if (m.cha_mc_write_latency_ns > 0) cha_write_lat.add(m.cha_mc_write_latency_ns);
  if (m.cha_dram_read_latency_p2m_ns > 0) p2m_reads_in_flight.add(m.p2m_reads_in_flight_at_cha);
  for (std::size_t c = 0; c < 4; ++c)
    if (m.cha_admission_wait_ns[c] > 0) admission_wait[c].add(m.cha_admission_wait_ns[c]);

  c2m_lines_read += m.c2m_lines_read;
  c2m_lines_written += m.c2m_lines_written;
  if (w.c2m) {
    lfb_latency.add(m.lfb_latency_ns);
    lfb_occupancy.add(m.lfb_avg_occupancy);
  }
  if (w.storage) {
    p2m_dev_gbps.add(m.p2m_dev_gbps);
    p2m_iops.add(m.p2m_iops);
  }
  if (w.storage || w.tcp) {
    p2m_write_occupancy.add(m.p2m_write.credits_in_use);
    p2m_read_occupancy.add(m.p2m_read.credits_in_use);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

constexpr std::size_t kLineWords = 64 / sizeof(std::uint32_t);
constexpr std::size_t kProbeLines = (256 * 1024) / 64;
constexpr std::size_t kProbeSteps = 2'000'000;

}  // namespace

SpeedProbe::SpeedProbe() : next_(kProbeLines * kLineWords, 0) {
  // One random cycle through every line (Sattolo's shuffle), from a fixed
  // seed so every run chases the same cycle.
  std::vector<std::uint32_t> order(kProbeLines);
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937 rng(12345);
  for (std::size_t i = kProbeLines - 1; i > 0; --i) {
    std::uniform_int_distribution<std::size_t> pick(0, i - 1);
    std::swap(order[i], order[pick(rng)]);
  }
  for (std::size_t i = 0; i < kProbeLines; ++i)
    next_[order[i] * kLineWords] =
        static_cast<std::uint32_t>(order[(i + 1) % kProbeLines] * kLineWords);
}

void SpeedProbe::sample() {
  std::uint32_t at = at_;
  for (std::size_t i = 0; i < kProbeLines; ++i) at = next_[at];
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kProbeSteps; ++i) at = next_[at];
  ns_.push_back(ms_since(t0) * 1e6 / static_cast<double>(kProbeSteps));
  at_ = at;  // keeps the chase live
}

}  // namespace hostbench
