#include "core/experiment.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "core/parallel.hpp"

namespace hostnet::core {

std::string to_string(TcpStackKind kind) {
  switch (kind) {
    case TcpStackKind::kDctcp: return "dctcp";
    case TcpStackKind::kBbr: return "bbr";
    case TcpStackKind::kDavis: return "davis";
  }
  return "?";
}

namespace {
// Installed once at static-init time by src/net; read-only afterwards, so
// parallel sweep workers can share it without synchronization.
TcpFactory installed_tcp_factory = nullptr;
}  // namespace

void set_tcp_factory(TcpFactory f) { installed_tcp_factory = f; }
TcpFactory tcp_factory() { return installed_tcp_factory; }

namespace {

/// A measurement-window length from environment variable `name` in µs
/// (`fallback` when unset). The whole token must parse as a finite number
/// that fits a Tick; zero passes only when `allow_zero`.
Tick env_us(const char* name, Tick fallback, bool allow_zero) {
  const char* e = std::getenv(name);
  if (!e) return fallback;
  char* end = nullptr;
  const double v = std::strtod(e, &end);
  const double max_us = static_cast<double>(std::numeric_limits<Tick>::max()) / kMicrosecond;
  if (end == e || *end != '\0' || !std::isfinite(v) || v < 0 || v >= max_us ||
      (!allow_zero && us(v) <= 0))
    throw std::invalid_argument(std::string(name) + "=\"" + e + "\": expected a " +
                                (allow_zero ? "non-negative" : "positive") +
                                " number of microseconds");
  return us(v);
}

}  // namespace

RunOptions default_run_options() {
  RunOptions o;
  o.measure = env_us("HOSTNET_MEASURE_US", o.measure, false);
  o.warmup = env_us("HOSTNET_WARMUP_US", o.warmup, true);
  return o;
}

namespace {

void add_c2m(HostSystem& host, const C2MSpec& spec) {
  for (std::uint32_t i = 0; i < spec.cores; ++i) {
    cpu::CoreWorkload wl = spec.workload;
    if (spec.per_core_region) wl.region.base += static_cast<std::uint64_t>(i) * spec.region_stride;
    host.add_core(wl);
  }
}

bool episodic(const C2MSpec& spec) {
  return spec.workload.episode_reads + spec.workload.episode_writes > 0;
}

// -- config fingerprint -------------------------------------------------------
// Field-by-field canonical byte encoding. Whole-struct memcpy would pull in
// padding bytes (indeterminate), so every field is appended individually;
// enums and bools go through their value representation of fixed width.

template <class T>
void enc(std::string& s, T v) {
  static_assert(std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  s.append(buf, sizeof(T));
}

void enc_str(std::string& s, const std::string& v) {
  enc(s, static_cast<std::uint64_t>(v.size()));
  s.append(v);
}

void enc_region(std::string& s, const mem::Region& r) {
  enc(s, r.base);
  enc(s, r.bytes);
}

void enc_timing(std::string& s, const dram::Timing& t) {
  enc(s, t.t_trans);
  enc(s, t.t_cas);
  enc(s, t.t_rcd);
  enc(s, t.t_rp);
  enc(s, t.t_wtr);
  enc(s, t.t_rtw);
  enc(s, t.t_ras);
  enc(s, t.t_wr);
  enc(s, t.t_page_close_idle);
}

void enc_host(std::string& s, const HostConfig& c) {
  enc_str(s, c.name);
  enc(s, c.total_cores);
  enc(s, c.core_ghz);
  enc(s, c.dram.channels);
  enc(s, c.dram.banks_per_channel);
  enc(s, c.dram.row_bytes);
  enc(s, c.dram.channel_interleave_bytes);
  enc(s, c.dram.bank_interleave_bytes);
  enc(s, static_cast<std::uint8_t>(c.dram.hash));
  enc(s, c.mc.rpq_capacity);
  enc(s, c.mc.wpq_capacity);
  enc(s, c.mc.wpq_high_wm);
  enc(s, c.mc.wpq_low_wm);
  enc(s, c.mc.max_write_age);
  enc(s, c.mc.dwell_per_queued_read);
  enc(s, c.mc.read_dwell_cap);
  enc(s, c.mc.prep_window);
  enc_timing(s, c.mc.timing);
  enc(s, c.cha.read_tor);
  enc(s, c.cha.write_tracker);
  enc(s, c.cha.read_fwd_window);
  enc(s, c.cha.write_fwd_window);
  enc(s, c.cha.t_read_proc);
  enc(s, c.cha.t_write_proc);
  enc(s, c.cha.t_read_fwd);
  enc(s, c.cha.t_write_fwd);
  enc(s, c.cha.t_write_ack);
  enc(s, c.cha.t_return_core);
  enc(s, c.cha.t_return_iio);
  enc(s, c.cha.ddio);
  enc(s, c.cha.ddio_capacity_bytes);
  enc(s, c.cha.ddio_ways);
  enc(s, c.cha.peripheral_write_priority);
  enc(s, c.cha.write_tracker_peripheral_reserve);
  enc(s, c.core.lfb_entries);
  enc(s, c.core.prefetch_extra);
  enc(s, c.core.t_core_to_cha);
  enc(s, c.core.t_wb_to_cha);
  enc(s, c.iio.write_credits);
  enc(s, c.iio.read_credits);
  enc(s, c.iio.t_proc_write);
  enc(s, c.iio.t_proc_read);
  enc(s, c.iio.t_to_cha);
  enc(s, c.iio.t_complete_read);
  enc(s, c.pcie_write_gb_per_s);
  enc(s, c.pcie_read_gb_per_s);
}

void enc_c2m(std::string& s, const std::optional<C2MSpec>& c2m) {
  enc(s, static_cast<std::uint8_t>(c2m.has_value()));
  if (!c2m) return;
  enc_str(s, c2m->name);
  enc(s, static_cast<std::uint8_t>(c2m->workload.pattern));
  enc_region(s, c2m->workload.region);
  enc(s, c2m->workload.write_fraction);
  enc(s, c2m->workload.think);
  enc(s, c2m->workload.episode_reads);
  enc(s, c2m->workload.episode_writes);
  enc(s, c2m->workload.episode_compute);
  enc(s, c2m->workload.episodes_per_query);
  enc(s, c2m->cores);
  enc(s, c2m->per_core_region);
  enc(s, c2m->region_stride);
}

void enc_p2m(std::string& s, const std::optional<P2MSpec>& p2m) {
  enc(s, static_cast<std::uint8_t>(p2m.has_value()));
  if (!p2m) return;
  enc_str(s, p2m->name);
  enc(s, static_cast<std::uint8_t>(p2m->storage.has_value()));
  if (p2m->storage) {
    const iio::StorageConfig& sc = *p2m->storage;
    enc(s, static_cast<std::uint8_t>(sc.host_op));
    enc(s, sc.request_bytes);
    enc(s, sc.queue_depth);
    enc(s, sc.link_gb_per_s);
    enc(s, sc.per_request_latency);
    enc_region(s, sc.region);
    enc(s, sc.mixed_fraction);
  }
  enc(s, static_cast<std::uint8_t>(p2m->tcp.has_value()));
  if (p2m->tcp) {
    const TcpSpec& tc = *p2m->tcp;
    enc(s, static_cast<std::uint8_t>(tc.stack));
    enc(s, tc.wire_gb_per_s);
    enc(s, tc.mtu_bytes);
    enc(s, tc.copy_cores);
    enc(s, tc.ring_packets);
    enc(s, tc.base_rtt);
  }
}

/// Build the transport requested by `p2m` (nullptr when none). Must run at
/// the same construction position on the cold and fork paths -- after cores
/// and storage -- because the receiver attaches ExternalHooks and event
/// ordering depends on registration order.
std::unique_ptr<TcpTransport> make_tcp(HostSystem& host, const std::optional<P2MSpec>& p2m) {
  if (!p2m || !p2m->tcp) return nullptr;
  TcpFactory f = tcp_factory();
  if (!f)
    throw std::logic_error(
        "P2MSpec requests a TCP transport but no factory is installed; "
        "link hostnet_net (net::install_tcp_factory)");
  return f(host, *p2m->tcp);
}

}  // namespace

std::string config_fingerprint(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                               const std::optional<P2MSpec>& p2m, std::uint64_t seed,
                               Tick warmup) {
  std::string s;
  s.reserve(256);
  enc_host(s, host);
  enc_c2m(s, c2m);
  enc_p2m(s, p2m);
  enc(s, seed);
  enc(s, warmup);
  return s;
}

// -- SweepCache ---------------------------------------------------------------

struct SweepCache::Entry {
  HostSystem host;
  /// The warmed host's TCP receiver, when the point places one: its hooks
  /// capture `this`, so it must live exactly as long as the cached host.
  std::unique_ptr<TcpTransport> tcp;
  HostSnapshot snap;
  Entry(const HostConfig& hc, std::uint64_t seed) : host(hc, seed) {}
};

SweepCache::SweepCache() = default;
SweepCache::~SweepCache() = default;

void SweepCache::clear() {
  checkpoints_.clear();
  outcomes_.clear();
  stats_ = Stats{};
}

RunOutcome run_workloads(const HostConfig& hc, const std::optional<C2MSpec>& c2m,
                         const std::optional<P2MSpec>& p2m, const RunOptions& opt,
                         SweepCache* cache, SweepMode mode) {
  if (mode == SweepMode::kCold) cache = nullptr;

  if (!cache) {
    // Cold reference path: build, warm, measure -- one host per point.
    HostSystem host(hc, opt.seed);
    if (c2m) add_c2m(host, *c2m);
    if (p2m && p2m->storage) host.add_storage(*p2m->storage);
    const std::unique_ptr<TcpTransport> tcp = make_tcp(host, p2m);
    host.run(opt.warmup, opt.measure);

    RunOutcome out;
    out.metrics = host.collect();
    if (c2m)
      out.c2m_score = episodic(*c2m) ? out.metrics.queries_per_sec : out.metrics.c2m_app_gbps;
    if (p2m)
      out.p2m_score = tcp ? tcp->goodput_gbps(host.sim().now()) : out.metrics.p2m_dev_gbps;
    return out;
  }

  // Fork path. Checkpoint key = everything that shapes construction +
  // warmup; outcome key additionally pins the measure window. A full
  // outcome hit is a deterministic replay, so returning the memoized
  // RunOutcome is bit-identical to re-simulating it.
  const std::string key = config_fingerprint(hc, c2m, p2m, opt.seed, opt.warmup);
  std::string okey = key;
  okey.append(reinterpret_cast<const char*>(&opt.measure), sizeof(opt.measure));
  if (auto it = cache->outcomes_.find(okey); it != cache->outcomes_.end()) {
    ++cache->stats_.outcome_hits;
    return it->second;
  }
  ++cache->stats_.outcome_misses;

  SweepCache::Entry* e;
  if (auto it = cache->checkpoints_.find(key); it != cache->checkpoints_.end()) {
    ++cache->stats_.checkpoint_hits;
    e = it->second.get();
    e->host.restore(e->snap);
  } else {
    ++cache->stats_.checkpoint_misses;
    auto entry = std::make_unique<SweepCache::Entry>(hc, opt.seed);
    // Identical construction order to the cold path (cores, then storage,
    // then the TCP receiver): component seeds and registry order depend on
    // it.
    if (c2m) add_c2m(entry->host, *c2m);
    if (p2m && p2m->storage) entry->host.add_storage(*p2m->storage);
    entry->tcp = make_tcp(entry->host, p2m);
    // run(warmup, 0) warms and resets counters, leaving the host at the
    // measurement quiesce point: run_until() drains every event at or
    // before the boundary tick, so this plus run_more(measure) replays the
    // exact event sequence of a cold run(warmup, measure).
    entry->host.run(opt.warmup, 0);
    entry->host.save_state(entry->snap);
    e = entry.get();
    cache->checkpoints_.emplace(key, std::move(entry));
  }

  e->host.run_more(opt.measure);
  RunOutcome out;
  out.metrics = e->host.collect();
  if (c2m)
    out.c2m_score = episodic(*c2m) ? out.metrics.queries_per_sec : out.metrics.c2m_app_gbps;
  if (p2m)
    out.p2m_score = e->tcp ? e->tcp->goodput_gbps(e->host.sim().now()) : out.metrics.p2m_dev_gbps;
  cache->outcomes_.emplace(std::move(okey), out);
  return out;
}

std::vector<RunOutcome> run_points(const std::vector<WorkloadPoint>& points,
                                   const RunOptions& opt, unsigned threads) {
  std::vector<RunOutcome> out(points.size());
  run_parallel(
      points.size(),
      [&](std::size_t i) {
        const WorkloadPoint& p = points[i];
        out[i] = run_workloads(p.host, p.c2m, p.p2m, opt, nullptr, SweepMode::kCold);
      },
      threads);
  return out;
}

ColocationOutcome run_colocation(const HostConfig& host, const C2MSpec& c2m,
                                 const P2MSpec& p2m, const RunOptions& opt, unsigned threads) {
  const std::vector<RunOutcome> r = run_points(
      {{host, c2m, std::nullopt}, {host, std::nullopt, p2m}, {host, c2m, p2m}}, opt, threads);
  return {r[0], r[1], r[2]};
}

std::vector<ColocationOutcome> sweep_c2m_cores(const HostConfig& host, C2MSpec c2m,
                                               const P2MSpec& p2m,
                                               const std::vector<std::uint32_t>& cores,
                                               const RunOptions& opt, unsigned threads) {
  // Window 0 is the shared iso-P2M window; windows 2i+1 / 2i+2 are point
  // i's iso-C2M and colocated windows.
  std::vector<WorkloadPoint> points{{host, std::nullopt, p2m}};
  points.reserve(cores.size() * 2 + 1);
  for (std::uint32_t n : cores) {
    c2m.cores = n;
    points.push_back({host, c2m, std::nullopt});
    points.push_back({host, c2m, p2m});
  }
  const std::vector<RunOutcome> r = run_points(points, opt, threads);
  std::vector<ColocationOutcome> out;
  out.reserve(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) out.push_back({r[2 * i + 1], r[0], r[2 * i + 2]});
  return out;
}

}  // namespace hostnet::core
