// The benchmark's measurement harness: one simulated window at a time,
// driven through the library's public API exactly as the cold sweep path
// (core::run_workloads with SweepMode::kCold) drives it, but split into
// timed spans -- build, warmup, measure, collect -- and read out layer by
// layer. The warmup/measure split is run(warmup, 0) + run_more(measure),
// which core/experiment.cpp documents as replaying a cold run exactly (the
// self-tests pin it against run(warmup, measure) and the goldens).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "trace.hpp"

namespace hostbench {

namespace core = hostnet::core;

/// One measurement window: a host plus the workloads placed on it.
struct WindowSpec {
  core::HostConfig host;
  std::optional<core::C2MSpec> c2m;
  std::optional<hostnet::iio::StorageConfig> storage;
  std::optional<core::TcpSpec> tcp;  ///< built as net::tcp_config(*tcp)
  core::RunOptions opt;
};

struct TcpFigures {
  double goodput_gbps = 0;
  double loss_rate = 0;
  double mark_fraction = 0;
  double avg_cwnd = 0;
};

struct WindowResult {
  bool ok = false;  ///< false when a library call threw
  std::string error;
  core::Metrics m;
  double c2m_score = 0;  ///< core read GB/s (queries/s for episodic apps)
  double p2m_score = 0;  ///< device DMA GB/s, or transport goodput
  TcpFigures tcp;
  std::uint64_t events = 0;           ///< kernel events, warmup + measure
  std::uint64_t kicks_scheduled = 0;  ///< MC self-kicks during measure
  std::uint64_t kicks_cancelled = 0;  ///< ... of which superseded (dead)
  // Host time (ms) of the spans around each public call.
  double build_ms = 0;
  double warmup_ms = 0;
  double measure_ms = 0;
  double collect_ms = 0;
  double window_ms = 0;

  /// Exact (hex-float) encoding of every modelled output, for identity
  /// checks across passes, runs and thread counts.
  std::string signature() const;
};

/// Build, warm, measure and read out one window. Never throws: a failing
/// library call yields ok == false.
WindowResult run_window(const WindowSpec& w, Tracer& tr);

/// Host time of building every window's host once (the set-up a pass
/// pays), in seconds. Throws what a failing build throws.
double build_seconds(const std::vector<WindowSpec>& windows);

/// The same window through core::run_workloads(..., SweepMode::kCold) --
/// the library's reference path -- compared field by field with `r`.
bool matches_cold_reference(const WindowSpec& w, const WindowResult& r);

/// Running mean over the windows where a layer is active.
struct Mean {
  double sum = 0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double get() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/// Per-layer account of one pass over a workload's windows. Counts are
/// summed; latencies and occupancies are averaged over the windows in which
/// the layer carried traffic.
struct LayerTotals {
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  double sim_us = 0;  ///< simulated warmup + measure actually executed
  // mc / dram
  std::uint64_t mc_lines_read = 0, mc_lines_written = 0;
  std::uint64_t kicks_scheduled = 0, kicks_cancelled = 0;
  std::uint64_t switch_cycles = 0, act_read = 0, act_write = 0;
  Mean rpq_occupancy, wpq_occupancy, wpq_full_frac, row_miss_read, row_miss_write;
  // cha
  Mean cha_lat_c2m, cha_lat_p2m, cha_write_lat, p2m_reads_in_flight;
  Mean admission_wait[4];
  // cpu
  std::uint64_t c2m_lines_read = 0, c2m_lines_written = 0;
  Mean lfb_latency, lfb_occupancy;
  // iio
  Mean p2m_dev_gbps, p2m_iops, p2m_write_occupancy, p2m_read_occupancy;
  // host time (ms), summed over the pass
  double build_ms = 0, warmup_ms = 0, measure_ms = 0, collect_ms = 0, window_ms = 0;

  void add(const WindowSpec& w, const WindowResult& r);
};

/// Median (mean of the middle two for even counts) and nearest-rank
/// percentile of a sample.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

/// Appends `v` in hex-float form (exact) and a comma.
void append_exact(std::string& s, double v);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// The host core's current speed, sampled between windows or passes: a
/// dependent pointer chase over a fixed 256 KiB cycle (L2-resident), timed
/// per step. On a shared VM the cores' speed drifts by tens of percent over
/// minutes, and the simulator slows with it; this chase tracks that drift
/// more closely than an ALU loop or a chase that misses to memory. It runs
/// none of the library's code, so a change to the simulator cannot move it.
/// Host-time end-to-end metrics are multiplied by scale(): they are
/// reported at the reference speed of kReferenceNs per step.
class SpeedProbe {
 public:
  /// Step time the metrics are scaled to: about the median on the 4-vCPU
  /// Xeon (Sapphire Rapids) VM the bounds were set on.
  static constexpr double kReferenceNs = 7.0;

  SpeedProbe();
  /// One timed chase of about 15 ms, after an untimed lap that brings the
  /// cycle back into cache.
  void sample();
  /// Median step time over the samples so far, in ns.
  double step_ns() const { return median(ns_); }
  /// Host seconds times scale() are seconds at the reference speed.
  double scale() const { return ns_.empty() ? 1.0 : kReferenceNs / step_ns(); }

 private:
  std::vector<std::uint32_t> next_;  ///< one link per 64-byte line
  std::vector<double> ns_;
  std::uint32_t at_ = 0;
};

}  // namespace hostbench
