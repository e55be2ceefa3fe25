#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hostbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool host_time = false;  ///< host time (noisy), not modelled work (exact)
};

// Units: us/s is simulated microseconds per host second; every other time
// is host time.
const std::vector<MetricDef> kEndToEnd = {
    {"sim_us_per_s", "us/s"},
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    // correctness and tracing
    {"mismatch_frac", "ratio"},
    {"trace.overhead_pct", "%", true},
    // host: the core speed the end-to-end host times are scaled by
    {"host.probe_ns", "ns", true},
    // sim: the event kernel
    {"sim.sim_us", "us"},
    {"sim.events", "count"},
    {"sim.events_per_sim_us", "1/us"},
    {"sim.host_ns_per_event", "ns", true},
    // harness spans (host time per pass)
    {"span.build_ms", "ms", true},
    {"span.warmup_ms", "ms", true},
    {"span.measure_ms", "ms", true},
    {"span.collect_ms", "ms", true},
    {"span.window_self_ms", "ms", true},
    {"harness.windows", "count"},
    {"harness.window_ms.p50", "ms", true},
    {"harness.window_ms.p90", "ms", true},
    {"harness.window_ms.samples", "count"},
    {"harness.warmup_share", "ratio", true},
    // core: SweepCache outcome of every window
    {"core.windows", "count"},
    {"core.cold_frac", "ratio"},
    {"core.fork_frac", "ratio"},
    {"core.memo_hit_frac", "ratio"},
    // fleet
    {"fleet.parse_ms", "ms", true},
    {"fleet.run_s", "s", true},
    {"fleet.report_ms", "ms", true},
    {"fleet.hosts", "count"},
    {"fleet.fingerprints", "count"},
    {"fleet.host_ms", "ms", true},
    // mc / dram
    {"mc.lines_read", "count"},
    {"mc.lines_written", "count"},
    {"mc.kicks_per_line", "ratio"},
    {"mc.dead_kick_ratio", "ratio"},
    {"mc.rpq_occupancy", "count"},
    {"mc.wpq_occupancy", "count"},
    {"mc.wpq_full_frac", "ratio"},
    {"mc.switch_cycles", "count"},
    {"dram.row_miss_ratio_read", "ratio"},
    {"dram.row_miss_ratio_write", "ratio"},
    {"dram.act_read", "count"},
    {"dram.act_write", "count"},
    // cha
    {"cha.read_latency_c2m_ns", "ns"},
    {"cha.read_latency_p2m_ns", "ns"},
    {"cha.write_latency_ns", "ns"},
    {"cha.admission_wait_ns.c2m_read", "ns"},
    {"cha.admission_wait_ns.c2m_write", "ns"},
    {"cha.admission_wait_ns.p2m_read", "ns"},
    {"cha.admission_wait_ns.p2m_write", "ns"},
    {"cha.p2m_reads_in_flight", "count"},
    // cpu
    {"cpu.lfb_latency_ns", "ns"},
    {"cpu.lfb_occupancy", "count"},
    {"cpu.c2m_lines_read", "count"},
    {"cpu.c2m_lines_written", "count"},
    // iio
    {"iio.p2m_dev_gbps", "GB/s"},
    {"iio.p2m_iops", "1/s"},
    {"iio.p2m_write_occupancy", "count"},
    {"iio.p2m_read_occupancy", "count"},
    // net, per congestion-control stack
    {"net.goodput_gbps.dctcp", "GB/s"},
    {"net.loss_rate.dctcp", "ratio"},
    {"net.mark_fraction.dctcp", "ratio"},
    {"net.avg_cwnd.dctcp", "packets"},
    {"net.goodput_gbps.bbr", "GB/s"},
    {"net.loss_rate.bbr", "ratio"},
    {"net.mark_fraction.bbr", "ratio"},
    {"net.avg_cwnd.bbr", "packets"},
    {"net.goodput_gbps.davis", "GB/s"},
    {"net.loss_rate.davis", "ratio"},
    {"net.mark_fraction.davis", "ratio"},
    {"net.avg_cwnd.davis", "packets"},
};

bool known(const std::vector<MetricDef>& defs, const std::string& name) {
  for (const MetricDef& d : defs)
    if (name == d.name) return true;
  return false;
}

std::string number(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::mismatch(const std::string& what) {
  correct_ = false;
  std::cerr << "hostbench: MISMATCH: " << what << '\n';
}

void Report::e2e(const std::string& name, double value) {
  if (!known(kEndToEnd, name)) throw std::logic_error("unknown end-to-end metric " + name);
  e2e_[name] = value;
}

void Report::layer(const std::string& name, double value) {
  if (!known(kPerLayer, name)) throw std::logic_error("unknown per-layer metric " + name);
  layers_[name] = value;
}

std::map<std::string, double> Report::modelled_layers() const {
  std::map<std::string, double> out;
  for (const MetricDef& d : kPerLayer)
    if (const auto it = layers_.find(d.name); !d.host_time && it != layers_.end())
      out[d.name] = it->second;
  return out;
}

double Report::mismatch_frac() const {
  return attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
}

std::string Report::json(bool trace) const {
  const std::vector<MetricDef>& defs = trace ? kPerLayer : kEndToEnd;
  const std::map<std::string, double>& values = trace ? layers_ : e2e_;
  bool finite = true;
  std::string metrics;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::cerr << "hostbench: metric " << d.name << " is not finite\n";
      finite = false;
      v = 0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + d.name + "\": {\"value\": " + number(v) + ", \"unit\": \"" +
               d.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct() && finite ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" + metrics + "}}";
}

}  // namespace hostbench
