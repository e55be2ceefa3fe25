// Pass loop and shared reporting of the two serial sweep workloads
// (fig03_cold, tcp_stacks): a pass runs every window of the sweep once, in
// order; the run repeats identical passes until its host-time budget is
// spent and reports medians over them.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace hostbench {

/// Repetitions of a pass's host building timed after each pass for setup_s.
inline constexpr int kSetupRepsPerPass = 100;

struct SweepRun {
  std::vector<std::vector<WindowResult>> passes;  ///< [pass][window]
  std::vector<LayerTotals> layers;                ///< per pass
  std::vector<double> pass_s;                     ///< host wall time per pass
  std::vector<bool> traced;                       ///< pass recorded spans
  double peak_rss_mb = 0;                         ///< right after the last pass
  std::vector<double> setup_s;  ///< pass host-building times, sampled between passes
  SpeedProbe probe;             ///< sampled before every window, outside pass_s
};

/// Runs passes until `a.seconds` have elapsed (at least one; two in a
/// traced run, whose passes alternate traced and untraced so the tracing
/// overhead can be read off).
SweepRun run_sweep(const std::vector<WindowSpec>& windows, const RunArgs& a, Tracer& tr);

/// Checks every window against the same window of the first pass (thrown
/// calls and any modelled difference count as failed windows) and reports
/// the end-to-end metrics plus the sim/harness/core/mc/dram/cha/cpu/iio
/// layer metrics.
void report_sweep(const std::vector<WindowSpec>& windows, const SweepRun& run, Report& rep);

/// Prints rows under a banner in the bench Table format (the format of
/// bench/goldens and hostbench/pinned).
void print_table(const std::string& title, const std::vector<std::string>& headers,
                 const std::vector<std::vector<std::string>>& rows);

}  // namespace hostbench
