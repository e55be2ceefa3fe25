// The benchmark's three workloads. Each builds its inputs from the seed,
// runs them through the library's public API for the requested host time,
// checks every simulated result against a reference, and fills a Report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "report.hpp"
#include "trace.hpp"

namespace hostbench {

/// The seed the repository's goldens were generated with.
inline constexpr std::uint64_t kGoldenSeed = 1;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10;
  bool trace = false;
  bool tables = false;  ///< also print the result tables (pinned-file format)
};

/// Whether a run starts another pass after `passes` passes took
/// `elapsed_s`: passes repeat while a typical pass still fits the budget,
/// so a run stays within `seconds`. At least one pass; two in a traced run
/// (one traced, one not).
inline bool another_pass(double elapsed_s, std::size_t passes, double seconds, bool traced) {
  if (passes == 0 || (traced && passes < 2)) return true;
  return elapsed_s + elapsed_s / static_cast<double>(passes) <= seconds;
}

/// Figure 3's four quadrants, cold and serial through core::HostSystem.
void run_fig03_cold(const RunArgs& a, Tracer& tr, Report& rep);
/// A generated fleet scenario through fleet::run_fleet (fork mode, 2 threads).
void run_fleet_fork(const RunArgs& a, Tracer& tr, Report& rep);
/// net::TcpReceiver under each congestion-control stack next to C2M cores.
void run_tcp_stacks(const RunArgs& a, Tracer& tr, Report& rep);

/// The fleet scenario text the fleet_fork workload runs for `seed`.
std::string fleet_scenario_text(std::uint64_t seed);

}  // namespace hostbench
