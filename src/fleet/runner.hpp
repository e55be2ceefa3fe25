// fleet::Runner -- simulate every host of a Scenario at fork-sweep speed.
//
// A real fleet is mostly hosts sharing a handful of configurations, so the
// runner shards hosts BY CONFIG FINGERPRINT rather than round-robin: all
// hosts with the same core::config_fingerprint() land on the same shard,
// each shard owns one core::SweepCache (which owns the shard's reusable
// warmed HostSystems), and the shards run as independent jobs on
// core::run_parallel. Per fingerprint the fleet therefore
// pays ONE cold construction+warmup; every further host of that
// fingerprint either restores from the warm checkpoint (distinct
// measurement window, e.g. under scenario measure jitter) or hits the
// outcome memo outright (bit-identical replica). A 1000-host fleet with 10
// distinct fingerprints costs ~10 cold warmups + 1000 cheap forks/memo
// lookups, not 1000 warmups (BM_FleetSweep gates this).
//
// Aggregation is streaming: each shard folds its hosts into a
// fleet::FleetAggregate in host-index order, and shard aggregates merge in
// shard-index order afterwards -- O(shards) memory and bit-identical
// reports for any thread count (and for fork vs cold execution; both are
// pinned by tests/test_fleet.cpp, ctest label `fleet`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/scenario.hpp"

namespace hostnet::fleet {

struct RunnerOptions {
  /// Worker threads for the shard jobs: 0 = core::parallel_threads()
  /// (HOSTNET_THREADS override, else hardware concurrency). Thread count
  /// never changes results -- sharding is by fingerprint, not by thread.
  unsigned threads = 0;
  /// kFork (default): each shard owns a SweepCache, so every fingerprint
  /// warms once and every further host forks/memoizes. kCold: build + warm
  /// every window from scratch -- the reference path the fork engine must
  /// match.
  core::SweepMode mode = core::SweepMode::kFork;
};

struct FleetReport {
  std::string scenario;            ///< Scenario::name()
  std::uint64_t hosts = 0;
  std::size_t fingerprints = 0;    ///< distinct config fingerprints (= shards)
  std::size_t shards = 0;
  unsigned threads = 0;            ///< workers the run used: min(requested, shards)
  FleetAggregate agg;
  core::SweepCache::Stats cache;   ///< summed over shards (zero in cold mode)
};

/// Simulate the whole scenario and reduce it to a FleetReport.
FleetReport run_fleet(const Scenario& sc, const RunnerOptions& opt = {});

/// Render the report as the deterministic text table `hostnet_fleet` prints
/// (tenant rows in tenant-id order, then regime/cache summary lines).
std::string format_report(const Scenario& sc, const FleetReport& r);

}  // namespace hostnet::fleet
