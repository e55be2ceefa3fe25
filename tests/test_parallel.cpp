// Tests for the parallel sweep engine: core::run_parallel itself
// (core/parallel.hpp) and the sweep executor built on it, run_points and its
// builders (bit-identical for any thread count, results in input order).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::core {
namespace {

RunOptions fast_options() {
  RunOptions o;
  o.warmup = us(20);
  o.measure = us(80);
  o.seed = 7;
  return o;
}

/// Exact (bitwise) equality of the metrics the figures are built from.
/// Doubles are compared with EXPECT_EQ deliberately: the parallel engine
/// promises bit-identical results, not approximately-equal ones.
void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.window_ns, b.window_ns);
  for (int c = 0; c < mem::kNumTrafficClasses; ++c) {
    EXPECT_EQ(a.mem_gbps[static_cast<size_t>(c)], b.mem_gbps[static_cast<size_t>(c)]);
    EXPECT_EQ(a.cha_admission_wait_ns[static_cast<size_t>(c)],
              b.cha_admission_wait_ns[static_cast<size_t>(c)]);
  }
  EXPECT_EQ(a.lfb_latency_ns, b.lfb_latency_ns);
  EXPECT_EQ(a.lfb_avg_occupancy, b.lfb_avg_occupancy);
  EXPECT_EQ(a.lfb_max_occupancy, b.lfb_max_occupancy);
  EXPECT_EQ(a.cha_dram_read_latency_c2m_ns, b.cha_dram_read_latency_c2m_ns);
  EXPECT_EQ(a.cha_dram_read_latency_p2m_ns, b.cha_dram_read_latency_p2m_ns);
  EXPECT_EQ(a.cha_mc_write_latency_ns, b.cha_mc_write_latency_ns);
  EXPECT_EQ(a.p2m_reads_in_flight_at_cha_max, b.p2m_reads_in_flight_at_cha_max);
  EXPECT_EQ(a.avg_rpq_occupancy, b.avg_rpq_occupancy);
  EXPECT_EQ(a.avg_wpq_occupancy, b.avg_wpq_occupancy);
  EXPECT_EQ(a.wpq_full_fraction, b.wpq_full_fraction);
  EXPECT_EQ(a.row_miss_ratio_read, b.row_miss_ratio_read);
  EXPECT_EQ(a.row_miss_ratio_write, b.row_miss_ratio_write);
  EXPECT_EQ(a.mc_lines_read, b.mc_lines_read);
  EXPECT_EQ(a.mc_lines_written, b.mc_lines_written);
  EXPECT_EQ(a.mc_switch_cycles, b.mc_switch_cycles);
  EXPECT_EQ(a.c2m_lines_read, b.c2m_lines_read);
  EXPECT_EQ(a.c2m_lines_written, b.c2m_lines_written);
  EXPECT_EQ(a.c2m_app_gbps, b.c2m_app_gbps);
  EXPECT_EQ(a.queries_per_sec, b.queries_per_sec);
  EXPECT_EQ(a.p2m_dev_gbps, b.p2m_dev_gbps);
  EXPECT_EQ(a.p2m_iops, b.p2m_iops);
}

void expect_identical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.c2m_score, b.c2m_score);
  EXPECT_EQ(a.p2m_score, b.p2m_score);
  expect_identical(a.metrics, b.metrics);
}

void expect_identical(const ColocationOutcome& a, const ColocationOutcome& b) {
  expect_identical(a.iso_c2m, b.iso_c2m);
  expect_identical(a.iso_p2m, b.iso_p2m);
  expect_identical(a.colo, b.colo);
}

TEST(RunParallel, ThreadsEnvOverride) {
  ASSERT_EQ(setenv("HOSTNET_THREADS", "3", 1), 0);
  EXPECT_EQ(parallel_threads(), 3u);
  ASSERT_EQ(unsetenv("HOSTNET_THREADS"), 0);
  EXPECT_GE(parallel_threads(), 1u);
}

TEST(RunParallel, ThreadsEnvRejectsMalformedValues) {
  // Each bad value must throw and name the variable; `abc` once ran on
  // hardware concurrency and `2x` on 2 threads.
  for (const char* bad : {"abc", "2x", "-4", "0", "", "+3", "1234567890"}) {
    SCOPED_TRACE(std::string("HOSTNET_THREADS=") + bad);
    ASSERT_EQ(setenv("HOSTNET_THREADS", bad, 1), 0);
    try {
      (void)parallel_threads();
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("HOSTNET_THREADS"), std::string::npos) << e.what();
    }
  }
  ASSERT_EQ(unsetenv("HOSTNET_THREADS"), 0);
  EXPECT_EQ(parse_threads("16"), 16u);
  EXPECT_EQ(parse_threads("999999999"), 999999999u);  // parsed, never spawned
}

TEST(RunParallel, RunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  run_parallel(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunParallel, PreservesInputOrderWithMoreJobsThanThreads) {
  // 64 jobs on 4 threads; even jobs are slowed so completion order differs
  // from input order. results[i] must still correspond to job i.
  std::vector<int> results(64, -1);
  run_parallel(
      results.size(),
      [&](std::size_t i) {
        if (i % 2 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        results[i] = static_cast<int>(i) * 3;
      },
      4);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], static_cast<int>(i) * 3);
}

TEST(RunParallel, ThrowingJobPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      run_parallel(
          32,
          [](std::size_t i) {
            if (i == 5) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);

  // Every worker was joined before the rethrow: a subsequent run works
  // normally.
  std::atomic<int> n{0};
  run_parallel(8, [&](std::size_t) { ++n; }, 4);
  EXPECT_EQ(n.load(), 8);
}

TEST(RunParallel, NestedCallRunsInlineWithoutDeadlock) {
  // Every outer job starts an inner run_parallel. The inner call must run
  // serially on the outer job's own thread (no new workers), and every
  // inner job must run exactly once.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> foreign_thread{0};
  run_parallel(
      kOuter,
      [&](std::size_t o) {
        const std::thread::id outer = std::this_thread::get_id();
        run_parallel(
            kInner,
            [&](std::size_t i) {
              if (std::this_thread::get_id() != outer) ++foreign_thread;
              ++hits[o * kInner + i];
            },
            4);
      },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(foreign_thread.load(), 0);
}

// Each sweep entry point at threads=1 (the serial path) and threads=4 must
// give bit-identical outcomes, in input order.

TEST(ParallelSweep, TwoQuadrantColocationBitIdenticalToSerial) {
  const HostConfig host = cascade_lake();
  const RunOptions opt = fast_options();

  C2MSpec read_spec;
  read_spec.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  read_spec.cores = 2;
  C2MSpec rw_spec;
  rw_spec.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  rw_spec.cores = 2;
  P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());

  for (const C2MSpec& c2m : {read_spec, rw_spec}) {
    const ColocationOutcome serial = run_colocation(host, c2m, p2m, opt, 1);
    const ColocationOutcome par = run_colocation(host, c2m, p2m, opt, 4);
    expect_identical(par, serial);
  }
}

TEST(ParallelSweep, CoreSweepBitIdenticalAndInInputOrder) {
  const HostConfig host = cascade_lake();
  const RunOptions opt = fast_options();

  C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  const std::vector<std::uint32_t> cores{1, 2, 3};

  const auto serial = sweep_c2m_cores(host, c2m, p2m, cores, opt, 1);
  const auto par = sweep_c2m_cores(host, c2m, p2m, cores, opt, 4);
  ASSERT_EQ(par.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) expect_identical(par[i], serial[i]);

  // Input order: each parallel window carries its own core count.
  ASSERT_EQ(par.size(), cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    EXPECT_EQ(par[i].iso_c2m.metrics.c2m_cores, cores[i]);
    EXPECT_EQ(par[i].colo.metrics.c2m_cores, cores[i]);
  }
}

TEST(ParallelSweep, WorkloadPointsMatchDirectRuns) {
  const HostConfig host = cascade_lake();
  const RunOptions opt = fast_options();

  C2MSpec read_spec;
  read_spec.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  read_spec.cores = 2;
  C2MSpec rw_spec;
  rw_spec.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  rw_spec.cores = 2;
  P2MSpec p2m_write;
  p2m_write.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  P2MSpec p2m_read;
  p2m_read.storage = workloads::fio_p2m_read(host, workloads::p2m_region());

  const std::vector<WorkloadPoint> points{{host, read_spec, std::nullopt},
                                          {host, std::nullopt, p2m_read},
                                          {host, read_spec, p2m_read},
                                          {host, rw_spec, p2m_write}};
  const std::vector<RunOutcome> serial = run_points(points, opt, 1);
  const std::vector<RunOutcome> par = run_points(points, opt, 4);
  ASSERT_EQ(par.size(), points.size());
  ASSERT_EQ(serial.size(), points.size());
  // run_points[i] is point i, checked against a direct single-window run.
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(par[i], serial[i]);
    expect_identical(par[i], run_workloads(points[i].host, points[i].c2m, points[i].p2m, opt));
  }
}

}  // namespace
}  // namespace hostnet::core
