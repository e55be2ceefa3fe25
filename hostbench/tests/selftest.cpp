// Determinism self-tests of the benchmark (run.py --selftest, or ctest in
// the benchmark's build directory). Run from the checkout root.
//
//  1. The harness's run(warmup, 0) + run_more(measure) split reproduces the
//     golden rows (fig03_cold and tcp_stacks at the goldens' seed) and the
//     library's cold run(warmup, measure) window.
//  2. Two runs give identical modelled per-layer counts.
//  3. The fleet_fork report is identical on 1 and 2 worker threads.
#include <cstdio>
#include <map>
#include <string>

#include "fleet/runner.hpp"
#include "harness.hpp"
#include "net/tcp_stack.hpp"
#include "report.hpp"
#include "workloads.hpp"
#include "workloads/workloads.hpp"

using namespace hostbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "[ OK ]" : "[FAIL]", what.c_str());
  if (!ok) ++failures;
}

/// One pass of `workload` at `seed`.
Report one_pass(const std::string& workload, std::uint64_t seed) {
  RunArgs a;
  a.workload = workload;
  a.seed = seed;
  a.seconds = 0;
  Tracer tr(false);
  Report rep;
  if (workload == "fig03_cold") run_fig03_cold(a, tr, rep);
  if (workload == "tcp_stacks") run_tcp_stacks(a, tr, rep);
  if (workload == "fleet_fork") run_fleet_fork(a, tr, rep);
  return rep;
}

std::string fleet_report(unsigned threads) {
  const auto sc = hostnet::fleet::Scenario::parse(fleet_scenario_text(7));
  hostnet::fleet::RunnerOptions opt;
  opt.threads = threads;
  const auto r = hostnet::fleet::run_fleet(sc, opt);
  std::string s = hostnet::fleet::format_report(sc, r);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", r.agg.total_mem_gbps_sum);
  return s + buf;
}

}  // namespace

int main() {
  // 1. split window vs the library's cold path, one window per P2M kind.
  {
    namespace wl = hostnet::workloads;
    const core::HostConfig host = core::cascade_lake();
    core::C2MSpec c2m;
    c2m.workload = wl::c2m_read_write(wl::c2m_core_region(0));
    c2m.cores = 2;
    core::RunOptions opt;
    opt.seed = 5;
    Tracer tr(false);
    const WindowSpec storage{host, c2m, wl::fio_p2m_write(host, wl::p2m_region()), std::nullopt,
                             opt};
    check(matches_cold_reference(storage, run_window(storage, tr)),
          "split window == run_workloads(kCold), storage P2M");
    const WindowSpec tcp{host, c2m, std::nullopt,
                         hostnet::net::tcp_spec(core::TcpStackKind::kBbr), opt};
    check(matches_cold_reference(tcp, run_window(tcp, tr)),
          "split window == run_workloads(kCold), BBR receiver");
  }

  // 1 + 2. golden rows, then the same modelled counts on a second run.
  for (const char* w : {"fig03_cold", "tcp_stacks"}) {
    const Report first = one_pass(w, kGoldenSeed);
    check(first.correct(), std::string(w) + ": rows equal the goldens / pinned outputs");
    const Report second = one_pass(w, kGoldenSeed);
    check(first.modelled_layers() == second.modelled_layers(),
          std::string(w) + ": modelled per-layer counts repeat exactly");
  }
  {
    const Report first = one_pass("fleet_fork", 11);
    check(first.correct(), "fleet_fork: fork report equals the cold reference (seed 11)");
    check(first.modelled_layers() == one_pass("fleet_fork", 11).modelled_layers(),
          "fleet_fork: modelled per-layer counts repeat exactly");
  }

  // 3. thread count never changes a fleet report.
  check(fleet_report(1) == fleet_report(2), "fleet report identical on 1 and 2 threads");

  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
