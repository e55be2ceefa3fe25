// hostbench: one workload per invocation; prints its metrics as the last
// line of stdout (JSON) and exits non-zero on any mismatch. Usually run
// through hostbench/run.py, which builds this binary first.
//
//   hostbench --workload fig03_cold|fleet_fork|tcp_stacks --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--tables]
//
// Run from the checkout root: the references are read from
// bench/goldens/ and hostbench/pinned/.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace hostbench;

namespace {

int usage(const char* why) {
  std::cerr << "hostbench: " << why
            << "\nusage: hostbench --workload fig03_cold|fleet_fork|tcp_stacks --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--tables]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs a;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tables") {
      a.tables = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }

  void (*run)(const RunArgs&, Tracer&, Report&) = nullptr;
  if (a.workload == "fig03_cold") run = run_fig03_cold;
  if (a.workload == "fleet_fork") run = run_fleet_fork;
  if (a.workload == "tcp_stacks") run = run_tcp_stacks;
  if (!run) return usage(("unknown workload '" + a.workload + "'").c_str());

  Tracer tracer(a.trace);
  Report rep;
  try {
    run(a, tracer, rep);
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << a.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  rep.layer("mismatch_frac", rep.mismatch_frac());
  if (a.trace && !trace_out.empty()) {
    if (tracer.write_chrome_trace(trace_out))
      std::cerr << "hostbench: " << tracer.spans().size() << " spans written to " << trace_out
                << '\n';
    else
      std::cerr << "hostbench: cannot write " << trace_out << '\n';
  }
  std::cout << rep.json(a.trace) << std::endl;
  return rep.correct() ? 0 : 1;
}
