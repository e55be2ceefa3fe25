// fig03_cold: Figure 3's C2M x P2M quadrants, cold and serial.
//
// Per quadrant: one isolated-P2M window shared by every core count, then
// an isolated-C2M and a colocated window per C2M core count -- the
// protocol of core::sweep_c2m_cores. Rows are checked against
// bench/goldens/bench_fig03_quadrants.txt at the goldens' seed.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "golden.hpp"
#include "sweep.hpp"
#include "workloads/workloads.hpp"

namespace hostbench {

namespace {

namespace wl = hostnet::workloads;

struct Quadrant {
  const char* title;
  bool c2m_writes;
  bool p2m_writes;
};

// Titles as bench_fig03_quadrants prints them (the golden's table keys).
constexpr Quadrant kQuadrants[] = {
    {"Quadrant 1: C2M-Read + P2M-Write", false, true},
    {"Quadrant 2: C2M-Read + P2M-Read", false, false},
    {"Quadrant 3: C2M-ReadWrite + P2M-Write", true, true},
    {"Quadrant 4: C2M-ReadWrite + P2M-Read", true, false},
};

// One of the figure's 1..6 core counts, so a pass (12 windows) fits the
// run length several times: at 2 cores quadrant 3 has crossed into the red
// regime while the read quadrants stay blue.
const std::vector<std::uint32_t> kCores = {2};

core::RunOutcome outcome(const WindowResult& r) {
  core::RunOutcome o;
  o.metrics = r.m;
  o.c2m_score = r.c2m_score;
  o.p2m_score = r.p2m_score;
  return o;
}

struct Point {
  std::size_t quadrant;
  std::uint32_t cores;
  std::size_t iso_c2m, iso_p2m, colo;  ///< window indices
};

}  // namespace

void run_fig03_cold(const RunArgs& a, Tracer& tr, Report& rep) {
  const core::HostConfig host = core::cascade_lake();
  core::RunOptions opt;  // the default 400 + 1500 us window
  opt.seed = a.seed;

  std::vector<WindowSpec> windows;
  std::vector<Point> points;
  for (std::size_t q = 0; q < std::size(kQuadrants); ++q) {
    const Quadrant& quad = kQuadrants[q];
    core::C2MSpec c2m;
    c2m.name = quad.c2m_writes ? "C2M-ReadWrite" : "C2M-Read";
    c2m.workload = quad.c2m_writes ? wl::c2m_read_write(wl::c2m_core_region(0))
                                   : wl::c2m_read(wl::c2m_core_region(0));
    const hostnet::iio::StorageConfig storage =
        quad.p2m_writes ? wl::fio_p2m_write(host, wl::p2m_region())
                        : wl::fio_p2m_read(host, wl::p2m_region());

    const std::size_t iso_p2m = windows.size();
    windows.push_back(WindowSpec{host, std::nullopt, storage, std::nullopt, opt});
    for (std::uint32_t n : kCores) {
      c2m.cores = n;
      const std::size_t iso_c2m = windows.size();
      windows.push_back(WindowSpec{host, c2m, std::nullopt, std::nullopt, opt});
      windows.push_back(WindowSpec{host, c2m, storage, std::nullopt, opt});
      points.push_back(Point{q, n, iso_c2m, iso_p2m, iso_c2m + 1});
    }
  }

  const SweepRun run = run_sweep(windows, a, tr);
  report_sweep(windows, run, rep);

  // -- rows of the first pass vs the reference ---------------------------------
  const std::vector<WindowResult>& r = run.passes[0];
  std::vector<GoldenTable> golden;
  if (a.seed == kGoldenSeed)
    golden = load_golden("bench/goldens/bench_fig03_quadrants.txt");
  std::vector<std::vector<std::vector<std::string>>> tables(std::size(kQuadrants));
  for (const Point& p : points) {
    if (!r[p.iso_c2m].ok || !r[p.iso_p2m].ok || !r[p.colo].ok) continue;  // counted
    core::ColocationOutcome o{outcome(r[p.iso_c2m]), outcome(r[p.iso_p2m]), outcome(r[p.colo])};
    const core::Metrics& m = o.colo.metrics;
    const std::vector<std::string> row = {
        std::to_string(p.cores),
        hostnet::Table::num(o.c2m_degradation()) + "x",
        hostnet::Table::num(o.p2m_degradation()) + "x",
        hostnet::Table::num(m.c2m_mem_gbps(), 1),
        hostnet::Table::num(m.p2m_mem_gbps(), 1),
        hostnet::Table::num(m.total_mem_gbps(), 1),
        core::to_string(o.regime())};
    tables[p.quadrant].push_back(row);
    if (a.seed != kGoldenSeed) continue;
    const auto* want = find_row(golden, kQuadrants[p.quadrant].title, row[0]);
    if (!want || *want != row) {
      rep.add_failed(2);  // the row's iso-C2M and colocated windows
      rep.mismatch(std::string(kQuadrants[p.quadrant].title) + ", " + row[0] +
                   " cores: differs from bench_fig03_quadrants golden");
    }
  }
  if (a.tables)
    for (std::size_t q = 0; q < std::size(kQuadrants); ++q)
      print_table(kQuadrants[q].title,
                  {"C2M cores", "C2M degr", "P2M degr", "C2M GB/s", "P2M GB/s", "mem total",
                   "regime"},
                  tables[q]);

  // Off the golden seed, the harness's split window is checked against the
  // library's own cold path on the heaviest (last) window.
  if (a.seed != kGoldenSeed && !matches_cold_reference(windows.back(), r.back())) {
    rep.add_failed(1);
    rep.mismatch("fig03_cold: last window differs from core::run_workloads(kCold)");
  }
}

}  // namespace hostbench
