// tcp_stacks: net::TcpReceiver under each congestion-control stack, next to
// C2M-Read and C2M-ReadWrite cores, cold and serial -- the protocol of
// bench_fig19_tcp extended to every stack. DCTCP rows are checked against
// bench/goldens/bench_fig19_tcp.txt, BBR/Davis rows against
// hostbench/pinned/tcp_stacks.txt, both at the goldens' seed.
#include <cctype>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "golden.hpp"
#include "net/tcp_stack.hpp"
#include "sweep.hpp"
#include "workloads/workloads.hpp"

namespace hostbench {

namespace {

namespace wl = hostnet::workloads;

struct Case {
  const char* panel;  ///< Fig 19 panel: (a,b) read, (c,d) read-write
  const char* label;
  bool c2m_writes;
};

constexpr Case kCases[] = {{"(a,b)", "C2MRead", false}, {"(c,d)", "C2MReadWrite", true}};

constexpr core::TcpStackKind kStacks[] = {core::TcpStackKind::kDctcp, core::TcpStackKind::kBbr,
                                          core::TcpStackKind::kDavis};

// One of Fig 19's 1..4 core counts, so a pass (11 windows) fits the run
// length several times: at 2 cores both apps degrade mildly next to
// C2M-Read, while next to C2M-ReadWrite the network app has collapsed.
const std::vector<std::uint32_t> kCores = {2};

/// bench_fig19_tcp's table title, with the stack's name in place of DCTCP.
std::string title(const Case& c, core::TcpStackKind stack) {
  std::string name = core::to_string(stack);
  for (char& ch : name) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  if (stack == core::TcpStackKind::kDavis) name = "Davis";
  return std::string("Fig 19") + c.panel + ": " + c.label + " + TCP Rx (" + name +
         ", 4 copy cores)";
}

struct Point {
  std::size_t c, s;
  std::uint32_t cores;
  std::size_t iso_mem, iso_net, colo;  ///< window indices
};

}  // namespace

void run_tcp_stacks(const RunArgs& a, Tracer& tr, Report& rep) {
  const core::HostConfig host = core::cascade_lake();
  core::RunOptions opt;  // the default 400 + 1500 us window
  opt.seed = a.seed;

  // Isolated network app per stack, isolated memory app per (case, cores),
  // then every colocation.
  std::vector<WindowSpec> windows;  // windows[s]: stack s's isolated receiver
  for (core::TcpStackKind s : kStacks)
    windows.push_back(
        WindowSpec{host, std::nullopt, std::nullopt, hostnet::net::tcp_spec(s), opt});

  std::vector<Point> points;
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    core::C2MSpec c2m;
    c2m.workload = kCases[c].c2m_writes ? wl::c2m_read_write(wl::c2m_core_region(0))
                                        : wl::c2m_read(wl::c2m_core_region(0));
    for (std::uint32_t n : kCores) {
      c2m.cores = n;
      const std::size_t iso_mem = windows.size();
      windows.push_back(WindowSpec{host, c2m, std::nullopt, std::nullopt, opt});
      for (std::size_t s = 0; s < std::size(kStacks); ++s) {
        points.push_back(Point{c, s, n, iso_mem, s, windows.size()});
        windows.push_back(
            WindowSpec{host, c2m, std::nullopt, hostnet::net::tcp_spec(kStacks[s]), opt});
      }
    }
  }

  const SweepRun run = run_sweep(windows, a, tr);
  report_sweep(windows, run, rep);

  // -- per-stack transport figures (first pass; every pass repeats them) --------
  const std::vector<WindowResult>& r = run.passes[0];
  for (std::size_t s = 0; s < std::size(kStacks); ++s) {
    Mean goodput, loss, marks, cwnd;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (!windows[i].tcp || windows[i].tcp->stack != kStacks[s] || !r[i].ok) continue;
      goodput.add(r[i].tcp.goodput_gbps);
      loss.add(r[i].tcp.loss_rate);
      marks.add(r[i].tcp.mark_fraction);
      cwnd.add(r[i].tcp.avg_cwnd);
    }
    const std::string sfx = "." + core::to_string(kStacks[s]);
    rep.layer("net.goodput_gbps" + sfx, goodput.get());
    rep.layer("net.loss_rate" + sfx, loss.get());
    rep.layer("net.mark_fraction" + sfx, marks.get());
    rep.layer("net.avg_cwnd" + sfx, cwnd.get());
  }

  // -- rows vs the references ----------------------------------------------------
  std::vector<GoldenTable> golden, pinned;
  if (a.seed == kGoldenSeed) {
    golden = load_golden("bench/goldens/bench_fig19_tcp.txt");
    pinned = load_golden("hostbench/pinned/tcp_stacks.txt");
  }
  std::vector<std::vector<std::vector<std::string>>> tables(std::size(kStacks) *
                                                            std::size(kCases));
  for (const Point& p : points) {
    if (!r[p.iso_mem].ok || !r[p.iso_net].ok || !r[p.colo].ok) continue;  // counted
    const WindowResult& colo = r[p.colo];
    const double mem_degr =
        colo.m.c2m_app_gbps > 0 ? r[p.iso_mem].c2m_score / colo.m.c2m_app_gbps : 0;
    const double net_degr =
        colo.tcp.goodput_gbps > 0 ? r[p.iso_net].tcp.goodput_gbps / colo.tcp.goodput_gbps : 0;
    const std::vector<std::string> row = {
        std::to_string(p.cores),
        hostnet::Table::num(mem_degr) + "x",
        hostnet::Table::num(net_degr) + "x",
        hostnet::Table::pct(colo.tcp.loss_rate * 100, 3),
        hostnet::Table::num(colo.m.c2m_mem_gbps(), 1),
        hostnet::Table::num(colo.m.p2m_mem_gbps(), 1)};
    tables[p.s * std::size(kCases) + p.c].push_back(row);
    if (a.seed != kGoldenSeed) continue;
    const std::string t = title(kCases[p.c], kStacks[p.s]);
    const bool dctcp = kStacks[p.s] == core::TcpStackKind::kDctcp;
    const auto* want = find_row(dctcp ? golden : pinned, t, row[0]);
    if (!want || *want != row) {
      rep.add_failed(2);  // the row's isolated-memory and colocated windows
      rep.mismatch(t + ", " + row[0] + " cores: differs from " +
                   (dctcp ? "bench_fig19_tcp golden" : "hostbench/pinned/tcp_stacks.txt"));
    }
  }
  if (a.tables)
    for (std::size_t s = 0; s < std::size(kStacks); ++s)
      for (std::size_t c = 0; c < std::size(kCases); ++c)
        print_table(title(kCases[c], kStacks[s]),
                    {"C2M cores", "Memory app degr", "Network app degr", "loss rate",
                     "C2M mem GB/s", "P2M mem GB/s"},
                    tables[s * std::size(kCases) + c]);

  // Off the golden seed, the harness's split window is checked against the
  // library's own cold path (through the installed TCP factory).
  if (a.seed != kGoldenSeed && !matches_cold_reference(windows.back(), r.back())) {
    rep.add_failed(1);
    rep.mismatch("tcp_stacks: last window differs from core::run_workloads(kCold)");
  }
}

}  // namespace hostbench
