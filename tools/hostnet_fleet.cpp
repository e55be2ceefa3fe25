// hostnet_fleet -- the config-driven fleet driver: scenario file in, fleet
// report out (ROADMAP item 1). See src/fleet/scenario.hpp for the format
// and scenarios/ for examples.
//
//   hostnet_fleet scenarios/demo.fleet
//   hostnet_fleet scenarios/demo.fleet --threads 4 --mode cold --json
//
// `--mode fork` (default) warms each distinct config fingerprint once and
// forks/memoizes every replica; `--mode cold` re-warms every window (the
// reference path; reports are bit-identical either way). Exit status: 0 on
// success, 2 on usage/parse errors.
#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/config_fields.hpp"
#include "core/parallel.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"

using namespace hostnet;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.fleet> [--threads N] [--mode fork|cold] [--json]\n"
               "  --threads N   worker threads, N >= 1 (default: HOSTNET_THREADS, else hardware)\n"
               "  --mode M      fork = warm once per fingerprint (default); cold = reference\n"
               "  --json        machine-readable report on stdout\n",
               argv0);
  return 2;
}

/// `s` as a JSON string literal: quotes, backslashes and control characters
/// escaped.
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// Shortest text that reads back as exactly `v`.
std::string json_num(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// The template's host config, one "path": value line per visit_fields leaf
/// (Tick fields in ns, enums as their number) -- the keys `set` accepts.
void print_config(const core::HostConfig& host) {
  const char* sep = "";
  core::visit_fields(host, [&](std::string_view path, const auto& f,
                               core::FieldUnit unit = core::FieldUnit::kNone) {
    using F = std::remove_cvref_t<decltype(f)>;
    std::string value;
    if constexpr (std::is_same_v<F, std::string>) value = json_str(f);
    else if constexpr (std::is_same_v<F, bool>) value = f ? "true" : "false";
    else if constexpr (std::is_enum_v<F>) value = std::to_string(static_cast<int>(f));
    else if constexpr (std::is_floating_point_v<F>) value = json_num(f);
    else if (unit == core::FieldUnit::kNs) value = json_num(to_ns(f));
    else value = std::to_string(f);
    std::printf("%s\n        \"%.*s\": %s", sep, static_cast<int>(path.size()), path.data(),
                value.c_str());
    sep = ",";
  });
}

void print_json(const fleet::Scenario& sc, const fleet::FleetReport& r) {
  std::printf("{\n  \"scenario\": %s,\n  \"hosts\": %llu,\n", json_str(r.scenario).c_str(),
              static_cast<unsigned long long>(r.hosts));
  std::printf("  \"fingerprints\": %zu,\n  \"shards\": %zu,\n  \"threads\": %u,\n",
              r.fingerprints, r.shards, r.threads);
  std::printf("  \"regimes\": {\"none\": %llu, \"blue\": %llu, \"red\": %llu},\n",
              static_cast<unsigned long long>(r.agg.regime_count(core::Regime::kNone)),
              static_cast<unsigned long long>(r.agg.regime_count(core::Regime::kBlue)),
              static_cast<unsigned long long>(r.agg.regime_count(core::Regime::kRed)));
  std::printf("  \"sweep_cache\": {\"checkpoint_hits\": %llu, \"checkpoint_misses\": %llu, "
              "\"outcome_hits\": %llu, \"outcome_misses\": %llu},\n",
              static_cast<unsigned long long>(r.cache.checkpoint_hits),
              static_cast<unsigned long long>(r.cache.checkpoint_misses),
              static_cast<unsigned long long>(r.cache.outcome_hits),
              static_cast<unsigned long long>(r.cache.outcome_misses));
  std::printf("  \"templates\": [\n");
  for (std::size_t i = 0; i < sc.templates().size(); ++i) {
    const fleet::HostTemplate& t = sc.templates()[i];
    std::printf("    {\"name\": %s, \"preset\": %s, \"config\": {", json_str(t.name).c_str(),
                json_str(t.preset).c_str());
    print_config(t.host);
    std::printf("\n      }}%s\n", i + 1 < sc.templates().size() ? "," : "");
  }
  std::printf("  ],\n  \"tenants\": [\n");
  for (std::size_t i = 0; i < sc.tenants().size(); ++i) {
    const fleet::TenantAggregate& a = r.agg.tenants[i];
    const double n = a.placements ? static_cast<double>(a.placements) : 1.0;
    std::printf("    {\"name\": %s, \"placements\": %llu, \"mean_score\": %.6g, "
                "\"mean_degradation\": %.6g, \"latency_ns\": {\"p50\": %.6g, \"p99\": %.6g, "
                "\"p999\": %.6g}}%s\n",
                json_str(sc.tenants()[i]).c_str(), static_cast<unsigned long long>(a.placements),
                a.colo_score_sum / n, a.mean_degradation(), a.latency.p50(), a.latency.p99(),
                a.latency.p999(), i + 1 < sc.tenants().size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  fleet::RunnerOptions opt;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      opt.threads = core::parse_threads(argv[++i]);
      if (opt.threads == 0) return usage(argv[0]);
    } else if (arg == "--mode" && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "fork") opt.mode = core::SweepMode::kFork;
      else if (m == "cold") opt.mode = core::SweepMode::kCold;
      else
        return usage(argv[0]);
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  try {
    const fleet::Scenario sc = fleet::Scenario::load(path);
    const fleet::FleetReport report = fleet::run_fleet(sc, opt);
    if (json)
      print_json(sc, report);
    else
      std::fputs(fleet::format_report(sc, report).c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostnet_fleet: %s\n", e.what());
    return 2;
  }
  return 0;
}
