// The benchmark's result: correctness counts plus named metrics, printed as
// the one-line JSON object that ends every run. The metric names and units
// here must match BENCHMARK.json (run.py checks every run against it).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace hostbench {

class Report {
 public:
  /// Records a failed check: printed to stderr, and the run is incorrect.
  void mismatch(const std::string& what);

  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  /// End-to-end metric (untraced runs); must be one of the canonical names.
  void e2e(const std::string& name, double value);
  /// Per-layer metric (traced runs); must be one of the canonical names.
  /// Metrics a workload does not exercise are printed as 0.
  void layer(const std::string& name, double value);

  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }
  double mismatch_frac() const;

  /// The per-layer metrics that count modelled work (everything but host
  /// times): deterministic, so identical across runs and thread counts.
  std::map<std::string, double> modelled_layers() const;

  /// The final JSON line: end-to-end metrics when !trace, else per-layer.
  std::string json(bool trace) const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layers_;
};

}  // namespace hostbench
