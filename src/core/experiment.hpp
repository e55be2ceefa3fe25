// Colocation experiment harness: run a C2M workload and a P2M workload in
// isolation and colocated, and report per-side performance degradation --
// the measurement protocol behind every figure in the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/domains.hpp"
#include "core/host_system.hpp"
#include "core/metrics.hpp"
#include "core/presets.hpp"
#include "cpu/core.hpp"
#include "iio/storage_device.hpp"

namespace hostnet::core {

struct C2MSpec {
  std::string name = "c2m";
  cpu::CoreWorkload workload{};
  std::uint32_t cores = 1;
  /// When true, core i's region is workload.region shifted by i strides
  /// (independent address spaces, e.g. Redis shards / STREAM buffers);
  /// when false all cores share workload.region (e.g. one GAPBS graph).
  bool per_core_region = true;
  std::uint64_t region_stride = 1ull << 30;
  /// Score measuring app performance: queries/s for episodic workloads,
  /// read GB/s otherwise (chosen automatically).
};

// -- TCP transports (the pluggable-stack seam; implemented in src/net) --------
//
// The DCTCP receiver case study grew into a family of congestion-control
// stacks (net::TcpStack). The experiment harness stays net-agnostic: a
// P2MSpec may request a TCP transport by spec, and the concrete receiver is
// built through a factory that src/net installs (core cannot link net).

/// Which congestion-control stack drives the TCP sender model.
enum class TcpStackKind : std::uint8_t {
  kDctcp = 0,  ///< ECN-fraction response (the paper's baseline, Fig 19)
  kBbr = 1,    ///< bandwidth-probing with a pacing gate (BBR-like)
  kDavis = 2,  ///< delay-based, backs off on measured RTT inflation
};

std::string to_string(TcpStackKind kind);

/// The construction-shaping knobs of a TCP receiver placement. Every field
/// is covered by config_fingerprint(), so SweepCache forking and fleet
/// sharding distinguish stacks (and stack configs) structurally; per-stack
/// CC constants beyond these stay fixed inside src/net.
struct TcpSpec {
  std::string name = "tcp";
  TcpStackKind stack = TcpStackKind::kDctcp;
  double wire_gb_per_s = 12.25;    ///< 100 Gbps link, effective
  std::uint32_t mtu_bytes = 9216;  ///< jumbo frames
  std::uint32_t copy_cores = 4;    ///< kernel copy cores at the receiver
  std::uint32_t ring_packets = 192;///< socket buffer / receive window
  Tick base_rtt = us(40);
};

/// What the harness needs from a running TCP receiver: the measurement
/// surface that scores a TCP-backed P2M placement. Implemented by
/// net::TcpReceiver; owned by the caller of the factory (the receiver
/// registers its simulation hooks with the HostSystem itself).
class TcpTransport {
 public:
  virtual ~TcpTransport() = default;
  virtual double goodput_gbps(Tick now) const = 0;  ///< copied payload GB/s
  virtual double loss_rate() const = 0;             ///< dropped / offered
  virtual double avg_cwnd() const = 0;              ///< epoch-sampled mean cwnd
};

/// Factory building a concrete transport onto `host` per `spec`. Installed
/// once at startup by src/net (net::install_tcp_factory); run_workloads
/// throws std::logic_error on a TCP spec when no factory is present.
using TcpFactory = std::unique_ptr<TcpTransport> (*)(HostSystem& host, const TcpSpec& spec);
void set_tcp_factory(TcpFactory f);
TcpFactory tcp_factory();

struct P2MSpec {
  std::string name = "p2m";
  std::optional<iio::StorageConfig> storage{};
  /// TCP receiver placement (DMA writes through the IIO, like storage
  /// writes, plus kernel-copy C2M traffic). Scored by transport goodput.
  std::optional<TcpSpec> tcp{};
};

struct RunOptions {
  Tick warmup = us(400);
  Tick measure = us(1500);
  std::uint64_t seed = 1;
};

/// Reads the default measurement window, honoring HOSTNET_MEASURE_US and
/// HOSTNET_WARMUP_US environment overrides (useful to shorten CI runs).
/// Throws std::invalid_argument naming the variable when a set value is not
/// a parse_duration() of microseconds > 0 (measure) or >= 0 (warmup).
RunOptions default_run_options();

/// The whole of `text` as a duration of `unit` ticks: a finite number >= 0
/// (> 0 unless `allow_zero`) whose ticks fit a Tick; nullopt otherwise.
/// Window lengths and Tick-valued scenario `set`s all follow this rule.
std::optional<Tick> parse_duration(const char* text, Tick unit, bool allow_zero);

struct RunOutcome {
  Metrics metrics{};
  double c2m_score = 0;  ///< queries/s (episodic) or core read GB/s
  double p2m_score = 0;  ///< device DMA GB/s
};

// -- checkpoint/fork sweeps (DESIGN.md section 4e) ----------------------------
//
// A sweep measures many points that share a (host config, workloads, seed,
// warmup) prefix. The fork engine warms a prototype host once per shared
// prefix, snapshots it at the post-warmup reset_counters() quiesce point,
// and forks every subsequent point of that prefix from the checkpoint
// instead of re-warming. It runs only through a caller-owned SweepCache
// (the fleet runner holds one per shard); every other sweep runs cold.
//
// Warmup-sharing caveat: two points share a warmed checkpoint ONLY when
// config_fingerprint() -- a canonical field-by-field encoding of every
// simulation input -- matches exactly. A point whose warmup genuinely
// differs (any config field, workload field, seed, or warmup length) gets a
// different fingerprint and warms independently; sharing is explicit and
// auditable through SweepCache::stats(). Forked outcomes are bit-identical
// to cold runs because the simulation is deterministic and the checkpoint
// restores the complete host state, including the pending-event queue.

/// How run_workloads executes a point.
enum class SweepMode : std::uint8_t {
  kCold,  ///< always build + warm a fresh host (reference behaviour)
  kFork,  ///< fork from the caller's SweepCache (cold when it is null)
};

/// Canonical fingerprint of one simulation configuration: every
/// visit_fields() leaf (core/config_fields.hpp) of the host config and
/// workload specs, which optional specs are present, seed and warmup. Equal
/// fingerprints guarantee identical construction and warmup; used as the
/// SweepCache checkpoint key.
std::string config_fingerprint(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                               const std::optional<P2MSpec>& p2m, std::uint64_t seed,
                               Tick warmup);

class SweepCache;

/// Build a host with the given workloads and run one measurement window.
/// With a cache under kFork, the warmed host is checkpointed and reused:
/// same-fingerprint points restore instead of re-warming, and
/// fully-identical (fingerprint + measure) reruns return the memoized
/// outcome -- legitimate because the simulation is deterministic. A null
/// cache (or kCold) runs cold. Results are bit-identical either way.
RunOutcome run_workloads(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                         const std::optional<P2MSpec>& p2m, const RunOptions& opt,
                         SweepCache* cache = nullptr, SweepMode mode = SweepMode::kFork);

/// Checkpoint + outcome cache for forked sweeps. Single-threaded (one per
/// thread or per fleet shard); owns the warmed prototype hosts, so it is
/// expensive while alive and cheap to clear().
class SweepCache {
 public:
  SweepCache();
  ~SweepCache();
  SweepCache(const SweepCache&) = delete;
  SweepCache& operator=(const SweepCache&) = delete;

  struct Stats {
    std::uint64_t checkpoint_hits = 0;    ///< points forked from a warm host
    std::uint64_t checkpoint_misses = 0;  ///< prefixes warmed cold
    std::uint64_t outcome_hits = 0;       ///< fully-memoized reruns
    std::uint64_t outcome_misses = 0;

    /// Fold another cache's counters in (the fleet runner sums its shards'
    /// caches into one observable fork-reuse figure; fleet/runner.hpp).
    void add(const Stats& o) {
      checkpoint_hits += o.checkpoint_hits;
      checkpoint_misses += o.checkpoint_misses;
      outcome_hits += o.outcome_hits;
      outcome_misses += o.outcome_misses;
    }
  };
  const Stats& stats() const { return stats_; }

  std::size_t checkpoints() const { return checkpoints_.size(); }
  std::size_t outcomes() const { return outcomes_.size(); }
  void clear();

 private:
  friend RunOutcome run_workloads(const HostConfig&, const std::optional<C2MSpec>&,
                                  const std::optional<P2MSpec>&, const RunOptions&,
                                  SweepCache*, SweepMode);
  struct Entry;  ///< a warmed HostSystem + its quiesce-point checkpoint
  std::unordered_map<std::string, std::unique_ptr<Entry>> checkpoints_;
  std::unordered_map<std::string, RunOutcome> outcomes_;  ///< key + measure window
  Stats stats_;
};

// -- the sweep executor --------------------------------------------------------
//
// Every sweep is a list of measurement windows. run_points runs them cold,
// each on its own HostSystem built from the same (config, seed) inputs, so
// points share no mutable state and the results are bit-identical for any
// thread count, in input order. Threads: explicit `threads`, else the
// HOSTNET_THREADS environment override, else hardware concurrency (see
// core/parallel.hpp); threads = 1 is the serial path. run_colocation and
// sweep_c2m_cores build their point lists and assemble the outcomes.

/// One (host, workload) measurement window.
struct WorkloadPoint {
  HostConfig host;
  std::optional<C2MSpec> c2m;
  std::optional<P2MSpec> p2m;
};

/// run_workloads (cold) over every point; results in input order.
std::vector<RunOutcome> run_points(const std::vector<WorkloadPoint>& points,
                                   const RunOptions& opt, unsigned threads = 0);

struct ColocationOutcome {
  RunOutcome iso_c2m;
  RunOutcome iso_p2m;
  RunOutcome colo;

  /// Ratio of isolated to colocated performance (>= ~1; higher = worse).
  double c2m_degradation() const {
    return colo.c2m_score > 0 ? iso_c2m.c2m_score / colo.c2m_score : 0;
  }
  double p2m_degradation() const {
    return colo.p2m_score > 0 ? iso_p2m.p2m_score / colo.p2m_score : 0;
  }
  Regime regime() const { return classify_regime(c2m_degradation(), p2m_degradation()); }
};

/// The full isolation/colocation protocol for one configuration point: its
/// three windows (iso C2M, iso P2M, colocated) through run_points.
ColocationOutcome run_colocation(const HostConfig& host, const C2MSpec& c2m,
                                 const P2MSpec& p2m, const RunOptions& opt,
                                 unsigned threads = 0);

/// Sweep the number of C2M cores (the x-axis of most paper figures).
/// iso_p2m is measured once and shared across points; every window of the
/// sweep runs as one run_points batch.
std::vector<ColocationOutcome> sweep_c2m_cores(const HostConfig& host, C2MSpec c2m,
                                               const P2MSpec& p2m,
                                               const std::vector<std::uint32_t>& cores,
                                               const RunOptions& opt, unsigned threads = 0);

}  // namespace hostnet::core
