// Parallel-for for sweep workloads.
//
// Every paper figure is a sweep of independent simulation points; each point
// owns its HostSystem (and therefore its Simulator, RNG streams, and
// counters), so points can run on separate threads with no shared mutable
// state and bit-identical results to a serial run. This header provides the
// minimal engine for that: each call spawns its workers, which claim jobs
// from a shared atomic counter, and joins them before returning.
//
// Thread-count policy: the HOSTNET_THREADS environment variable overrides;
// otherwise std::thread::hardware_concurrency() is used, capped at the job
// count. The calling thread participates as a worker. A nested run_parallel
// from inside a job runs serially inline.
//
// Caveat: sim::Tracer::set_global installs a process-wide trace sink; do not
// enable it while running parallel sweeps (see DESIGN.md, threading model).
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace hostnet::core {

/// A thread count as text: a positive decimal integer of at most 9 digits,
/// nothing else (no sign, no suffix). Returns 0 when `text` is not one.
unsigned parse_threads(std::string_view text);

/// Worker threads to use for parallel sweeps: the HOSTNET_THREADS
/// environment variable if set, else hardware_concurrency(). Throws
/// std::invalid_argument naming the variable when its value is not a
/// parse_threads() count.
unsigned parallel_threads();

/// Run `body(0) .. body(count-1)` across `nthreads` workers (0 = use
/// parallel_threads()). Jobs are claimed from a shared atomic counter; the
/// call returns after every claimed job has finished. The calling thread
/// participates as a worker. If a job throws, remaining unclaimed jobs are
/// abandoned, all workers are joined, and the first exception is rethrown.
void run_parallel(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned nthreads = 0);

}  // namespace hostnet::core
